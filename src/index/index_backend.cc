#include "src/index/index_backend.h"

#include <utility>

#include "src/common/strings.h"
#include "src/index/hnsw.h"
#include "src/index/linear_scan.h"
#include "src/index/rtree.h"

namespace dess {
namespace {

Status CheckContext(const IndexBuildContext& ctx, const char* backend) {
  if (ctx.block == nullptr) {
    return Status::InvalidArgument(
        StrFormat("%s factory: null row block", backend));
  }
  if (ctx.dim <= 0 || ctx.block->dim() != ctx.dim) {
    return Status::InvalidArgument(
        StrFormat("%s factory: row block dim %d, context dim %d", backend,
                  ctx.block->dim(), ctx.dim));
  }
  return Status::OK();
}

Result<std::unique_ptr<MultiDimIndex>> MakeLinearScan(
    const IndexBuildContext& ctx) {
  DESS_RETURN_NOT_OK(CheckContext(ctx, kLinearScanBackendId));
  auto scan = std::make_unique<LinearScanIndex>(ctx.dim);
  const SignatureBlock& block = *ctx.block;
  for (size_t r = 0; r < block.size(); ++r) {
    DESS_RETURN_NOT_OK(scan->Insert(block.id(r), block.Row(r)));
  }
  return std::unique_ptr<MultiDimIndex>(std::move(scan));
}

Result<std::unique_ptr<MultiDimIndex>> MakeRTree(
    const IndexBuildContext& ctx) {
  DESS_RETURN_NOT_OK(CheckContext(ctx, kRTreeBackendId));
  auto rtree = std::make_unique<RTreeIndex>(ctx.dim);
  const SignatureBlock& block = *ctx.block;
  std::vector<std::pair<int, std::vector<double>>> bulk;
  bulk.reserve(block.size());
  for (size_t r = 0; r < block.size(); ++r) {
    bulk.emplace_back(block.id(r), block.Row(r));
  }
  DESS_RETURN_NOT_OK(rtree->BulkLoad(bulk));
  return std::unique_ptr<MultiDimIndex>(std::move(rtree));
}

HnswParams DefaultHnswParams(const IndexBuildContext& ctx) {
  HnswParams params;
  params.seed = ctx.seed;
  return params;
}

Result<std::unique_ptr<MultiDimIndex>> MakeHnsw(const IndexBuildContext& ctx) {
  DESS_RETURN_NOT_OK(CheckContext(ctx, kHnswBackendId));
  DESS_ASSIGN_OR_RETURN(
      std::unique_ptr<HnswIndex> index,
      HnswIndex::Build(DefaultHnswParams(ctx), *ctx.block, ctx.weights,
                       ctx.pool));
  return std::unique_ptr<MultiDimIndex>(std::move(index));
}

Result<std::string> SerializeHnsw(const MultiDimIndex& index) {
  const auto* hnsw = dynamic_cast<const HnswIndex*>(&index);
  if (hnsw == nullptr) {
    return Status::InvalidArgument(
        "hnsw serialize: index is not an hnsw graph");
  }
  return hnsw->SerializeGraph();
}

Result<std::unique_ptr<MultiDimIndex>> DeserializeHnsw(
    const IndexBuildContext& ctx, std::string_view bytes) {
  DESS_RETURN_NOT_OK(CheckContext(ctx, kHnswBackendId));
  DESS_ASSIGN_OR_RETURN(
      std::unique_ptr<HnswIndex> index,
      HnswIndex::Deserialize(DefaultHnswParams(ctx), *ctx.block, ctx.weights,
                             bytes));
  return std::unique_ptr<MultiDimIndex>(std::move(index));
}

bool ValidBackendId(const std::string& id) {
  if (id.empty()) return false;
  for (char c : id) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

}  // namespace

IndexBackendRegistry::IndexBackendRegistry() {
  IndexBackendDef linear;
  linear.id = kLinearScanBackendId;
  linear.factory = MakeLinearScan;
  backends_.push_back(std::move(linear));

  IndexBackendDef rtree;
  rtree.id = kRTreeBackendId;
  rtree.factory = MakeRTree;
  backends_.push_back(std::move(rtree));

  IndexBackendDef hnsw;
  hnsw.id = kHnswBackendId;
  hnsw.exact = false;
  hnsw.supports_range = false;
  hnsw.factory = MakeHnsw;
  hnsw.serialize = SerializeHnsw;
  hnsw.deserialize = DeserializeHnsw;
  backends_.push_back(std::move(hnsw));
}

Result<int> IndexBackendRegistry::Register(IndexBackendDef def) {
  if (!ValidBackendId(def.id)) {
    return Status::InvalidArgument(StrFormat(
        "index backend id '%s' is not lowercase [a-z0-9_]+", def.id.c_str()));
  }
  if (IndexOf(def.id) >= 0) {
    return Status::InvalidArgument(
        StrFormat("index backend '%s' is already registered",
                  def.id.c_str()));
  }
  if (def.factory == nullptr) {
    return Status::InvalidArgument(StrFormat(
        "index backend '%s' has no factory", def.id.c_str()));
  }
  backends_.push_back(std::move(def));
  return static_cast<int>(backends_.size()) - 1;
}

int IndexBackendRegistry::IndexOf(const std::string& id) const {
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (backends_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

Result<const IndexBackendDef*> IndexBackendRegistry::Resolve(
    const std::string& id) const {
  const int i = IndexOf(id);
  if (i >= 0) return &backends_[i];
  std::string known;
  for (const IndexBackendDef& def : backends_) {
    if (!known.empty()) known += ", ";
    known += def.id;
  }
  return Status::InvalidArgument(
      StrFormat("unknown index backend '%s'; registered backends: %s",
                id.c_str(), known.c_str()));
}

std::vector<std::string> IndexBackendRegistry::Ids() const {
  std::vector<std::string> ids;
  ids.reserve(backends_.size());
  for (const IndexBackendDef& def : backends_) ids.push_back(def.id);
  return ids;
}

std::shared_ptr<const IndexBackendRegistry> BuiltInIndexBackends() {
  static const std::shared_ptr<const IndexBackendRegistry> kBuiltIns =
      std::make_shared<const IndexBackendRegistry>();
  return kBuiltIns;
}

const IndexBackendRegistry& BackendsOrBuiltIns(
    const std::shared_ptr<const IndexBackendRegistry>& registry) {
  static const IndexBackendRegistry* const kBuiltIns =
      BuiltInIndexBackends().get();
  return registry != nullptr ? *registry : *kBuiltIns;
}

}  // namespace dess
