#ifndef DESS_INDEX_INDEX_BACKEND_H_
#define DESS_INDEX_INDEX_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/index/multidim_index.h"
#include "src/index/signature_block.h"

namespace dess {

class ThreadPool;

/// Everything a backend factory may use to build one feature space's
/// index. The block holds the space's standardized rows in record order
/// (the same packed view the engine queries), so a factory never touches
/// raw features or the database.
struct IndexBuildContext {
  int dim = 0;
  /// Packed standardized rows (required; borrowed for the call).
  const SignatureBlock* block = nullptr;
  /// The space's per-dimension weights (null or empty = all ones). Exact
  /// backends ignore them; approximate backends may build their structure
  /// under the weighted metric.
  const std::vector<double>* weights = nullptr;
  /// Optional pool for parallel builds (borrowed for the call; null =
  /// serial). Factories must not call ThreadPool::Wait — the caller may
  /// itself be a pool task.
  ThreadPool* pool = nullptr;
  /// Determinism seed for randomized backends; the same (rows, seed) must
  /// yield the same index regardless of pool width.
  uint64_t seed = 0;
  /// The feature space being indexed, for error messages.
  std::string space_id;
};

/// One index backend: id, factory over the packed block view, and the
/// capability flags every engine layer keys off. SearchEngine is the only
/// caller of the hooks: it builds every space's index, restores
/// approximate ones from snapshot bytes, and hands back the bytes to
/// persist.
struct IndexBackendDef {
  /// Stable identifier: lowercase [a-z0-9_]+, unique within a registry.
  /// Also names the backend's metric family ("index.<id>.*") and its
  /// snapshot graph section, so it must stay stable across versions.
  std::string id;
  /// True when queries return exactly what an exhaustive scan would,
  /// bit-identical. Approximate backends get their stage-1 candidates
  /// exactly re-scored (and oversampled) by the engine — approximate
  /// distances are never reported as final.
  bool exact = true;
  /// True when RangeQuery returns the exact ball. The engine routes
  /// threshold queries of a backend without range support through an
  /// exact scan of the packed block.
  bool supports_range = true;
  /// Builds the index over the packed rows. Must produce an index with
  /// ctx.block->size() points of ctx.dim dimensions.
  std::function<Result<std::unique_ptr<MultiDimIndex>>(
      const IndexBuildContext&)>
      factory;
  /// Optional: serializes an approximate index's auxiliary structure (e.g.
  /// the HNSW graph topology) for snapshot persistence. Backends without
  /// one are rebuilt from the packed rows on open; exact backends never
  /// need one, since a reopen builds them through `factory` like any
  /// commit.
  std::function<Result<std::string>(const MultiDimIndex&)> serialize;
  /// Optional: restores an index from `serialize` output plus the packed
  /// rows. A failure (corrupt or mismatched bytes) makes the engine fall
  /// back to `factory`.
  std::function<Result<std::unique_ptr<MultiDimIndex>>(
      const IndexBuildContext&, std::string_view)>
      deserialize;
};

/// String-keyed registry of index backends, mirroring the
/// FeatureSpaceRegistry contract: seeded with the built-ins, append-only
/// while the owner sets it up, immutable once shared with an engine.
/// Built-ins: "linear_scan" and "rtree" (exact — answers bit-identical to
/// the pre-registry hard-coded branch) and "hnsw" (approximate).
class IndexBackendRegistry {
 public:
  /// Seeded with the built-in backends.
  IndexBackendRegistry();

  /// Appends a backend, returning its position. InvalidArgument for a
  /// malformed id, duplicate id, or missing factory.
  Result<int> Register(IndexBackendDef def);

  int size() const { return static_cast<int>(backends_.size()); }
  const IndexBackendDef& backend(int i) const { return backends_[i]; }

  /// Position of a backend id, -1 when unknown.
  int IndexOf(const std::string& id) const;

  /// The backend of an id; InvalidArgument (listing the registered ids)
  /// when unknown — the same taxonomy as an unknown feature space.
  Result<const IndexBackendDef*> Resolve(const std::string& id) const;

  /// All ids in registration order.
  std::vector<std::string> Ids() const;

 private:
  std::vector<IndexBackendDef> backends_;
};

/// The shared built-ins-only registry.
std::shared_ptr<const IndexBackendRegistry> BuiltInIndexBackends();

/// Null-tolerant accessor: `registry` if non-null, the built-ins
/// otherwise — "no registry configured" means the shipped backends.
const IndexBackendRegistry& BackendsOrBuiltIns(
    const std::shared_ptr<const IndexBackendRegistry>& registry);

/// Backend ids of the built-ins (also valid in FeatureSpaceDef and
/// SearchEngineOptions backend fields).
inline constexpr char kLinearScanBackendId[] = "linear_scan";
inline constexpr char kRTreeBackendId[] = "rtree";
inline constexpr char kHnswBackendId[] = "hnsw";

}  // namespace dess

#endif  // DESS_INDEX_INDEX_BACKEND_H_
