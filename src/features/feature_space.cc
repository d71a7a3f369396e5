#include "src/features/feature_space.h"

#include "src/common/strings.h"
#include "src/features/extractors.h"

namespace dess {
namespace {

bool ValidSpaceId(const std::string& id) {
  if (id.empty()) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const std::string& CanonicalSpaceId(FeatureKind kind) {
  // The ids double as persistence section names, so they are pinned to the
  // pre-registry file layout (hierarchy_<id>.bin).
  static const std::string kIds[kNumFeatureKinds] = {
      "moment_invariants", "geometric_params", "principal_moments",
      "eigenvalues"};
  return kIds[static_cast<int>(kind)];
}

FeatureSpaceRegistry::FeatureSpaceRegistry() {
  spaces_.reserve(kNumFeatureKinds);
  for (FeatureKind kind : AllFeatureKinds()) {
    spaces_.push_back(CanonicalSpaceDef(kind));
  }
}

std::shared_ptr<const FeatureSpaceRegistry> FeatureSpaceRegistry::Canonical() {
  static const std::shared_ptr<const FeatureSpaceRegistry> canonical =
      std::make_shared<const FeatureSpaceRegistry>();
  return canonical;
}

Result<int> FeatureSpaceRegistry::Register(FeatureSpaceDef def) {
  if (!ValidSpaceId(def.id)) {
    return Status::InvalidArgument(
        "feature space id must be non-empty lowercase [a-z0-9_]+: '" +
        def.id + "'");
  }
  if (IndexOf(def.id) >= 0) {
    return Status::InvalidArgument("feature space '" + def.id +
                                   "' is already registered");
  }
  if (def.dim <= 0) {
    return Status::InvalidArgument(StrFormat(
        "feature space '%s': dim must be positive, got %d", def.id.c_str(),
        def.dim));
  }
  if (def.extractor == nullptr) {
    return Status::InvalidArgument("feature space '" + def.id +
                                   "': extractor callback is required");
  }
  if (!def.default_weights.empty()) {
    if (static_cast<int>(def.default_weights.size()) != def.dim) {
      return Status::InvalidArgument(StrFormat(
          "feature space '%s': %zu default weights for dim %d",
          def.id.c_str(), def.default_weights.size(), def.dim));
    }
    for (double w : def.default_weights) {
      if (w < 0.0) {
        return Status::InvalidArgument(
            "feature space '" + def.id +
            "': default weights must be non-negative");
      }
    }
  }
  spaces_.push_back(std::move(def));
  return static_cast<int>(spaces_.size()) - 1;
}

int FeatureSpaceRegistry::IndexOf(const std::string& id) const {
  for (size_t i = 0; i < spaces_.size(); ++i) {
    if (spaces_[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

Result<int> FeatureSpaceRegistry::Resolve(const std::string& id) const {
  const int ordinal = IndexOf(id);
  if (ordinal >= 0) return ordinal;
  std::string known;
  for (const FeatureSpaceDef& def : spaces_) {
    if (!known.empty()) known += ", ";
    known += def.id;
  }
  return Status::InvalidArgument("unknown feature space '" + id +
                                 "' (registered: " + known + ")");
}

std::vector<std::string> FeatureSpaceRegistry::Ids() const {
  std::vector<std::string> ids;
  ids.reserve(spaces_.size());
  for (const FeatureSpaceDef& def : spaces_) ids.push_back(def.id);
  return ids;
}

std::shared_ptr<const FeatureSpaceRegistry> RegistryOrCanonical(
    std::shared_ptr<const FeatureSpaceRegistry> registry) {
  return registry != nullptr ? std::move(registry)
                             : FeatureSpaceRegistry::Canonical();
}

}  // namespace dess
