#ifndef DESS_TESTS_TEST_UTIL_H_
#define DESS_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/db/shape_database.h"
#include "src/features/feature_space.h"
#include "src/search/query.h"

namespace dess {
namespace testing_util {

/// The ranked results of a SearchEngine::Query/QueryById response, for
/// tests that assert on the ranking only:
///   Ranked(engine.QueryById(id, QueryRequest::TopK(kind, 10)))
inline Result<std::vector<SearchResult>> Ranked(
    Result<QueryResponse> response) {
  if (!response.ok()) return response.status();
  return std::move(response->results);
}

/// A query signature carrying `raw` at registry ordinal `ordinal` — the
/// probe for querying one feature space with a free-standing vector.
inline ShapeSignature ProbeAt(int ordinal, std::vector<double> raw) {
  ShapeSignature probe;
  probe.MutableAt(ordinal).values = std::move(raw);
  return probe;
}

/// A synthetic non-canonical feature space for registry tests: id + dim,
/// no geometry semantics. `index_backend` optionally pins the space to one
/// index backend (e.g. "hnsw"), exactly as FeatureSpaceDef::index_backend
/// would in production code.
struct SyntheticExtraSpace {
  SyntheticExtraSpace(std::string space_id, int space_dim = 4,
                      std::string backend = {})
      : id(std::move(space_id)),
        dim(space_dim),
        index_backend(std::move(backend)) {}

  std::string id;
  int dim;
  std::string index_backend;
};

/// A registry holding the canonical four plus the given synthetic spaces.
/// The synthetic extractors return zero vectors — fine for engines built
/// over BuildSyntheticFeatureDb, whose signatures already carry the extra
/// features, and for tests that never run the geometry pipeline.
inline std::shared_ptr<const FeatureSpaceRegistry> MakeSyntheticRegistry(
    const std::vector<SyntheticExtraSpace>& extra) {
  auto registry = std::make_shared<FeatureSpaceRegistry>();
  for (const SyntheticExtraSpace& space : extra) {
    FeatureSpaceDef def;
    def.id = space.id;
    def.dim = space.dim;
    def.index_backend = space.index_backend;
    def.extractor = [dim = space.dim](const ExtractionArtifacts&) {
      FeatureVector fv;
      fv.values.assign(dim, 0.0);
      return Result<FeatureVector>(std::move(fv));
    };
    DESS_CHECK(registry->Register(std::move(def)).ok());
  }
  return registry;
}

/// Builds a database of synthetic feature vectors (no geometry pipeline):
/// each group gets a random center per feature space and members scatter
/// tightly around it; noise shapes scatter widely. Fast enough for search
/// and evaluation unit tests.
///
/// `extra` appends one feature per synthetic space to every signature, at
/// registry ordinals kNumFeatureKinds, kNumFeatureKinds + 1, ... The extra
/// features draw from a separate RNG stream, so for a given seed the
/// canonical four features are bit-identical with and without `extra`.
inline ShapeDatabase BuildSyntheticFeatureDb(
    int num_groups, int group_size, int num_noise, uint64_t seed = 123,
    double within_spread = 0.05, double center_spread = 1.0,
    const std::vector<SyntheticExtraSpace>& extra = {}) {
  Rng rng(seed);
  Rng extra_rng(seed ^ 0x9e3779b97f4a7c15ull);
  ShapeDatabase db;
  auto random_center = [&](Rng& r, int dim) {
    std::vector<double> c(dim);
    for (double& v : c) v = r.Uniform(-center_spread, center_spread);
    return c;
  };
  auto append_extra_features = [&](ShapeRecord& rec,
                                   const std::vector<std::vector<double>>*
                                       centers) {
    for (size_t e = 0; e < extra.size(); ++e) {
      FeatureVector& fv =
          rec.signature.MutableAt(kNumFeatureKinds + static_cast<int>(e));
      fv.kind = static_cast<FeatureKind>(kNumFeatureKinds +
                                         static_cast<int>(e));
      fv.space = extra[e].id;
      fv.values.clear();
      if (centers != nullptr) {
        for (double c : (*centers)[e]) {
          fv.values.push_back(c + extra_rng.NextGaussian() * within_spread);
        }
      } else {
        fv.values = random_center(extra_rng, extra[e].dim);
      }
    }
  };
  for (int g = 0; g < num_groups; ++g) {
    std::array<std::vector<double>, kNumFeatureKinds> centers;
    for (FeatureKind kind : AllFeatureKinds()) {
      centers[static_cast<int>(kind)] = random_center(rng, FeatureDim(kind));
    }
    std::vector<std::vector<double>> extra_centers;
    for (const SyntheticExtraSpace& space : extra) {
      extra_centers.push_back(random_center(extra_rng, space.dim));
    }
    for (int m = 0; m < group_size; ++m) {
      ShapeRecord rec;
      rec.name = "g" + std::to_string(g) + "_m" + std::to_string(m);
      rec.group = g;
      for (FeatureKind kind : AllFeatureKinds()) {
        FeatureVector& fv = rec.signature.Mutable(kind);
        fv.kind = kind;
        for (double c : centers[static_cast<int>(kind)]) {
          fv.values.push_back(c + rng.NextGaussian() * within_spread);
        }
      }
      append_extra_features(rec, &extra_centers);
      db.Insert(std::move(rec));
    }
  }
  for (int n = 0; n < num_noise; ++n) {
    ShapeRecord rec;
    rec.name = "noise" + std::to_string(n);
    rec.group = kUngrouped;
    for (FeatureKind kind : AllFeatureKinds()) {
      FeatureVector& fv = rec.signature.Mutable(kind);
      fv.kind = kind;
      fv.values = random_center(rng, FeatureDim(kind));
    }
    append_extra_features(rec, nullptr);
    db.Insert(std::move(rec));
  }
  return db;
}

}  // namespace testing_util
}  // namespace dess

#endif  // DESS_TESTS_TEST_UTIL_H_
