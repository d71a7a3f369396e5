// Distance-kernel and signature-block tests: every SIMD variant must be
// bitwise-identical to the scalar reference (WeightedEuclidean), partial
// top-k selection must match a full sort, and every search path that now
// scans packed blocks must return exactly what the old per-vector scan
// returned — same ids, same distances, same similarities, to the last bit.

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/features/shape_distribution.h"
#include "src/index/distance_kernel.h"
#include "src/index/multidim_index.h"
#include "src/index/signature_block.h"
#include "src/search/combined.h"
#include "src/search/relevance_feedback.h"
#include "src/search/search_engine.h"
#include "tests/test_util.h"

namespace dess {
namespace {

using testing_util::Ranked;

std::vector<double> RandomVector(Rng* rng, size_t dim, double lo = -2.0,
                                 double hi = 2.0) {
  std::vector<double> v(dim);
  for (double& x : v) x = rng->Uniform(lo, hi);
  return v;
}

SignatureBlock RandomBlock(Rng* rng, int dim, size_t rows) {
  SignatureBlock block(dim);
  block.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    block.Append(static_cast<int>(r) + 100, RandomVector(rng, dim));
  }
  return block;
}

// --- kernel vs scalar reference, every ISA, dims spanning all SIMD
// tail shapes (1..65 covers full tiles, partial lanes, and scalar tails).

TEST(DistanceKernelTest, AllIsasBitwiseMatchReferenceAcrossDims) {
  Rng rng(42);
  for (int dim = 1; dim <= 65; ++dim) {
    const size_t rows = 19;  // two full tiles + a 3-row partial tile
    const SignatureBlock block = RandomBlock(&rng, dim, rows);
    const std::vector<double> query = RandomVector(&rng, dim);
    const std::vector<double> weights =
        RandomVector(&rng, dim, 0.1, 3.0);  // non-uniform, positive
    std::vector<double> reference(rows);
    for (size_t r = 0; r < rows; ++r) {
      reference[r] = WeightedEuclidean(query, block.Row(r), weights);
    }
    for (KernelIsa isa : AvailableKernelIsas()) {
      std::vector<double> out(rows, -1.0);
      BatchedWeightedL2As(isa, block, query.data(), weights.data(),
                          out.data());
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(reference[r], out[r])
            << "dim=" << dim << " row=" << r
            << " isa=" << KernelIsaName(isa);
      }
    }
  }
}

TEST(DistanceKernelTest, NullWeightsMatchUnitWeights) {
  Rng rng(7);
  const int dim = 13;
  const SignatureBlock block = RandomBlock(&rng, dim, 11);
  const std::vector<double> query = RandomVector(&rng, dim);
  const std::vector<double> unit(dim, 1.0);
  for (KernelIsa isa : AvailableKernelIsas()) {
    std::vector<double> with_unit(block.size());
    std::vector<double> with_null(block.size());
    BatchedWeightedL2As(isa, block, query.data(), unit.data(),
                        with_unit.data());
    BatchedWeightedL2As(isa, block, query.data(), nullptr, with_null.data());
    EXPECT_EQ(with_unit, with_null) << KernelIsaName(isa);
  }
}

TEST(DistanceKernelTest, ZeroWeightChannelsDropOut) {
  Rng rng(11);
  const int dim = 10;
  const SignatureBlock block = RandomBlock(&rng, dim, 9);
  std::vector<double> query = RandomVector(&rng, dim);
  std::vector<double> weights(dim, 1.0);
  weights[0] = weights[7] = 0.0;  // masked channels
  // Distances must ignore masked channels entirely: perturbing the query
  // along them changes nothing.
  std::vector<double> moved = query;
  moved[0] += 100.0;
  moved[7] -= 42.0;
  for (KernelIsa isa : AvailableKernelIsas()) {
    std::vector<double> base(block.size()), perturbed(block.size());
    BatchedWeightedL2As(isa, block, query.data(), weights.data(),
                        base.data());
    BatchedWeightedL2As(isa, block, moved.data(), weights.data(),
                        perturbed.data());
    EXPECT_EQ(base, perturbed) << KernelIsaName(isa);
  }
}

TEST(DistanceKernelTest, EmptyAndSingleRowBlocks) {
  Rng rng(3);
  const int dim = 6;
  SignatureBlock empty(dim);
  const std::vector<double> query = RandomVector(&rng, dim);
  for (KernelIsa isa : AvailableKernelIsas()) {
    BatchedWeightedL2As(isa, empty, query.data(), nullptr, nullptr);
  }
  EXPECT_EQ(MaxPairwiseDistance(empty), 0.0);

  SignatureBlock one(dim);
  const std::vector<double> row = RandomVector(&rng, dim);
  one.Append(5, row);
  for (KernelIsa isa : AvailableKernelIsas()) {
    double out = -1.0;
    BatchedWeightedL2As(isa, one, query.data(), nullptr, &out);
    EXPECT_EQ(out, WeightedEuclidean(query, row, {})) << KernelIsaName(isa);
  }
  EXPECT_EQ(MaxPairwiseDistance(one), 0.0);
}

TEST(DistanceKernelTest, SinglePairAndRowVariantsMatchBatch) {
  Rng rng(17);
  const int dim = 21;
  const SignatureBlock block = RandomBlock(&rng, dim, 12);
  const std::vector<double> query = RandomVector(&rng, dim);
  const std::vector<double> weights = RandomVector(&rng, dim, 0.0, 2.0);
  std::vector<double> batch(block.size());
  BatchedWeightedL2(block, query.data(), weights.data(), batch.data());
  for (size_t r = 0; r < block.size(); ++r) {
    const std::vector<double> row = block.Row(r);
    EXPECT_EQ(batch[r],
              WeightedL2(query.data(), row.data(), weights.data(), dim));
    EXPECT_EQ(batch[r], RowWeightedL2(block, r, query.data(),
                                      weights.data()));
  }
}

TEST(DistanceKernelTest, MaxPairwiseDistanceMatchesQuadraticReference) {
  Rng rng(23);
  // Both a ragged size (tail lanes must not contribute) and a full tile.
  for (const size_t rows : {size_t{13}, size_t{16}}) {
    const int dim = 5;
    const SignatureBlock block = RandomBlock(&rng, dim, rows);
    double reference = 0.0;
    for (size_t i = 0; i < rows; ++i) {
      for (size_t j = i + 1; j < rows; ++j) {
        reference = std::max(
            reference, WeightedEuclidean(block.Row(i), block.Row(j), {}));
      }
    }
    EXPECT_EQ(MaxPairwiseDistance(block), reference) << rows;
  }
}

TEST(DistanceKernelTest, IsaNamesRoundTrip) {
  for (KernelIsa isa : AvailableKernelIsas()) {
    const auto parsed = KernelIsaFromName(KernelIsaName(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(KernelIsaFromName("avx512").has_value());
  EXPECT_FALSE(KernelIsaFromName("").has_value());
  // The active ISA is always one the machine can actually run.
  const auto available = AvailableKernelIsas();
  EXPECT_NE(std::find(available.begin(), available.end(), ActiveKernelIsa()),
            available.end());
}

// --- SignatureBlock layout invariants.

TEST(SignatureBlockTest, AppendRemovePreserveOrderAndValues) {
  Rng rng(31);
  const int dim = 4;
  SignatureBlock block(dim);
  std::vector<std::vector<double>> rows;
  for (int r = 0; r < 18; ++r) {
    rows.push_back(RandomVector(&rng, dim));
    block.Append(r, rows.back());
  }
  // Remove a row in the middle of a tile: later rows shift back one lane
  // but keep their order, ids, and exact values.
  block.RemoveRow(5);
  rows.erase(rows.begin() + 5);
  ASSERT_EQ(block.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(block.Row(r), rows[r]) << r;
    EXPECT_EQ(block.id(r), r < 5 ? static_cast<int>(r)
                                 : static_cast<int>(r) + 1);
  }
  // Tail lanes of the last tile hold exact zeros (the kernel computes
  // them but must never see garbage).
  const size_t tiles = block.num_tiles();
  const double* tail = block.tile(tiles - 1);
  for (size_t lane = block.size() % SignatureBlock::kLane;
       lane != 0 && lane < SignatureBlock::kLane; ++lane) {
    for (int d = 0; d < dim; ++d) {
      EXPECT_EQ(tail[d * SignatureBlock::kLane + lane], 0.0);
    }
  }
}

// --- partial top-k selection vs full sort.

TEST(PartialSortTest, MatchesFullSortWithDuplicateKeys) {
  Rng rng(47);
  std::vector<Neighbor> items;
  for (int i = 0; i < 200; ++i) {
    // Coarse keys force many exact ties; ids break them.
    items.push_back({i, static_cast<double>(rng.NextBounded(8))});
  }
  std::shuffle(items.begin(), items.end(),
               std::mt19937(123));  // scramble insertion order
  for (const size_t k : {size_t{0}, size_t{1}, size_t{10}, size_t{199},
                         size_t{200}, size_t{500}}) {
    std::vector<Neighbor> full = items;
    std::sort(full.begin(), full.end());
    if (full.size() > k) full.resize(k);
    std::vector<Neighbor> partial = items;
    PartialSortSmallest(&partial, k);
    ASSERT_EQ(partial.size(), full.size()) << k;
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(partial[i].id, full[i].id) << "k=" << k << " i=" << i;
      EXPECT_EQ(partial[i].distance, full[i].distance);
    }
  }
}

// --- end-to-end rank identity: the block-scanning engine paths against
// hand-written per-vector references on the paper-sized corpus (26 groups
// of 3 plus 35 noise shapes = 113), across every registered space
// including the D2 distribution.

class BlockScanIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<testing_util::SyntheticExtraSpace> extra = {
        {std::string(kD2SpaceId), 32}};
    db_ = std::make_shared<ShapeDatabase>(
        testing_util::BuildSyntheticFeatureDb(26, 3, 35, 777, 0.05, 1.0,
                                              extra));
    SearchEngineOptions opt;
    opt.backend = IndexBackend::kLinearScan;
    opt.registry = testing_util::MakeSyntheticRegistry(extra);
    auto engine = SearchEngine::Build(db_, opt);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    ASSERT_EQ(engine_->NumSpaces(), kNumFeatureKinds + 1);
    for (const ShapeRecord& rec : db_->records()) ids_.push_back(rec.id);
    ASSERT_EQ(ids_.size(), size_t{113});
  }

  // The pre-block scan: standardize each record's raw feature, score it
  // with the scalar reference, fully sort, truncate.
  std::vector<SearchResult> ReferenceTopK(int query_id, int ordinal,
                                          size_t k) const {
    const SimilaritySpace& space = engine_->SpaceAt(ordinal);
    const std::vector<double> q = space.Standardize(
        *db_->Feature(query_id, ordinal));
    std::vector<SearchResult> out;
    for (const ShapeRecord& rec : db_->records()) {
      if (rec.id == query_id) continue;
      const double d = WeightedEuclidean(
          q, space.Standardize(rec.signature.At(ordinal).values),
          space.weights);
      out.push_back({rec.id, d, space.Similarity(d)});
    }
    std::sort(out.begin(), out.end());
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::shared_ptr<ShapeDatabase> db_;
  std::unique_ptr<SearchEngine> engine_;
  std::vector<int> ids_;  // record order
};

TEST_F(BlockScanIdentityTest, TopKMatchesPerVectorReferenceEverySpace) {
  const std::vector<int> probes = {ids_[0], ids_[56], ids_[112]};
  for (int ordinal = 0; ordinal < engine_->NumSpaces(); ++ordinal) {
    for (int query_id : probes) {
      auto got = Ranked(engine_->QueryById(
          query_id, QueryRequest::TopK(engine_->registry().id(ordinal), 10)));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<SearchResult> want =
          ReferenceTopK(query_id, ordinal, 10);
      ASSERT_EQ(got->size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*got)[i].id, want[i].id)
            << "space=" << engine_->registry().id(ordinal) << " i=" << i;
        EXPECT_EQ((*got)[i].distance, want[i].distance);
        EXPECT_EQ((*got)[i].similarity, want[i].similarity);
      }
    }
  }
}

TEST_F(BlockScanIdentityTest, RerankMatchesPerVectorReference) {
  const int query_id = ids_[3];
  std::vector<int> candidates;
  for (size_t i = 0; i < ids_.size(); i += 2) {
    candidates.push_back(ids_[i]);
  }
  for (int ordinal = 0; ordinal < engine_->NumSpaces(); ++ordinal) {
    const SimilaritySpace& space = engine_->SpaceAt(ordinal);
    const std::vector<double> raw = *db_->Feature(query_id, ordinal);
    const std::vector<double> q = space.Standardize(raw);
    std::vector<SearchResult> want;
    for (int id : candidates) {
      const double d = WeightedEuclidean(
          q, space.Standardize(*db_->Feature(id, ordinal)), space.weights);
      want.push_back({id, d, space.Similarity(d)});
    }
    std::sort(want.begin(), want.end());
    // keep = 0: every candidate, fully sorted.
    auto all = engine_->Rerank(candidates, raw, ordinal);
    ASSERT_TRUE(all.ok());
    ASSERT_EQ(all->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ((*all)[i].id, want[i].id);
      EXPECT_EQ((*all)[i].distance, want[i].distance);
    }
    // keep > 0: the best `keep`, identical to sort + truncate.
    auto top = engine_->Rerank(candidates, raw, ordinal, 7);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), size_t{7});
    for (size_t i = 0; i < top->size(); ++i) {
      EXPECT_EQ((*top)[i].id, want[i].id);
      EXPECT_EQ((*top)[i].distance, want[i].distance);
    }
  }
  // Unknown candidates keep the database's error, not a crash or a skip.
  auto bad = engine_->Rerank({99999}, *db_->Feature(query_id, 0), 0);
  EXPECT_FALSE(bad.ok());
}

TEST_F(BlockScanIdentityTest, MultiStepMatchesStagedReference) {
  const int query_id = ids_[10];
  MultiStepPlan plan = MultiStepPlan::Standard(15, 8);
  plan.stages.push_back({FeatureKind::kMomentInvariants,
                         std::string(kD2SpaceId), 5});
  auto got =
      Ranked(engine_->QueryById(query_id, QueryRequest::MultiStep(plan)));
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Staged reference: per-vector top-k, then per-vector re-rank+truncate
  // per later stage.
  std::vector<SearchResult> current = ReferenceTopK(
      query_id, static_cast<int>(FeatureKind::kMomentInvariants), 15);
  for (size_t s = 1; s < plan.stages.size(); ++s) {
    const int ordinal = plan.stages[s].space.empty()
                            ? static_cast<int>(plan.stages[s].kind)
                            : *engine_->ResolveSpace(plan.stages[s].space);
    const SimilaritySpace& space = engine_->SpaceAt(ordinal);
    const std::vector<double> q =
        space.Standardize(*db_->Feature(query_id, ordinal));
    std::vector<SearchResult> next;
    for (const SearchResult& r : current) {
      const double d = WeightedEuclidean(
          q, space.Standardize(*db_->Feature(r.id, ordinal)),
          space.weights);
      next.push_back({r.id, d, space.Similarity(d)});
    }
    std::sort(next.begin(), next.end());
    if (next.size() > static_cast<size_t>(plan.stages[s].keep)) {
      next.resize(plan.stages[s].keep);
    }
    current = std::move(next);
  }
  ASSERT_EQ(got->size(), current.size());
  for (size_t i = 0; i < current.size(); ++i) {
    EXPECT_EQ((*got)[i].id, current[i].id) << i;
    EXPECT_EQ((*got)[i].distance, current[i].distance);
    EXPECT_EQ((*got)[i].similarity, current[i].similarity);
  }
}

TEST_F(BlockScanIdentityTest, CombinedQueryMatchesPerRecordReference) {
  const int query_id = ids_[20];
  CombinationWeights weights = CombinationWeights::Uniform(
      engine_->NumSpaces());
  auto got = CombinedQueryById(*engine_, query_id, weights, 12);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Per-record reference combine, exactly the pre-block loop shape:
  // standardize, scalar distance, alpha-weighted sums in ordinal order.
  const ShapeRecord* qrec = *db_->Get(query_id);
  std::vector<std::vector<double>> q(engine_->NumSpaces());
  for (int ki = 0; ki < engine_->NumSpaces(); ++ki) {
    q[ki] = engine_->SpaceAt(ki).Standardize(qrec->signature.At(ki).values);
  }
  const double alpha = 1.0 / engine_->NumSpaces();
  std::vector<SearchResult> want;
  for (const ShapeRecord& rec : db_->records()) {
    if (rec.id == query_id) continue;
    double sim = 0.0, dist = 0.0;
    for (int ki = 0; ki < engine_->NumSpaces(); ++ki) {
      const SimilaritySpace& space = engine_->SpaceAt(ki);
      const double d = WeightedEuclidean(
          q[ki], space.Standardize(rec.signature.At(ki).values),
          space.weights);
      sim += alpha * space.Similarity(d);
      dist += alpha * d;
    }
    want.push_back({rec.id, dist, sim});
  }
  std::sort(want.begin(), want.end(),
            [](const SearchResult& a, const SearchResult& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.id < b.id;
            });
  want.resize(12);
  ASSERT_EQ(got->size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*got)[i].id, want[i].id) << i;
    EXPECT_EQ((*got)[i].distance, want[i].distance);
    EXPECT_EQ((*got)[i].similarity, want[i].similarity);
  }
}

TEST_F(BlockScanIdentityTest, FeedbackWeightsMatchPerVectorReference) {
  const int ordinal = static_cast<int>(FeatureKind::kGeometricParams);
  const SimilaritySpace& space = engine_->SpaceAt(ordinal);
  Feedback feedback;
  feedback.relevant_ids = {ids_[0], ids_[1], ids_[2], ids_[60]};
  FeedbackOptions options;
  auto got = ReconfigureWeights(*engine_, ordinal, feedback, options,
                                nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Reference: the pre-block gather (db.Feature + Standardize) feeding the
  // same inverse-variance formula.
  const size_t dim = space.weights.size();
  std::vector<std::vector<double>> rel;
  for (int id : feedback.relevant_ids) {
    rel.push_back(space.Standardize(*db_->Feature(id, ordinal)));
  }
  std::vector<double> mean(dim, 0.0);
  for (const auto& v : rel) {
    for (size_t d = 0; d < dim; ++d) mean[d] += v[d];
  }
  for (double& v : mean) v /= static_cast<double>(rel.size());
  std::vector<double> var(dim, 0.0);
  for (const auto& v : rel) {
    for (size_t d = 0; d < dim; ++d) {
      var[d] += (v[d] - mean[d]) * (v[d] - mean[d]);
    }
  }
  std::vector<double> fresh(dim), want(dim);
  double sum = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    var[d] /= static_cast<double>(rel.size());
    fresh[d] = 1.0 / (var[d] + 1e-3);
    want[d] = options.weight_blend * fresh[d] +
              (1.0 - options.weight_blend) * space.weights[d];
    sum += want[d];
  }
  const double scale = static_cast<double>(dim) / sum;
  for (double& w : want) w *= scale;
  ASSERT_EQ(got->size(), want.size());
  for (size_t d = 0; d < dim; ++d) {
    EXPECT_EQ((*got)[d], want[d]) << d;
  }
}

TEST_F(BlockScanIdentityTest, RebuildFromSameSeedIsDeterministic) {
  // The forked extra-space RNG keeps the corpus reproducible: a second
  // database from the same seed yields bitwise-equal query results.
  const std::vector<testing_util::SyntheticExtraSpace> extra = {
      {std::string(kD2SpaceId), 32}};
  auto db2 = std::make_shared<ShapeDatabase>(
      testing_util::BuildSyntheticFeatureDb(26, 3, 35, 777, 0.05, 1.0,
                                            extra));
  SearchEngineOptions opt;
  opt.backend = IndexBackend::kLinearScan;
  opt.registry = testing_util::MakeSyntheticRegistry(extra);
  auto engine2 = SearchEngine::Build(db2, opt);
  ASSERT_TRUE(engine2.ok());
  const int query_id = ids_[7];
  for (int ordinal = 0; ordinal < engine_->NumSpaces(); ++ordinal) {
    const QueryRequest request =
        QueryRequest::TopK(engine_->registry().id(ordinal), 10);
    auto a = Ranked(engine_->QueryById(query_id, request));
    auto b = Ranked((*engine2)->QueryById(query_id, request));
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i], (*b)[i]);
    }
  }
}

}  // namespace
}  // namespace dess
