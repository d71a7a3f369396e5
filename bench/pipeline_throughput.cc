// Microbenchmarks of the feature-extraction pipeline stages of Figure 2:
// normalization, voxelization, skeletonization (thinning), skeletal-graph
// construction + spectrum, and the moment features. google-benchmark
// timings per stage, on a representative part.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/trace.h"
#include "src/eval/ann_eval.h"
#include "src/index/distance_kernel.h"
#include "src/index/index_backend.h"
#include "src/index/multidim_index.h"
#include "src/index/signature_block.h"
#include "src/search/search_engine.h"
#include "tests/test_util.h"
#include "src/core/system.h"
#include "src/features/extractors.h"
#include "src/features/moments.h"
#include "src/features/shape_distribution.h"
#include "src/graph/graph_builder.h"
#include "src/graph/spectral.h"
#include "src/modelgen/marching_cubes.h"
#include "src/modelgen/part_families.h"
#include "src/modelgen/signature_corpus.h"
#include "src/skeleton/thinning.h"
#include "src/voxel/morphology.h"
#include "src/voxel/voxelizer.h"

namespace {

using namespace dess;

const TriMesh& SampleMesh() {
  static const TriMesh* mesh = [] {
    Rng rng(7);
    auto m = MeshSolid(*StandardPartFamilies()[4].build(&rng),  // flange
                       {.resolution = 40});
    return new TriMesh(std::move(*m));
  }();
  return *mesh;
}

const NormalizationResult& SampleNormalized() {
  static const NormalizationResult* norm = [] {
    auto n = NormalizeMesh(SampleMesh());
    return new NormalizationResult(std::move(*n));
  }();
  return *norm;
}

// The voxelized sample as VoxelizeMesh returns it, before the pipeline
// keeps its largest component.
const VoxelGrid& SampleRawVoxels(int resolution) {
  static std::map<int, VoxelGrid>* cache = new std::map<int, VoxelGrid>();
  auto it = cache->find(resolution);
  if (it == cache->end()) {
    VoxelizationOptions opt;
    opt.resolution = resolution;
    it = cache->emplace(resolution,
                        *VoxelizeMesh(SampleNormalized().mesh, opt)).first;
  }
  return it->second;
}

const VoxelGrid& SampleVoxels(int resolution) {
  static std::map<int, VoxelGrid>* cache = new std::map<int, VoxelGrid>();
  auto it = cache->find(resolution);
  if (it == cache->end()) {
    it = cache->emplace(resolution,
                        KeepLargestComponent(SampleRawVoxels(resolution)))
             .first;
  }
  return it->second;
}

void BM_Normalization(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizeMesh(SampleMesh()));
  }
}
BENCHMARK(BM_Normalization);

// Long-lived pools shared across benchmark iterations, keyed by worker
// count; 1 means the serial path (no pool).
ThreadPool* BenchPool(int threads) {
  if (threads <= 1) return nullptr;
  static std::map<int, ThreadPool*>* pools = new std::map<int, ThreadPool*>();
  auto it = pools->find(threads);
  if (it == pools->end()) {
    it = pools->emplace(threads, new ThreadPool(threads)).first;
  }
  return it->second;
}

void BM_Voxelization(benchmark::State& state) {
  VoxelizationOptions opt;
  opt.resolution = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(VoxelizeMesh(SampleNormalized().mesh, opt));
  }
}
BENCHMARK(BM_Voxelization)->Arg(16)->Arg(32)->Arg(64);

// Intra-shape slab parallelism across z-slabs; threads:1 is the serial
// baseline the speedup targets are measured against.
void BM_Voxelize(benchmark::State& state) {
  VoxelizationOptions opt;
  opt.resolution = static_cast<int>(state.range(0));
  opt.pool = BenchPool(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(VoxelizeMesh(SampleNormalized().mesh, opt));
  }
}
// The threads series compares configurations against each other, so a
// timing run needs a tighter noise floor than the smoke's: pass it with
// --benchmark_min_time (e.g. 0.5). No series sets its own MinTime, which
// would override the smoke run's budget too.
BENCHMARK(BM_Voxelize)
    ->ArgNames({"res", "threads"})
    ->Args({64, 1})
    ->Args({64, 8});

void BM_Thinning(benchmark::State& state) {
  const VoxelGrid& grid = SampleVoxels(static_cast<int>(state.range(0)));
  ThinningOptions opt;
  opt.pool = BenchPool(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ThinToSkeleton(grid, opt));
  }
}
BENCHMARK(BM_Thinning)
    ->ArgNames({"res", "threads"})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({32, 8})
    ->Args({64, 1})
    ->Args({64, 8});

// Largest-component selection between voxelization and thinning: one
// 26-connected labelling pass over the grid, a count, and a rewrite.
void BM_LargestComponent(benchmark::State& state) {
  const VoxelGrid& grid = SampleRawVoxels(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeepLargestComponent(grid));
  }
}
BENCHMARK(BM_LargestComponent)->ArgName("res")->Arg(32)->Arg(64);

void BM_GraphAndSpectrum(benchmark::State& state) {
  const VoxelGrid skeleton = ThinToSkeleton(SampleVoxels(32));
  for (auto _ : state) {
    const SkeletalGraph g = BuildSkeletalGraph(skeleton);
    benchmark::DoNotOptimize(SpectralSignature(g));
  }
}
BENCHMARK(BM_GraphAndSpectrum);

void BM_VoxelMoments(benchmark::State& state) {
  const VoxelGrid& grid = SampleVoxels(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VoxelSecondMomentMatrix(grid));
  }
}
BENCHMARK(BM_VoxelMoments);

void BM_FullPipeline(benchmark::State& state) {
  ExtractionOptions opt;
  opt.voxelization.resolution = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractSignature(SampleMesh(), opt));
  }
}
BENCHMARK(BM_FullPipeline)->Arg(16)->Arg(32);

void BM_MeshSolidGeneration(benchmark::State& state) {
  Rng rng(11);
  const SolidPtr solid = StandardPartFamilies()[4].build(&rng);
  MeshingOptions opt;
  opt.resolution = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeshSolid(*solid, opt));
  }
}
BENCHMARK(BM_MeshSolidGeneration)->Arg(24)->Arg(48);

// End-to-end query path against a small committed system: exercises the
// query-side extraction, the index search, and the multi-step re-rank so
// their counters and spans appear in the exported metrics snapshot. The
// system registers the D2 shape distribution beside the canonical four, so
// the per-space series below covers a registry-extended space and the
// metrics snapshot carries a stage.feature.d2_distribution latency series.
const Dess3System& SampleSystem() {
  static const Dess3System* system = [] {
    auto registry = std::make_shared<FeatureSpaceRegistry>();
    (void)registry->Register(MakeD2SpaceDef());
    SystemOptions opt;
    opt.feature_spaces = std::move(registry);
    opt.extraction.voxelization.resolution = 20;
    opt.hierarchy.max_leaf_size = 4;
    auto* sys = new Dess3System(opt);
    for (uint64_t s = 1; s <= 6; ++s) {
      Rng rng(s);
      auto mesh = MeshSolid(*StandardPartFamilies()[s % 3].build(&rng),
                            {.resolution = 24});
      if (mesh.ok()) {
        (void)sys->IngestMesh(*mesh, "bench" + std::to_string(s),
                              static_cast<int>(s % 3));
      }
    }
    (void)sys->Commit();
    return sys;
  }();
  return *system;
}

const TriMesh& SampleProbe() {
  static const TriMesh* mesh = [] {
    Rng rng(99);
    auto m = MeshSolid(*StandardPartFamilies()[0].build(&rng),
                       {.resolution = 24});
    return new TriMesh(std::move(*m));
  }();
  return *mesh;
}

// One series per registered feature space (arg = registry ordinal;
// 0..3 canonical, 4 = d2_distribution), labeled with the space id.
void BM_QueryPath(benchmark::State& state) {
  const Dess3System& system = SampleSystem();
  const FeatureSpaceRegistry& registry = *system.options().feature_spaces;
  const std::string space = registry.id(static_cast<int>(state.range(0)));
  state.SetLabel(space);
  const QueryRequest request = QueryRequest::TopK(space, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.QueryByMesh(SampleProbe(), request));
  }
}
BENCHMARK(BM_QueryPath)
    ->ArgName("space")
    ->DenseRange(0, kNumFeatureKinds);  // the canonical four, then D2

// Tracing A/B on the same query path: arg 0 runs with sampling disabled,
// arg 1 traces every request. The two series bound the tracer's overhead;
// with sampling off the delta must sit within run-to-run noise (span
// scopes reduce to a thread-local load + branch).
void BM_QueryPathTraced(benchmark::State& state) {
  const Dess3System& system = SampleSystem();
  Tracer* tracer = Tracer::Global();
  const uint32_t saved_rate = tracer->sample_rate();
  const bool traced = state.range(0) != 0;
  tracer->SetSampleRate(traced ? 1 : 0);
  state.SetLabel(traced ? "trace_on" : "trace_off");
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.QueryByMesh(SampleProbe(), request));
  }
  tracer->SetSampleRate(saved_rate);
}
BENCHMARK(BM_QueryPathTraced)->ArgName("trace")->DenseRange(0, 1);

// The paper's two-step plan, plus a final D2 re-rank stage to time a
// registered space inside the multi-step path.
void BM_QueryPathMultiStep(benchmark::State& state) {
  const Dess3System& system = SampleSystem();
  MultiStepPlan plan = MultiStepPlan::Standard(4, 3);
  plan.stages.push_back({std::string(kD2SpaceId), 2});
  const QueryRequest request = QueryRequest::MultiStep(std::move(plan));
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.QueryByMesh(SampleProbe(), request));
  }
}
BENCHMARK(BM_QueryPathMultiStep);

// Snapshot-isolated concurrent serving: N reader threads query one
// committed system through the lock-free snapshot path. Built at res 64 so
// the index holds non-trivial feature vectors; the probe signature is
// extracted once up front, leaving only the serving layer in the timed
// region. Real time (not CPU) is the relevant axis for a serving path.
const Dess3System& ConcurrentSystem() {
  static const Dess3System* system = [] {
    SystemOptions opt;
    opt.extraction.voxelization.resolution = 64;
    opt.hierarchy.max_leaf_size = 4;
    auto* sys = new Dess3System(opt);
    for (uint64_t s = 1; s <= 4; ++s) {
      Rng rng(s);
      auto mesh = MeshSolid(*StandardPartFamilies()[s % 3].build(&rng),
                            {.resolution = 24});
      if (mesh.ok()) {
        (void)sys->IngestMesh(*mesh, "conc" + std::to_string(s),
                              static_cast<int>(s % 3));
      }
    }
    (void)sys->Commit();
    return sys;
  }();
  return *system;
}

const ShapeSignature& ConcurrentProbe() {
  static const ShapeSignature* signature = [] {
    Rng rng(101);
    auto mesh = MeshSolid(*StandardPartFamilies()[1].build(&rng),
                          {.resolution = 24});
    auto sig = ExtractSignature(*mesh, ConcurrentSystem().options().extraction);
    return new ShapeSignature(std::move(*sig));
  }();
  return *signature;
}

void BM_QueryConcurrent(benchmark::State& state) {
  const Dess3System& system = ConcurrentSystem();
  const ShapeSignature& probe = ConcurrentProbe();
  const QueryRequest request =
      QueryRequest::TopK(FeatureKind::kPrincipalMoments, 3);
  for (auto _ : state) {
    auto response = system.QueryBySignature(probe, request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_QueryConcurrent)->ThreadRange(1, 4)->UseRealTime();

// Cold start: reopening a persisted snapshot directory versus re-ingesting
// the same corpus through the full geometry pipeline and rebuilding every
// index. The default corpus is small so the smoke run stays fast on one
// core; set DESS_BENCH_FULL=1 for the paper's 113-shape database at
// voxel resolution 64.
struct ColdStartFixture {
  Dataset dataset;
  SystemOptions options;
  std::string snap_dir;
};

const ColdStartFixture& ColdStart() {
  static const ColdStartFixture* fixture = [] {
    auto* f = new ColdStartFixture();
    const bool full = std::getenv("DESS_BENCH_FULL") != nullptr;
    DatasetOptions ds;
    ds.seed = 7;
    ds.mesh_resolution = full ? 40 : 24;
    if (!full) {
      ds.num_groups = 4;
      ds.num_noise = 3;
    }
    f->options.extraction.voxelization.resolution = full ? 64 : 56;
    f->options.hierarchy.max_leaf_size = 4;
    auto dataset = BuildStandardDataset(ds);
    if (!dataset.ok()) return f;
    f->dataset = std::move(*dataset);
    Dess3System system(f->options);
    (void)system.IngestDataset(f->dataset, IngestOptions{.num_threads = 0});
    (void)system.Commit();
    f->snap_dir = (std::filesystem::temp_directory_path() /
                   "dess_bench_snapshot")
                      .string();
    SaveOptions save;
    save.overwrite = true;
    (void)system.SaveSnapshot(f->snap_dir, save);
    return f;
  }();
  return *fixture;
}

void BM_ColdStartReopen(benchmark::State& state) {
  const ColdStartFixture& fx = ColdStart();
  size_t shapes = 0;
  for (auto _ : state) {
    auto system = Dess3System::OpenFromSnapshot(fx.snap_dir);
    if (system.ok()) shapes = (*system)->db().NumShapes();
    benchmark::DoNotOptimize(system);
  }
  state.counters["shapes"] = static_cast<double>(shapes);
}
BENCHMARK(BM_ColdStartReopen);

void BM_ColdStartReingest(benchmark::State& state) {
  const ColdStartFixture& fx = ColdStart();
  for (auto _ : state) {
    Dess3System system(fx.options);
    (void)system.IngestDataset(fx.dataset, IngestOptions{.num_threads = 0});
    benchmark::DoNotOptimize(system.Commit());
  }
  state.counters["shapes"] =
      static_cast<double>(fx.dataset.shapes.size());
}
BENCHMARK(BM_ColdStartReingest);

// Incremental publish cost — the acceptance axis of the WAL/delta-commit
// redesign: a delta publish must scale with delta size, not corpus size.
// Each iteration ingests `delta` fresh records (untimed) and times exactly
// one Commit(): BM_CommitFull rebuilds every per-space index and browsing
// hierarchy over the whole corpus, BM_CommitDelta publishes only the
// side-index layered over the unchanged main indexes. The delta series
// folds the side away untimed after each measurement so every iteration
// covers a side of the same size, and both series pin recalibrate=false
// full folds so the compared snapshots stay frozen-calibration
// bit-identical. Default corpus 1000 keeps the tier-1 smoke fast; set
// DESS_BENCH_FULL=1 for the acceptance-scale 10k corpus / 100 delta.
struct CommitFixture {
  ShapeDatabase pool;  // synthetic source records, recycled round-robin
  size_t corpus = 0;
  size_t delta = 0;
};

const CommitFixture& CommitCorpus() {
  static const CommitFixture* fixture = [] {
    auto* f = new CommitFixture();
    const bool full = std::getenv("DESS_BENCH_FULL") != nullptr;
    f->corpus = full ? 10000 : 1000;
    f->delta = 100;
    f->pool = testing_util::BuildSyntheticFeatureDb(
        static_cast<int>(f->corpus / 100), 100, 0, /*seed=*/4242);
    return f;
  }();
  return *fixture;
}

std::unique_ptr<Dess3System> BuildCommittedSystem(const CommitFixture& fx) {
  SystemOptions opt;
  opt.hierarchy.max_leaf_size = 4;
  // The series folds manually; a background fold mid-measurement would
  // race the timed commits.
  opt.compaction_min_delta_records = 0;
  auto system = std::make_unique<Dess3System>(opt);
  for (size_t i = 0; i < fx.corpus; ++i) {
    auto record = fx.pool.Get(static_cast<int>(i));
    if (record.ok()) DESS_CHECK_OK(system->Ingest(**record, {}));
  }
  (void)system->Commit();
  return system;
}

void IngestDelta(Dess3System* system, const CommitFixture& fx,
                 size_t* next) {
  for (size_t i = 0; i < fx.delta; ++i) {
    auto record = fx.pool.Get(static_cast<int>((*next)++ % fx.corpus));
    if (record.ok()) DESS_CHECK_OK(system->Ingest(**record, {}));
  }
}

void BM_CommitFull(benchmark::State& state) {
  const CommitFixture& fx = CommitCorpus();
  auto system = BuildCommittedSystem(fx);
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    IngestDelta(system.get(), fx, &next);
    state.ResumeTiming();
    benchmark::DoNotOptimize(system->Commit(
        CommitOptions{.mode = CommitMode::kFull, .recalibrate = false}));
  }
  state.counters["corpus"] = static_cast<double>(fx.corpus);
  state.counters["delta"] = static_cast<double>(fx.delta);
}
BENCHMARK(BM_CommitFull)->Iterations(5)->Unit(benchmark::kMillisecond);

void BM_CommitDelta(benchmark::State& state) {
  const CommitFixture& fx = CommitCorpus();
  auto system = BuildCommittedSystem(fx);
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    IngestDelta(system.get(), fx, &next);
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        system->Commit(CommitOptions{.mode = CommitMode::kDelta}));
    state.PauseTiming();
    (void)system->Commit(
        CommitOptions{.mode = CommitMode::kFull, .recalibrate = false});
    state.ResumeTiming();
  }
  state.counters["corpus"] = static_cast<double>(fx.corpus);
  state.counters["delta"] = static_cast<double>(fx.delta);
}
BENCHMARK(BM_CommitDelta)->Iterations(5)->Unit(benchmark::kMillisecond);

// Synthetic feature database for the distance-kernel series: n shapes in
// groups of 100 across the canonical four spaces plus a 32-dim registered
// space, served by the linear-scan backend so the scan path (not an index)
// is what gets timed.
struct ScanFixture {
  std::unique_ptr<SearchEngine> engine;
  // Per-vector baseline state: the same standardized vectors the engine's
  // signature blocks hold, one heap allocation per row — the layout the
  // batched kernel replaced.
  std::vector<std::vector<std::vector<double>>> rows;  // [space][row]
  std::vector<std::vector<int>> ids;                   // [space][row]
};

const ScanFixture& ScanDb(size_t n) {
  static std::map<size_t, ScanFixture*>* cache =
      new std::map<size_t, ScanFixture*>();
  auto it = cache->find(n);
  if (it != cache->end()) return *it->second;
  auto* f = new ScanFixture();
  const std::vector<testing_util::SyntheticExtraSpace> extra = {
      {"synthetic_wide32", 32, ""}};
  auto db = std::make_shared<ShapeDatabase>(
      testing_util::BuildSyntheticFeatureDb(static_cast<int>(n) / 100, 100,
                                            0, 12345, 0.05, 1.0, extra));
  SearchEngineOptions opt;
  opt.backend = IndexBackend::kLinearScan;
  opt.registry = testing_util::MakeSyntheticRegistry(extra);
  auto engine = SearchEngine::Build(std::move(db), opt);
  f->engine = std::move(*engine);
  const int spaces = f->engine->NumSpaces();
  f->rows.resize(spaces);
  f->ids.resize(spaces);
  for (int ki = 0; ki < spaces; ++ki) {
    const SignatureBlock& block = f->engine->BlockAt(ki);
    for (size_t r = 0; r < block.size(); ++r) {
      f->rows[ki].push_back(block.Row(r));
      f->ids[ki].push_back(block.id(r));
    }
  }
  cache->emplace(n, f);
  return *f;
}

// Full scan for the 10 nearest: the per-vector baseline (impl 0) evaluates
// WeightedEuclidean row by row and fully sorts, exactly what the linear
// scan did before the SoA signature blocks; the block impl (1) runs the
// batched kernel over the packed block with partial top-k selection. Both
// return identical neighbors, so the ratio is pure kernel+layout speedup.
void BM_LinearScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int ki = static_cast<int>(state.range(1));
  const bool block_impl = state.range(2) != 0;
  const ScanFixture& fx = ScanDb(n);
  state.SetLabel(fx.engine->registry().id(ki) +
                 (block_impl ? "/block" : "/pervector"));
  const SimilaritySpace& space = fx.engine->SpaceAt(ki);
  const std::vector<double> query = fx.rows[ki][n / 2];
  constexpr size_t kK = 10;
  if (block_impl) {
    const SignatureBlock& block = fx.engine->BlockAt(ki);
    std::vector<double> dist(block.size());
    for (auto _ : state) {
      BatchedWeightedL2(block, query.data(), space.weights.data(),
                        dist.data());
      std::vector<Neighbor> top;
      top.reserve(block.size());
      for (size_t r = 0; r < block.size(); ++r) {
        top.push_back({block.id(r), dist[r]});
      }
      PartialSortSmallest(&top, kK);
      benchmark::DoNotOptimize(top);
    }
  } else {
    for (auto _ : state) {
      std::vector<Neighbor> top;
      top.reserve(fx.rows[ki].size());
      for (size_t r = 0; r < fx.rows[ki].size(); ++r) {
        top.push_back({fx.ids[ki][r],
                       WeightedEuclidean(query, fx.rows[ki][r],
                                         space.weights)});
      }
      std::sort(top.begin(), top.end());
      if (top.size() > kK) top.resize(kK);
      benchmark::DoNotOptimize(top);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LinearScan)
    ->ArgNames({"n", "space", "impl"})
    ->ArgsProduct({{10000, 100000}, {0, 1, 2, 3, 4}, {0, 1}});

// ANN vs exact scan. One synthetic signature corpus (modelgen's
// large-corpus mode — no meshing, so 100k records synthesize in seconds),
// two engines over the same records: the SIMD linear scan and the HNSW
// graph pinned to the 32-dim synthetic space. The fixture also evaluates
// the graph's recall@{1,10,50} against the exact engine once, so every
// hnsw timing row carries its recall as user counters — bench_diff.py
// gates on recall_at_10 and the smoke summary reports recall vs speedup.
struct AnnFixture {
  std::shared_ptr<ShapeDatabase> db;
  std::unique_ptr<SearchEngine> exact;
  std::unique_ptr<SearchEngine> ann;
  AnnRecallReport recall;
  ShapeSignature query;
};

constexpr int kAnnSpace = kNumFeatureKinds;  // the 32-dim synthetic space

const AnnFixture& AnnDb(size_t n) {
  static std::map<size_t, AnnFixture*>* cache =
      new std::map<size_t, AnnFixture*>();
  auto it = cache->find(n);
  if (it != cache->end()) return *it->second;
  auto* f = new AnnFixture();
  SignatureCorpusOptions corpus;
  if (n == 113) {
    corpus.num_groups = 26;  // the standard corpus shape: groups + noise
    corpus.group_size = 3;
    corpus.num_noise = 35;
  } else {
    corpus.num_groups = static_cast<int>(n) / 100;
    corpus.group_size = 100;
  }
  corpus.seed = 12345;
  const std::vector<testing_util::SyntheticExtraSpace> exact_extra = {
      {"synthetic_wide32", 32, ""}};
  const std::vector<testing_util::SyntheticExtraSpace> ann_extra = {
      {"synthetic_wide32", 32, kHnswBackendId}};
  auto records =
      MakeSignatureCorpus(corpus, testing_util::MakeSyntheticRegistry(
                                      exact_extra));
  f->query = records.value()[records.value().size() / 2].signature;
  f->db = std::make_shared<ShapeDatabase>();
  for (ShapeRecord& rec : records.value()) f->db->Insert(std::move(rec));
  SearchEngineOptions exact_opt;
  exact_opt.backend = IndexBackend::kLinearScan;
  exact_opt.registry = testing_util::MakeSyntheticRegistry(exact_extra);
  auto exact = SearchEngine::Build(f->db, exact_opt);
  f->exact = std::move(*exact);
  SearchEngineOptions ann_opt;
  ann_opt.backend = IndexBackend::kLinearScan;
  ann_opt.registry = testing_util::MakeSyntheticRegistry(ann_extra);
  {
    ThreadPool pool(static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency())));
    ann_opt.build_pool = &pool;  // borrowed; the engine clears it
    auto ann = SearchEngine::Build(f->db, ann_opt);
    f->ann = std::move(*ann);
  }
  const size_t stride = std::max<size_t>(1, f->db->NumShapes() / 200);
  f->recall =
      *EvaluateAnnRecall(*f->exact, *f->ann, kAnnSpace, {1, 10, 50}, stride);
  cache->emplace(n, f);
  return *f;
}

// Top-10 query through the engine path: impl 0 is the exact SIMD linear
// scan, impl 1 the HNSW graph (oversampled candidates, exact re-score).
// Same corpus, same query, so time-per-op ratio is the ANN speedup and the
// attached recall counters say what it costs.
void BM_AnnScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool use_ann = state.range(1) != 0;
  const AnnFixture& fx = AnnDb(n);
  const SearchEngine& engine = use_ann ? *fx.ann : *fx.exact;
  state.SetLabel(use_ann ? "hnsw" : "linear_scan");
  const QueryRequest request =
      QueryRequest::TopK(engine.registry().id(kAnnSpace), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Query(fx.query, request));
  }
  if (use_ann) {
    state.counters["recall_at_1"] = fx.recall.At(1);
    state.counters["recall_at_10"] = fx.recall.At(10);
    state.counters["recall_at_50"] = fx.recall.At(50);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_AnnScan)
    ->ArgNames({"n", "ann"})
    ->ArgsProduct({{113, 10000, 100000}, {0, 1}});

// Candidate re-rank through the engine (gathered block rows + partial
// selection): 1000 candidates cut to the best 100, per feature space.
void BM_Rerank(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int ki = static_cast<int>(state.range(1));
  const ScanFixture& fx = ScanDb(n);
  state.SetLabel(fx.engine->registry().id(ki));
  const std::vector<int> candidates(fx.ids[ki].begin(),
                                    fx.ids[ki].begin() + 1000);
  const std::vector<double> query =
      *fx.engine->db().Feature(fx.ids[ki][0], ki);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.engine->Rerank(candidates, query, ki, 100));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_Rerank)
    ->ArgNames({"n", "space"})
    ->ArgsProduct({{10000, 100000}, {0, 1, 2, 3, 4}});

// Splices the process-wide metrics snapshot into the google-benchmark JSON
// report as a top-level "dess_metrics" key, so BENCH_pipeline.json carries
// the per-stage latency breakdown and query-path counters alongside the
// benchmark timings.
void AppendMetricsToReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string report = buffer.str();
  const size_t close = report.find_last_of('}');
  if (close == std::string::npos) return;  // not the JSON format
  const std::string metrics =
      MetricsRegistry::Global()->Snapshot().DumpJson();
  const Tracer::Stats trace = Tracer::Global()->GetStats();
  const std::string trace_json =
      "{\"traces_started\": " + std::to_string(trace.traces_started) +
      ", \"traces_sampled\": " + std::to_string(trace.traces_sampled) +
      ", \"spans_recorded\": " + std::to_string(trace.spans_recorded) +
      ", \"spans_dropped\": " + std::to_string(trace.spans_dropped) +
      ", \"sample_rate\": " + std::to_string(trace.sample_rate) + "}";
  report.insert(close, ",\n  \"dess_metrics\": " + metrics +
                           ",\n  \"dess_trace\": " + trace_json + "\n");
  std::ofstream out(path, std::ios::trunc);
  out << report;
}

}  // namespace

int main(int argc, char** argv) {
  // Remember the report path before benchmark::Initialize consumes argv.
  std::string out_path;
  const std::string kOutFlag = "--benchmark_out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, kOutFlag.size(), kOutFlag) == 0) {
      out_path = arg.substr(kOutFlag.size());
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!out_path.empty()) AppendMetricsToReport(out_path);
  return 0;
}
