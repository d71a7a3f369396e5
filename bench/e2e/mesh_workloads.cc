// The two workloads that run the geometry pipeline: mesh_query (the paper's
// query-by-example interaction) and bulk_ingest (parallel dataset ingest at
// the paper-scale voxel resolution).

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "bench/e2e/bench_core.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/features/extractors.h"
#include "src/features/moments.h"
#include "src/features/shape_distribution.h"
#include "src/modelgen/dataset.h"
#include "src/voxel/morphology.h"

namespace dess::e2e {
namespace {

struct StageCounts {
  double shapes = 0, solid_voxels = 0, skeleton_voxels = 0;

  void Add(const ExtractionArtifacts& art) {
    shapes += 1;
    solid_voxels += static_cast<double>(art.voxels.CountSet());
    skeleton_voxels += static_cast<double>(art.skeleton.CountSet());
  }

  void AddTo(Report* report) const {
    report->SetMetric("voxel.solid_voxels_per_shape",
                      shapes > 0 ? solid_voxels / shapes : 0.0, "count");
    report->SetMetric("skeleton.skeleton_voxels_per_shape",
                      shapes > 0 ? skeleton_voxels / shapes : 0.0, "count");
  }
};

/// ExtractFeatures, re-assembled from the public stage functions so a traced
/// run can put a span around each stage. The answers it leads to are checked
/// against the library's own pipeline, so the replica cannot drift silently.
Result<ShapeSignature> TracedExtract(const TriMesh& mesh,
                                     const ExtractionOptions& options,
                                     SpanRecorder* spans, int64_t parent,
                                     uint64_t request, StageCounts* counts) {
  if (!options.voxel_moments) {
    return Status::InvalidArgument(
        "traced extraction replicates the voxel-moment pipeline only");
  }
  ExtractionArtifacts art;
  {
    SpanScope span(spans, "features.normalize", parent, request);
    DESS_ASSIGN_OR_RETURN(art.normalization,
                          NormalizeMesh(mesh, options.normalization));
  }
  VoxelizationOptions voxelization = options.voxelization;
  voxelization.fill_interior = false;
  if (voxelization.pool == nullptr) voxelization.pool = options.pool;
  {
    SpanScope span(spans, "voxel.voxelize", parent, request);
    DESS_ASSIGN_OR_RETURN(art.voxels,
                          VoxelizeMesh(art.normalization.mesh, voxelization));
  }
  if (options.voxelization.fill_interior) {
    SpanScope span(spans, "voxel.fill", parent, request);
    FillInterior(&art.voxels);
  }
  {
    SpanScope span(spans, "voxel.largest_component", parent, request);
    art.voxels = KeepLargestComponent(art.voxels);
  }
  {
    SpanScope span(spans, "skeleton.thin", parent, request);
    ThinningOptions thinning = options.thinning;
    if (thinning.pool == nullptr) thinning.pool = options.pool;
    art.skeleton = ThinToSkeleton(art.voxels, thinning);
  }
  {
    SpanScope span(spans, "graph.graph_spectrum", parent, request);
    art.graph = BuildSkeletalGraph(art.skeleton, options.graph);
    art.signature.Mutable(FeatureKind::kSpectral) = SpectralFeature(art.graph);
  }
  {
    SpanScope span(spans, "features.moments", parent, request);
    const Mat3 mu = VoxelSecondMomentMatrix(art.voxels);
    art.signature.Mutable(FeatureKind::kMomentInvariants) =
        MomentInvariantsFeature(mu, art.voxels.SolidVolume());
    art.signature.Mutable(FeatureKind::kGeometricParams) =
        GeometricParamsFeature(art.normalization);
    art.signature.Mutable(FeatureKind::kPrincipalMoments) =
        PrincipalMomentsFeature(mu);
  }
  {
    SpanScope span(spans, "features.d2", parent, request);
    const auto registry = RegistryOrCanonical(options.registry);
    for (int ordinal = kNumFeatureKinds; ordinal < registry->size();
         ++ordinal) {
      const FeatureSpaceDef& def = registry->space(ordinal);
      DESS_ASSIGN_OR_RETURN(FeatureVector vector, def.extractor(art));
      FeatureVector& slot = art.signature.MutableAt(ordinal);
      slot = std::move(vector);
      slot.space = def.id;
      slot.kind = static_cast<FeatureKind>(ordinal);
    }
  }
  counts->Add(art);
  return std::move(art.signature);
}

SystemOptions MeshSystemOptions(int resolution) {
  SystemOptions options;
  options.feature_spaces = CanonicalPlusD2();
  options.extraction.voxelization.resolution = resolution;
  return options;
}

}  // namespace

// mesh_query: 113-shape database at voxel resolution 32, 113 held-out probe
// meshes from the same families. One closed-loop client sends, per probe,
// TopK k=10 on each of the five spaces and then MultiStep Standard(30, 10).
Status RunMeshQuery(const RunConfig& cfg, Report* report) {
  const SystemOptions options = MeshSystemOptions(32);
  std::unique_ptr<Dess3System> system;
  std::vector<double> setup_s, gen_s, ingest_s, commit_ms;
  for (int r = 0; r < SetupRepeats(cfg); ++r) {
    const Clock::time_point t0 = Clock::now();
    DESS_ASSIGN_OR_RETURN(Dataset dataset,
                          BuildStandardDataset({.seed = cfg.seed}));
    const Clock::time_point t1 = Clock::now();
    auto next = std::make_unique<Dess3System>(options);
    DESS_RETURN_NOT_OK(
        next->IngestDataset(dataset, IngestOptions{.num_threads = 0}));
    const Clock::time_point t2 = Clock::now();
    DESS_RETURN_NOT_OK(next->Commit().status());
    const Clock::time_point t3 = Clock::now();
    setup_s.push_back(Seconds(t3 - t0));
    gen_s.push_back(Seconds(t1 - t0));
    ingest_s.push_back(Seconds(t2 - t1));
    commit_ms.push_back(Millis(t3 - t2));
    system = std::move(next);
  }
  report->SetPhase("setup", Median(setup_s));
  // The probes are the client's input, generated once outside set-up.
  const Clock::time_point probes_start = Clock::now();
  DESS_ASSIGN_OR_RETURN(const Dataset probes,
                        BuildStandardDataset({.seed = cfg.seed + 1}));
  report->SetPhase("probe_generation", Seconds(Clock::now() - probes_start));

  // Expected answers, computed untimed through the by-signature path, plus
  // exact linear-scan answers for recall@10.
  const Clock::time_point ref_start = Clock::now();
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        system->CurrentSnapshot());
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<SearchEngine> exact,
                        BuildExactTwin(*snapshot, snapshot));
  const std::vector<MixedRequest> requests =
      MeshProbeRequests(*options.feature_spaces);
  const size_t per_probe = requests.size();
  const size_t num_probes = probes.shapes.size();
  std::vector<std::vector<SearchResult>> expected(num_probes * per_probe);
  std::vector<std::vector<SearchResult>> exact_answers(expected.size());
  for (size_t p = 0; p < num_probes; ++p) {
    DESS_ASSIGN_OR_RETURN(
        ShapeSignature signature,
        ExtractSignature(probes.shapes[p].mesh, system->options().extraction));
    for (size_t j = 0; j < per_probe; ++j) {
      DESS_ASSIGN_OR_RETURN(QueryResponse answer,
                            system->QueryBySignature(signature,
                                                     requests[j].request));
      expected[p * per_probe + j] = std::move(answer.results);
      DESS_ASSIGN_OR_RETURN(QueryResponse truth,
                            exact->Query(signature, requests[j].request));
      exact_answers[p * per_probe + j] = std::move(truth.results);
    }
  }
  if (cfg.perturb) PerturbAnswer(&expected[0]);
  report->SetPhase("reference", Seconds(Clock::now() - ref_start));

  WindowedLatency latency(kWindows);
  std::vector<double> completed(kWindows, 0.0), busy(kWindows, 0.0);
  std::vector<double> engine_ms, rerank_ms;
  IndexCounters counters;
  QualityTally quality;
  StageCounts stage_counts;
  const auto budget = std::chrono::duration<double>(cfg.seconds);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i == 0 || Clock::now() - start < budget; ++i) {
    const size_t p = (i / per_probe) % num_probes;
    const size_t slot = p * per_probe + i % per_probe;
    const MixedRequest& mixed = requests[i % per_probe];
    const TriMesh& mesh = probes.shapes[p].mesh;
    const Clock::time_point t0 = Clock::now();
    Result<QueryResponse> response = Status::Internal("not run");
    if (cfg.spans == nullptr) {
      response = system->QueryByMesh(mesh, mixed.request);
    } else {
      SpanScope root(cfg.spans, "core.query_by_mesh", -1, i);
      Result<ShapeSignature> signature =
          TracedExtract(mesh, system->options().extraction, cfg.spans,
                        root.id(), i, &stage_counts);
      if (signature.ok()) {
        SpanScope engine(cfg.spans, "search.engine", root.id(), i);
        response = system->QueryBySignature(*signature, mixed.request);
      } else {
        response = signature.status();
      }
    }
    const Clock::time_point t1 = Clock::now();
    report->AddAttempted(1);
    if (!response.ok()) {
      report->AddFailed(1);
      continue;
    }
    const int window = WindowOf(Seconds(t0 - start), cfg.seconds, kWindows);
    latency.Add(window, Millis(t1 - t0));
    completed[window] += 1;
    busy[window] += Seconds(t1 - t0);
    engine_ms.push_back(EngineMs(response->stage_timings));
    if (mixed.cls == RequestClass::kMultiStep) {
      rerank_ms.push_back(RerankMs(response->stage_timings));
    }
    counters.Add(mixed.cls, response->stats, response->results.size());
    report->Check(response->results == expected[slot] &&
                      response->epoch == snapshot->epoch(),
                  "mesh_query answer for probe " + std::to_string(p) +
                      " request " + std::to_string(i % per_probe) +
                      " differs from QueryBySignature(ExtractSignature)");
    quality.Add(RecallAt10(response->results, exact_answers[slot]),
                PrecisionAt10(response->results, snapshot->db(),
                              probes.shapes[p].group));
  }
  const double elapsed = Seconds(Clock::now() - start);
  report->SetPhase("measure", elapsed);

  report->SetMetric("setup_s", Median(setup_s), "s");
  latency.AddTo("latency", report);
  report->SetMetric("throughput_per_s", MedianRate(completed, busy), "1/s");
  quality.AddTo(report);
  report->SetMetric("modelgen.input_gen_s", Median(gen_s), "s");
  report->SetMetric("search.engine_ms", Median(engine_ms), "ms");
  report->SetMetric("search.rerank_ms", Median(rerank_ms), "ms");
  report->SetMetric("core.commit_ms", Median(commit_ms), "ms");
  report->SetMetric("core.ingest_us_per_record",
                    Median(ingest_s) * 1e6 / system->db().NumShapes(), "us");
  counters.AddTo(report);
  if (cfg.spans != nullptr) {
    stage_counts.AddTo(report);
    DESS_RETURN_NOT_OK(MeasureIndexBuilds(snapshot, options, report));
  }
  return Status::OK();
}

namespace {

struct ExpectedRecord {
  int id;
  std::string name;
  int group;
  ShapeSignature signature;
};

bool SameRecords(const ShapeDatabase& db,
                 const std::vector<ExpectedRecord>& expected) {
  if (db.NumShapes() != expected.size()) return false;
  size_t i = 0;
  for (const ShapeRecord& record : db.records()) {
    const ExpectedRecord& e = expected[i++];
    if (record.id != e.id || record.name != e.name || record.group != e.group ||
        record.signature.NumSpaces() != e.signature.NumSpaces()) {
      return false;
    }
    for (int s = 0; s < e.signature.NumSpaces(); ++s) {
      if (record.signature.At(s).values != e.signature.At(s).values) {
        return false;
      }
    }
  }
  return true;
}

/// The benchmark's span name for a span the library's tracer recorded, or
/// null for a span that counts toward its parent (the index builds inside a
/// commit, for example).
const char* LayerSpanName(std::string_view library_name) {
  static constexpr std::pair<std::string_view, const char*> kNames[] = {
      {"system.ingest_dataset", "core.ingest"},
      {"system.commit", "core.commit"},
      // The extraction span's own time is largest-component selection, the
      // D2 extractor (split off below) and glue between the stages.
      {"pipeline.extract", "voxel.largest_component"},
      {"stage.normalize", "features.normalize"},
      {"stage.voxelize", "voxel.voxelize"},
      {"stage.fill", "voxel.fill"},
      {"stage.thin", "skeleton.thin"},
      {"stage.graph", "graph.graph_spectrum"},
      {"stage.feature.spectral", "graph.graph_spectrum"},
      {"stage.moments", "features.moments"},
      {"stage.feature.moment_invariants", "features.moments"},
      {"stage.feature.geometric_params", "features.moments"},
      {"stage.feature.principal_moments", "features.moments"},
  };
  for (const auto& [from, to] : kNames) {
    if (from == library_name) return to;
  }
  return nullptr;
}

/// Library threads are numbered apart from the benchmark's own in the
/// Chrome trace.
constexpr int kLibraryThreadBase = 1000;

/// Total time the library recorded into latency histogram `name`, in s.
double HistogramSeconds(const std::string& name) {
  for (const HistogramSample& h :
       MetricsRegistry::Global()->Snapshot().histograms) {
    if (h.name == name) return h.sum_seconds;
  }
  return 0.0;
}

/// Copies the spans the library's tracer recorded after span id
/// `*watermark` into `spans`, under `root` and renamed to the benchmark's
/// layer names, and moves the watermark past them. The D2 extractor records
/// no span, only a latency histogram, so its time over the pass (`d2_s`)
/// is split evenly over the extractions, as a child at the end of each.
void ImportLibrarySpans(SpanRecorder* spans, int64_t root, uint64_t request,
                        double d2_s, uint64_t* watermark) {
  std::vector<Tracer::SpanRecord> records = Tracer::Global()->CollectSpans();
  records.erase(std::remove_if(records.begin(), records.end(),
                               [&](const Tracer::SpanRecord& r) {
                                 return r.span_id <= *watermark;
                               }),
                records.end());
  // Span ids grow from parent to child, so parents are copied first.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.span_id < b.span_id; });
  const Clock::time_point epoch =
      Clock::now() - std::chrono::nanoseconds(TraceNowNanos());
  auto at = [&](uint64_t ns) { return epoch + std::chrono::nanoseconds(ns); };
  const double extracts = static_cast<double>(std::count_if(
      records.begin(), records.end(), [](const Tracer::SpanRecord& r) {
        return std::string_view(r.name) == "pipeline.extract";
      }));
  const auto d2 = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(extracts > 0 ? d2_s / extracts : 0.0));
  // Library span id -> (recorder id, benchmark name).
  std::unordered_map<uint64_t, std::pair<int64_t, std::string>> copied;
  for (const Tracer::SpanRecord& r : records) {
    const auto parent = copied.find(r.parent_span_id);
    const char* mapped = LayerSpanName(r.name);
    const std::string name = mapped != nullptr ? mapped
                             : parent != copied.end() ? parent->second.second
                                                      : r.name;
    const Clock::time_point start = at(r.start_ns);
    const Clock::time_point end = at(r.start_ns + r.duration_ns);
    const int thread = kLibraryThreadBase + static_cast<int>(r.tid);
    const int64_t id = spans->Add(
        name, start, end,
        parent != copied.end() ? parent->second.first : root, request, thread);
    copied[r.span_id] = {id, name};
    if (std::string_view(r.name) == "pipeline.extract") {
      spans->Add("features.d2", std::max(start, end - d2), end, id, request,
                 thread);
    }
    *watermark = std::max(*watermark, r.span_id);
  }
}

}  // namespace

// bulk_ingest: the 113-shape dataset ingested at voxel resolution 64 with
// one worker per two cores, then a full commit, into a fresh system per pass.
Status RunBulkIngest(const RunConfig& cfg, Report* report) {
  const SystemOptions options = MeshSystemOptions(64);
  Dataset dataset;
  std::vector<double> setup_s;
  for (int r = 0; r < SetupRepeats(cfg); ++r) {
    const Clock::time_point t0 = Clock::now();
    DESS_ASSIGN_OR_RETURN(Dataset generated,
                          BuildStandardDataset({.seed = cfg.seed}));
    setup_s.push_back(Seconds(Clock::now() - t0));
    dataset = std::move(generated);
  }
  report->SetPhase("setup", Median(setup_s));

  const Clock::time_point ref_start = Clock::now();
  std::vector<ExpectedRecord> expected;
  {
    Dess3System reference(options);
    DESS_RETURN_NOT_OK(
        reference.IngestDataset(dataset, IngestOptions{.num_threads = 1}));
    for (const ShapeRecord& record : reference.db().records()) {
      expected.push_back(
          {record.id, record.name, record.group, record.signature});
    }
  }
  if (cfg.perturb && !expected.empty()) {
    double& v = expected[0].signature.MutableAt(0).values.at(0);
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
  }
  report->SetPhase("reference", Seconds(Clock::now() - ref_start));

  // A pass is one sample, too coarse for per-window quantiles: latency is
  // summarised over all passes, throughput per window.
  WindowedLatency latency(1);
  std::vector<double> shapes_in(kWindows, 0.0), busy_in(kWindows, 0.0);
  std::vector<double> ingest_s, commit_ms;
  std::unique_ptr<Dess3System> last;
  // Traced passes run exactly as untraced ones, with the library's own
  // tracer switched on; its spans are copied in after each pass.
  const std::string d2_histogram = std::string("stage.feature.") + kD2SpaceId;
  uint64_t watermark = 0;
  // Half the cores: with every core busy, a pass waits on whichever core a
  // neighbour on the host is slowing, and run-to-run spread doubles.
  const int workers = std::max(
      2, static_cast<int>(std::thread::hardware_concurrency()) / 2);
  report->SetInfo("bulk_ingest_workers", std::to_string(workers));
  const auto budget = std::chrono::duration<double>(cfg.seconds);
  const Clock::time_point start = Clock::now();
  for (uint64_t pass = 0; pass == 0 || Clock::now() - start < budget;
       ++pass) {
    auto system = std::make_unique<Dess3System>(options);
    double d2_before = 0.0;
    int64_t root = -1;
    if (cfg.spans != nullptr) {
      d2_before = HistogramSeconds(d2_histogram);
      root = cfg.spans->Begin("core.ingest_pass", -1, pass);
      Tracer::Global()->SetSampleRate(1);
    }
    const Clock::time_point t0 = Clock::now();
    Status status =
        system->IngestDataset(dataset, IngestOptions{.num_threads = workers});
    const Clock::time_point t1 = Clock::now();
    if (status.ok()) status = system->Commit().status();
    const Clock::time_point t2 = Clock::now();
    if (cfg.spans != nullptr) {
      Tracer::Global()->SetSampleRate(0);
      cfg.spans->End(root);
      ImportLibrarySpans(cfg.spans, root, pass,
                         HistogramSeconds(d2_histogram) - d2_before,
                         &watermark);
    }
    report->AddAttempted(1);
    if (!status.ok()) {
      report->AddFailed(1);
      continue;
    }
    latency.Add(0, Millis(t2 - t0));
    const int window = WindowOf(Seconds(t0 - start), cfg.seconds, kWindows);
    shapes_in[window] += static_cast<double>(dataset.shapes.size());
    busy_in[window] += Seconds(t2 - t0);
    ingest_s.push_back(Seconds(t1 - t0));
    commit_ms.push_back(Millis(t2 - t1));
    report->Check(SameRecords(system->db(), expected),
                  "bulk_ingest pass " + std::to_string(pass) +
                      " differs from the num_threads=1 reference ingest");
    last = std::move(system);
  }
  const double elapsed = Seconds(Clock::now() - start);
  report->SetPhase("measure", elapsed);
  if (last == nullptr) return Status::Internal("no bulk_ingest pass succeeded");

  // Retrieval over the last pass's system: every shape queries by id with
  // the mesh_query request set, against an exact linear-scan twin.
  const Clock::time_point check_start = Clock::now();
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        last->CurrentSnapshot());
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<SearchEngine> exact,
                        BuildExactTwin(*snapshot, snapshot));
  std::vector<double> engine_ms, rerank_ms;
  IndexCounters counters;
  QualityTally quality;
  for (const ShapeRecord& record : snapshot->db().records()) {
    for (const MixedRequest& mixed :
         MeshProbeRequests(*options.feature_spaces)) {
      DESS_ASSIGN_OR_RETURN(QueryResponse answer,
                            last->QueryByShapeId(record.id, mixed.request));
      DESS_ASSIGN_OR_RETURN(QueryResponse truth,
                            exact->QueryById(record.id, mixed.request));
      engine_ms.push_back(EngineMs(answer.stage_timings));
      if (mixed.cls == RequestClass::kMultiStep) {
        rerank_ms.push_back(RerankMs(answer.stage_timings));
      }
      counters.Add(mixed.cls, answer.stats, answer.results.size());
      quality.Add(RecallAt10(answer.results, truth.results),
                  PrecisionAt10(answer.results, snapshot->db(), record.group));
    }
  }
  report->SetPhase("retrieval_check", Seconds(Clock::now() - check_start));

  report->SetMetric("setup_s", Median(setup_s), "s");
  latency.AddTo("latency", report);
  report->SetMetric("throughput_per_s", MedianRate(shapes_in, busy_in), "1/s");
  quality.AddTo(report);
  report->SetMetric("modelgen.input_gen_s", Median(setup_s), "s");
  report->SetMetric("search.engine_ms", Median(engine_ms), "ms");
  report->SetMetric("search.rerank_ms", Median(rerank_ms), "ms");
  report->SetMetric("core.commit_ms", Median(commit_ms), "ms");
  report->SetMetric("core.ingest_us_per_record",
                    Median(ingest_s) * 1e6 / dataset.shapes.size(), "us");
  counters.AddTo(report);
  if (cfg.spans != nullptr) {
    // Voxel counts of the extraction, from one untimed serial pass.
    StageCounts stage_counts;
    for (const DatasetShape& shape : dataset.shapes) {
      DESS_ASSIGN_OR_RETURN(const ExtractionArtifacts art,
                            ExtractFeatures(shape.mesh, options.extraction));
      stage_counts.Add(art);
    }
    stage_counts.AddTo(report);
    DESS_RETURN_NOT_OK(MeasureIndexBuilds(snapshot, options, report));
  }
  return Status::OK();
}

}  // namespace dess::e2e
