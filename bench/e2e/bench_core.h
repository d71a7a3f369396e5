#ifndef DESS_BENCH_E2E_BENCH_CORE_H_
#define DESS_BENCH_E2E_BENCH_CORE_H_

// Shared pieces of the end-to-end benchmark: the run report, the span
// recorder used by traced runs, the request mix, and the answer checks.
// Everything here drives the library only through its public headers.

#include <sys/prctl.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/system.h"
#include "src/search/query.h"

namespace dess::e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank q-quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Everything one run measured and checked, written as the --out report.
/// Metrics carry their unit; run.py picks the ones BENCHMARK.json names.
class Report {
 public:
  void SetMetric(const std::string& name, double value,
                 const std::string& unit);
  void SetPhase(const std::string& name, double seconds);
  void SetInfo(const std::string& key, const std::string& value);

  /// Records one output check. A failed check counts toward `failed` and
  /// makes the run incorrect.
  void Check(bool ok, const std::string& what);

  /// Operations the workload attempted, and those that failed or were
  /// refused (a refused request counts as missing every latency limit).
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ops_ += n; }

  bool correct() const { return failed_checks_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_ops_ + failed_checks_; }

  /// Appends a raw JSON value under `key` (the traced run's layer table).
  void SetJson(const std::string& key, std::string json);

  std::string ToJson() const;
  /// Prints every metric by name with its unit, then the check summary.
  void Print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, double>> phases_;
  std::map<std::string, std::string> info_;
  std::map<std::string, std::string> json_;
  std::vector<std::string> check_failures_;
  int64_t checks_ = 0;
  int64_t failed_checks_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ops_ = 0;
};

/// In-memory span recorder for traced runs. Spans are recorded by the
/// benchmark around its calls into each layer, or copied in from the
/// library's own tracer (bulk_ingest). A span's name is "<layer>.<stage>",
/// the layer being the src/ module the call goes into.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span starting now; returns its id.
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request);
  /// Closes a span opened by Begin.
  void End(int64_t id);
  /// Records a span whose bounds were measured elsewhere (for example an
  /// engine interval reported inside a reply, or a span the library's own
  /// tracer recorded). `thread` < 0 means the calling thread.
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request,
              int thread = -1);

  /// Per span name: count, total and self time. Self time is the span's
  /// duration minus the part of it its children cover.
  std::string LayerTableJson() const;
  void PrintLayerTable() const;

  /// Self time per span name over the trees rooted at spans named `root`,
  /// as a percentage of the self time of those trees. For a tree run on
  /// one thread that total is the root's duration; for a tree whose
  /// children ran on several threads it is their thread time.
  std::map<std::string, double> SelfShares(const std::string& root) const;

  /// Writes the spans as Chrome-trace JSON (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent;
    uint64_t request;
    int thread;
  };
  struct Row {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::vector<double> SelfTimesMs() const;
  std::map<std::string, Row> Rows() const;

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null recorder (untraced run) makes it a no-op.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name, int64_t parent,
            uint64_t request)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, request) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

/// The request classes the index-layer counters are split by.
enum class RequestClass { kTopK, kMultiStep, kD2, kThreshold, kWeighted };
inline constexpr int kNumRequestClasses = 5;
const char* RequestClassName(RequestClass c);

/// One request of the benchmark's mix.
struct MixedRequest {
  RequestClass cls;
  QueryRequest request;
};

/// The by-signature request mix: slot i of every ten requests is 4x TopK
/// over the canonical spaces (rotating), 2x MultiStep Standard(30, 10),
/// 2x TopK on d2_distribution, 1x Threshold geometric >= 0.95, 1x weighted
/// TopK on moment_invariants.
MixedRequest SignatureMixRequest(int index);

/// The query-by-mesh set sent for every probe: TopK k=10 on each space of
/// `registry`, then MultiStep Standard(30, 10).
std::vector<MixedRequest> MeshProbeRequests(
    const FeatureSpaceRegistry& registry);

/// Work counters of the index layer, per request class.
class IndexCounters {
 public:
  void Add(RequestClass cls, const QueryStats& stats, size_t results);
  void AddTo(Report* report) const;

 private:
  struct Sums {
    double queries = 0, points = 0, nodes = 0, batches = 0, results = 0;
  };
  Sums sums_[kNumRequestClasses];
};

/// Retrieval quality of one answer: recall@10 against an exact reference
/// and precision@10 against the probe's family. Negative when undefined
/// (empty reference; ungrouped probe).
double RecallAt10(const std::vector<SearchResult>& answer,
                  const std::vector<SearchResult>& exact);
double PrecisionAt10(const std::vector<SearchResult>& answer,
                     const ShapeDatabase& db, int probe_group);

/// Running means of recall/precision that skip undefined samples.
struct QualityTally {
  double recall_sum = 0, precision_sum = 0;
  int64_t recall_n = 0, precision_n = 0;
  void Add(double recall, double precision);
  void AddTo(Report* report) const;
};

/// Moves the first result's distance of a reference answer by one ulp (or
/// adds a result to an empty one), so a working checker must reject the
/// answer the system gives (--perturb-check).
void PerturbAnswer(std::vector<SearchResult>* answer);

/// Engine time of one reply: the sum of its stage timings, in ms.
double EngineMs(const std::vector<StageTiming>& timings);
/// Re-rank stage time of one reply, in ms (0 for single-stage requests).
double RerankMs(const std::vector<StageTiming>& timings);

/// An exact linear-scan engine over `snapshot`'s records and calibration:
/// the reference for recall@10.
Result<std::unique_ptr<SearchEngine>> BuildExactTwin(
    const SystemSnapshot& snapshot,
    std::shared_ptr<const SystemSnapshot> owner);

/// Times SearchEngine::Build and BuildHierarchy over `snapshot`'s records
/// (traced runs only) and records core.engine_build_s /
/// core.hierarchy_build_s.
Status MeasureIndexBuilds(std::shared_ptr<const SystemSnapshot> snapshot,
                          const SystemOptions& options, Report* report);

/// Latency samples of one phase split into consecutive time windows (or
/// rounds). The reported p50/p90 are medians over windows of each window's
/// quantile, so outside interference that slows part of a run moves one
/// window instead of the run's number; p99 is taken over all samples.
class WindowedLatency {
 public:
  explicit WindowedLatency(int windows) : windows_(windows) {}
  void Add(int window, double ms);

  /// Metrics `<prefix>_p50_ms` and `_p90_ms` (medians over windows),
  /// `_p99_ms` (all samples) and `<prefix>_samples`.
  void AddTo(const std::string& prefix, Report* report) const;

 private:
  /// Median over non-empty windows of the windows' q-quantiles.
  double MedianOfWindows(double q) const;

  std::vector<std::vector<double>> windows_;
};

/// Window of an event `elapsed` seconds into a phase of `seconds` split into
/// `windows` equal windows (events past the end fall in the last one).
int WindowOf(double elapsed, double seconds, int windows);

/// Number of windows a measured phase is split into.
inline constexpr int kWindows = 5;

/// Calls that start more than this after their due time count as late
/// sends of the load generator.
inline constexpr auto kLateSend = std::chrono::milliseconds(1);

/// Open-loop pacing: call k of `n` is due at start + k / rate, however long
/// the earlier calls took. Sleeps until each due time, then runs
/// `call(k, due)`; stops early when a call returns false. Returns how many
/// calls started more than kLateSend after their due time.
template <typename Call>
int64_t RunPaced(Clock::time_point start, double rate, size_t n,
                 Call&& call) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  // Linux lets a sleep overrun by the thread's timer slack, 50 us by
  // default, which made calls start about 60 us late: a third of a served
  // request's median latency. A 1 ns slack keeps them on time.
  const int slack = prctl(PR_GET_TIMERSLACK);
  prctl(PR_SET_TIMERSLACK, 1);
  int64_t late = 0;
  for (size_t k = 0; k < n; ++k) {
    const Clock::time_point due = start + period * static_cast<int64_t>(k);
    std::this_thread::sleep_until(due);
    if (Clock::now() - due > kLateSend) ++late;
    if (!call(k, due)) break;
  }
  prctl(PR_SET_TIMERSLACK, slack);
  return late;
}

/// Median over windows of work / busy seconds, skipping idle windows.
double MedianRate(const std::vector<double>& work,
                  const std::vector<double>& seconds);

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// Settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  /// Corrupt one reference answer so the checker must fail (self-test).
  bool perturb = false;
  /// Directory for the durable homes the workload creates.
  std::string work_dir;
  /// Non-null in a traced run.
  SpanRecorder* spans = nullptr;
};

/// Set-up is repeated this many times per run; setup_s is the median.
inline int SetupRepeats(const RunConfig& cfg) { return cfg.smoke ? 1 : 3; }

/// Registry of the canonical four spaces plus the D2 shape distribution.
std::shared_ptr<const FeatureSpaceRegistry> CanonicalPlusD2();

Status RunMeshQuery(const RunConfig& cfg, Report* report);
Status RunBulkIngest(const RunConfig& cfg, Report* report);
Status RunServedSignature(const RunConfig& cfg, Report* report);
Status RunIngestMixed(const RunConfig& cfg, Report* report);

}  // namespace dess::e2e

#endif  // DESS_BENCH_E2E_BENCH_CORE_H_
