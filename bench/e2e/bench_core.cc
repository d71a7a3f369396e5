#include "bench/e2e/bench_core.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/cluster/hierarchy.h"
#include "src/features/shape_distribution.h"
#include "src/index/index_backend.h"

namespace dess::e2e {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Full precision, so repeated runs never collapse to one printed value.
std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// --- Report ----------------------------------------------------------------

void Report::SetMetric(const std::string& name, double value,
                       const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit};
}

void Report::SetPhase(const std::string& name, double seconds) {
  phases_.emplace_back(name, seconds);
}

void Report::SetInfo(const std::string& key, const std::string& value) {
  info_[key] = value;
}

void Report::SetJson(const std::string& key, std::string json) {
  json_[key] = std::move(json);
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  ++failed_checks_;
  if (check_failures_.size() < 20) check_failures_.push_back(what);
}

std::string Report::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"correct\": " << (correct() ? "true" : "false")
     << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": "
     << failed() << ",\n  \"checks\": " << checks_
     << ",\n  \"failed_checks\": " << failed_checks_
     << ",\n  \"check_failures\": [";
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(check_failures_[i]);
  }
  os << "],\n  \"context\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    os << (first ? "" : ", ") << JsonString(key) << ": " << JsonString(value);
    first = false;
  }
  os << "},\n  \"phases_s\": {";
  first = true;
  for (const auto& [name, seconds] : phases_) {
    os << (first ? "" : ", ") << JsonString(name) << ": "
       << JsonNumber(seconds);
    first = false;
  }
  os << "},\n  \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : metrics_) {
    os << (first ? "\n    " : ",\n    ") << JsonString(name)
       << ": {\"value\": " << JsonNumber(metric.value)
       << ", \"unit\": " << JsonString(metric.unit) << "}";
    first = false;
  }
  os << "\n  }";
  for (const auto& [key, json] : json_) {
    os << ",\n  " << JsonString(key) << ": " << json;
  }
  os << "\n}\n";
  return os.str();
}

void Report::Print() const {
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-48s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("checks: %" PRId64 " run, %" PRId64 " failed; operations: %"
              PRId64 " attempted, %" PRId64 " failed\n",
              checks_, failed_checks_, attempted_, failed_ops_);
  for (const std::string& what : check_failures_) {
    std::printf("  FAILED CHECK: %s\n", what.c_str());
  }
}

// --- SpanRecorder ------------------------------------------------------------

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            uint64_t request) {
  const Clock::time_point now = Clock::now();
  return Add(name, now, now, parent, request);
}

void SpanRecorder::End(int64_t id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = now;
}

int64_t SpanRecorder::Add(const std::string& name, Clock::time_point start,
                          Clock::time_point end, int64_t parent,
                          uint64_t request, int thread) {
  if (thread < 0) thread = ThreadIndex();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, request, thread});
  return static_cast<int64_t>(spans_.size()) - 1;
}

// Caller holds mu_.
std::vector<double> SpanRecorder::SelfTimesMs() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    for (const size_t c : children[i]) {
      const auto from = std::max(s.start, spans_[c].start);
      const auto to = std::min(s.end, spans_[c].end);
      if (from < to) covered.emplace_back(from, to);
    }
    std::sort(covered.begin(), covered.end());
    Clock::duration busy{0};
    Clock::time_point reach = s.start;
    for (const auto& [from, to] : covered) {
      const auto begin = std::max(from, reach);
      if (to > begin) {
        busy += to - begin;
        reach = to;
      }
    }
    self[i] = Millis(s.end - s.start) - Millis(busy);
  }
  return self;
}

std::map<std::string, SpanRecorder::Row> SpanRecorder::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimesMs();
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    ++row.count;
    row.total_ms += Millis(spans_[i].end - spans_[i].start);
    row.self_ms += self[i];
  }
  return rows;
}

std::string SpanRecorder::LayerTableJson() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& [name, row] : Rows()) {
    os << (first ? "\n    " : ",\n    ") << "{\"span\": " << JsonString(name)
       << ", \"layer\": " << JsonString(LayerOf(name))
       << ", \"count\": " << row.count
       << ", \"total_ms\": " << JsonNumber(row.total_ms)
       << ", \"self_ms\": " << JsonNumber(row.self_ms)
       << ", \"self_mean_ms\": " << JsonNumber(row.self_ms / row.count) << "}";
    first = false;
  }
  os << "\n  ]";
  return os.str();
}

void SpanRecorder::PrintLayerTable() const {
  std::printf("per-layer self time (traced run):\n"
              "  %-10s %-34s %8s %12s %12s\n",
              "layer", "span", "count", "self_ms", "self_mean_ms");
  for (const auto& [name, row] : Rows()) {
    std::printf("  %-10s %-34s %8" PRId64 " %12.3f %12.5f\n",
                LayerOf(name).c_str(), name.c_str(), row.count, row.self_ms,
                row.self_ms / row.count);
  }
}

std::map<std::string, double> SpanRecorder::SelfShares(
    const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = SelfTimesMs();
  std::vector<int64_t> root_of(spans_.size(), -1);
  // Parents are always recorded before their children.
  for (size_t i = 0; i < spans_.size(); ++i) {
    root_of[i] = spans_[i].parent < 0
                     ? static_cast<int64_t>(i)
                     : root_of[static_cast<size_t>(spans_[i].parent)];
  }
  std::map<std::string, double> shares;
  double total_ms = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[static_cast<size_t>(root_of[i])].name != root) continue;
    shares[spans_[i].name] += self[i];
    total_ms += self[i];
  }
  for (auto& [name, ms] : shares) {
    ms = total_ms > 0.0 ? 100.0 * ms / total_ms : 0.0;
  }
  return shares;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur_us =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (i ? ",\n" : "\n") << "{\"name\": " << JsonString(s.name)
        << ", \"cat\": " << JsonString(LayerOf(s.name))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << JsonNumber(ts_us)
        << ", \"dur\": " << JsonNumber(dur_us) << ", \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- Requests, counters and quality ------------------------------------------

const char* RequestClassName(RequestClass c) {
  switch (c) {
    case RequestClass::kTopK: return "topk";
    case RequestClass::kMultiStep: return "multistep";
    case RequestClass::kD2: return "d2";
    case RequestClass::kThreshold: return "threshold";
    case RequestClass::kWeighted: return "weighted";
  }
  return "unknown";
}

MixedRequest SignatureMixRequest(int index) {
  // Ten slots: 4 canonical TopK, 2 MultiStep, 2 D2 TopK, 1 Threshold and
  // 1 weighted TopK, interleaved so each class recurs at an even pace.
  static constexpr RequestClass kSlots[10] = {
      RequestClass::kTopK,      RequestClass::kMultiStep, RequestClass::kD2,
      RequestClass::kTopK,      RequestClass::kThreshold, RequestClass::kTopK,
      RequestClass::kMultiStep, RequestClass::kD2,        RequestClass::kTopK,
      RequestClass::kWeighted};
  const RequestClass cls = kSlots[index % 10];
  MixedRequest mixed{cls, {}};
  switch (cls) {
    case RequestClass::kTopK:
      mixed.request = QueryRequest::TopK(
          CanonicalSpaceId(static_cast<FeatureKind>((index / 10) % 4)), 10);
      break;
    case RequestClass::kMultiStep:
      mixed.request = QueryRequest::MultiStep(MultiStepPlan::Standard(30, 10));
      break;
    case RequestClass::kD2:
      mixed.request = QueryRequest::TopK(std::string(kD2SpaceId), 10);
      break;
    case RequestClass::kThreshold:
      mixed.request = QueryRequest::Threshold(
          CanonicalSpaceId(FeatureKind::kGeometricParams), 0.95);
      break;
    case RequestClass::kWeighted:
      mixed.request = QueryRequest::TopK(
          CanonicalSpaceId(FeatureKind::kMomentInvariants), 10);
      mixed.request.weights = {2.0, 1.0, 0.5};
      break;
  }
  return mixed;
}

std::vector<MixedRequest> MeshProbeRequests(
    const FeatureSpaceRegistry& registry) {
  std::vector<MixedRequest> requests;
  for (int ordinal = 0; ordinal < registry.size(); ++ordinal) {
    const std::string& id = registry.id(ordinal);
    requests.push_back({id == kD2SpaceId ? RequestClass::kD2
                                         : RequestClass::kTopK,
                        QueryRequest::TopK(id, 10)});
  }
  requests.push_back(
      {RequestClass::kMultiStep,
       QueryRequest::MultiStep(MultiStepPlan::Standard(30, 10))});
  return requests;
}

void IndexCounters::Add(RequestClass cls, const QueryStats& stats,
                        size_t results) {
  Sums& s = sums_[static_cast<int>(cls)];
  s.queries += 1;
  s.points += static_cast<double>(stats.points_compared);
  s.nodes += static_cast<double>(stats.nodes_visited);
  s.batches += static_cast<double>(stats.kernel_batches);
  s.results += static_cast<double>(results);
}

void IndexCounters::AddTo(Report* report) const {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  for (int c = 0; c < kNumRequestClasses; ++c) {
    const Sums& s = sums_[c];
    const std::string cls = RequestClassName(static_cast<RequestClass>(c));
    report->SetMetric("index.points_compared_per_query." + cls,
                      ratio(s.points, s.queries), "count");
    report->SetMetric("index.nodes_visited_per_query." + cls,
                      ratio(s.nodes, s.queries), "count");
    report->SetMetric("index.kernel_batches_per_query." + cls,
                      ratio(s.batches, s.queries), "count");
    report->SetMetric("index.rows_examined_per_result." + cls,
                      ratio(s.points, s.results), "count");
  }
}

double RecallAt10(const std::vector<SearchResult>& answer,
                  const std::vector<SearchResult>& exact) {
  const size_t n = std::min<size_t>(10, exact.size());
  if (n == 0) return -1.0;
  // Shapes with equal signatures tie; any of them is a true neighbour, so a
  // hit is a returned shape no farther than the exact 10th neighbour.
  const double kth = exact[n - 1].distance;
  size_t hits = 0;
  for (size_t i = 0; i < answer.size() && i < n; ++i) {
    hits += answer[i].distance <= kth ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

double PrecisionAt10(const std::vector<SearchResult>& answer,
                     const ShapeDatabase& db, int probe_group) {
  if (probe_group < 0 || answer.empty()) return -1.0;
  const size_t n = std::min<size_t>(10, answer.size());
  int same = 0;
  for (size_t i = 0; i < n; ++i) {
    auto record = db.Get(answer[i].id);
    same += record.ok() && (*record)->group == probe_group ? 1 : 0;
  }
  return static_cast<double>(same) / static_cast<double>(n);
}

void QualityTally::Add(double recall, double precision) {
  if (recall >= 0) {
    recall_sum += recall;
    ++recall_n;
  }
  if (precision >= 0) {
    precision_sum += precision;
    ++precision_n;
  }
}

void QualityTally::AddTo(Report* report) const {
  report->Check(recall_n > 0 && precision_n > 0,
                "recall and precision have samples");
  report->SetMetric("recall_at_10", recall_n ? recall_sum / recall_n : 0.0,
                    "share");
  report->SetMetric("precision_at_10",
                    precision_n ? precision_sum / precision_n : 0.0, "share");
}

void PerturbAnswer(std::vector<SearchResult>* answer) {
  if (answer->empty()) {
    answer->push_back(SearchResult{});
    return;
  }
  double& d = answer->front().distance;
  d = std::nextafter(d, std::numeric_limits<double>::infinity());
}

double EngineMs(const std::vector<StageTiming>& timings) {
  double seconds = 0.0;
  for (const StageTiming& t : timings) seconds += t.seconds;
  return seconds * 1e3;
}

double RerankMs(const std::vector<StageTiming>& timings) {
  double seconds = 0.0;
  for (const StageTiming& t : timings) {
    if (t.stage == "search.rerank") seconds += t.seconds;
  }
  return seconds * 1e3;
}

Result<std::unique_ptr<SearchEngine>> BuildExactTwin(
    const SystemSnapshot& snapshot,
    std::shared_ptr<const SystemSnapshot> owner) {
  const SearchEngine& engine = snapshot.engine();
  SearchEngineOptions options = engine.options();
  options.backend = IndexBackend::kLinearScan;
  options.use_rtree = false;
  options.index_backend = kLinearScanBackendId;
  options.registry = engine.shared_registry();
  std::vector<SimilaritySpace> spaces;
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    spaces.push_back(engine.SpaceAt(ordinal));
  }
  // The aliasing pointer keeps the snapshot (and so its record view) alive.
  std::shared_ptr<const ShapeDatabase> db(std::move(owner), &snapshot.db());
  return SearchEngine::Rebuild(std::move(db), options, std::move(spaces));
}

Status MeasureIndexBuilds(std::shared_ptr<const SystemSnapshot> snapshot,
                          const SystemOptions& options, Report* report) {
  SearchEngineOptions search = options.search;
  if (search.registry == nullptr) search.registry = options.feature_spaces;
  std::shared_ptr<const ShapeDatabase> db(snapshot, &snapshot->db());
  const Clock::time_point start = Clock::now();
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<SearchEngine> engine,
                        SearchEngine::Build(db, search));
  report->SetMetric("core.engine_build_s", Seconds(Clock::now() - start),
                    "s");
  Clock::duration hierarchy{0};
  for (int ordinal = 0; ordinal < engine->NumSpaces(); ++ordinal) {
    std::vector<std::vector<double>> points;
    points.reserve(db->NumShapes());
    for (const ShapeRecord& record : db->records()) {
      points.push_back(engine->SpaceAt(ordinal).Standardize(
          record.signature.At(ordinal).values));
    }
    const Clock::time_point t0 = Clock::now();
    DESS_RETURN_NOT_OK(BuildHierarchy(points, options.hierarchy).status());
    hierarchy += Clock::now() - t0;
  }
  report->SetMetric("core.hierarchy_build_s", Seconds(hierarchy), "s");
  return Status::OK();
}

void WindowedLatency::Add(int window, double ms) {
  windows_[static_cast<size_t>(window)].push_back(ms);
}

double WindowedLatency::MedianOfWindows(double q) const {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows_) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Median(std::move(per_window));
}

void WindowedLatency::AddTo(const std::string& prefix, Report* report) const {
  std::vector<double> all;
  for (const std::vector<double>& w : windows_) {
    all.insert(all.end(), w.begin(), w.end());
  }
  report->SetMetric(prefix + "_p50_ms", MedianOfWindows(0.50), "ms");
  report->SetMetric(prefix + "_p90_ms", MedianOfWindows(0.90), "ms");
  report->SetMetric(prefix + "_p99_ms", Quantile(all, 0.99), "ms");
  report->SetMetric(prefix + "_samples", static_cast<double>(all.size()),
                    "count");
}

int WindowOf(double elapsed, double seconds, int windows) {
  const int w = static_cast<int>(elapsed / seconds * windows);
  return std::clamp(w, 0, windows - 1);
}

double MedianRate(const std::vector<double>& work,
                  const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (size_t w = 0; w < work.size(); ++w) {
    if (seconds[w] > 0) rates.push_back(work[w] / seconds[w]);
  }
  return Median(std::move(rates));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::shared_ptr<const FeatureSpaceRegistry> CanonicalPlusD2() {
  auto registry = std::make_shared<FeatureSpaceRegistry>();
  (void)registry->Register(MakeD2SpaceDef());
  return registry;
}

}  // namespace dess::e2e
