// dess_bench: runs one workload of the end-to-end benchmark in this process,
// checks every answer it gets, and writes a JSON report.
//
// Usage:
//   dess_bench --workload=<name> --seed=<n> --out=<report.json>
//              [--seconds=<s>] [--trace=<spans.json>] [--smoke]
//              [--perturb-check] [--commit=<id>] [--work-dir=<dir>]
//
// Workloads: mesh_query, served_signature, ingest_mixed, bulk_ingest (see
// README.md). --trace records spans around every call into a layer and
// writes them as Chrome-trace JSON; end-to-end numbers come from untraced
// runs only. --smoke shrinks the inputs and allows a non-Release build.
// --perturb-check corrupts one reference answer, so a working checker must
// make the run fail. The exit code is non-zero when any check fails.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench/e2e/bench_core.h"
#include "src/common/trace.h"

namespace {

using namespace dess;
using namespace dess::e2e;

struct Workload {
  const char* name;
  Status (*run)(const RunConfig&, Report*);
  /// The spans that enclose one operation in a traced run (null when
  /// unused); per-layer shares are taken over the trees under each.
  const char* op_spans[2];
};

constexpr Workload kWorkloads[] = {
    {"mesh_query", RunMeshQuery, {"core.query_by_mesh", nullptr}},
    {"served_signature", RunServedSignature, {"serve.request", nullptr}},
    {"ingest_mixed", RunIngestMixed, {"core.executor_request", "core.write"}},
    {"bulk_ingest", RunBulkIngest, {"core.ingest_pass", nullptr}},
};

// Spans whose self time is reported as a share of operation time. The two
// request spans' self time is what their children do not cover: time
// outside the engine on the wire, and executor queueing.
constexpr const char* kShareSpans[] = {
    "features.normalize",  "voxel.voxelize",    "voxel.fill",
    "voxel.largest_component", "skeleton.thin", "graph.graph_spectrum",
    "features.moments",    "features.d2",       "search.engine",
    "core.ingest",         "core.commit",       "core.executor_request",
    "serve.request"};

// Work counters of layers that only some workloads exercise; a workload
// that never reaches the layer reports zero.
constexpr const char* kLayerCounts[] = {
    "voxel.solid_voxels_per_shape", "skeleton.skeleton_voxels_per_shape",
    "core.compactions",             "core.replayed_records",
    "serve.rejected_overload",      "serve.rejected_deadline",
    "generator.late_sends"};
constexpr const char* kLayerBytes[] = {
    "core.wal_bytes_per_record", "core.snapshot_bytes", "serve.request_bytes",
    "serve.response_bytes"};

std::string LoadAverage() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "unknown";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %.2f %.2f", load[0], load[1], load[2]);
  return buf;
}

// CPU time the hypervisor gave to other guests while this machine's virtual
// CPUs were runnable, in seconds since boot; -1 without /proc/stat.
double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> cpu) || cpu != "cpu") return -1.0;
  for (double& f : fields) stat >> f;
  return stat ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : -1.0;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "dess_bench: %s\nusage: dess_bench --workload=<mesh_query|"
               "served_signature|ingest_mixed|bulk_ingest> --seed=<n> "
               "--out=<report.json> [--seconds=<s>] [--trace=<spans.json>] "
               "[--smoke] [--perturb-check] [--commit=<id>] "
               "[--work-dir=<dir>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string out_path, trace_path, commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      cfg.workload = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      cfg.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
      if (!have_seed) return Usage("--seed must be a non-negative integer");
    } else if (const char* v = value("--seconds=")) {
      char* end = nullptr;
      cfg.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(cfg.seconds > 0) ||
          cfg.seconds > 600) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (const char* v = value("--out=")) {
      out_path = v;
    } else if (const char* v = value("--trace=")) {
      trace_path = v;
    } else if (const char* v = value("--commit=")) {
      commit = v;
    } else if (const char* v = value("--work-dir=")) {
      cfg.work_dir = v;
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--perturb-check") {
      cfg.perturb = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed) return Usage("missing --seed");
  if (out_path.empty()) return Usage("missing --out");

  const std::string build_type = DESS_BENCH_BUILD_TYPE;
  if (build_type != "Release" && !cfg.smoke) {
    std::fprintf(stderr,
                 "dess_bench: refusing to record a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release or pass --smoke\n",
                 build_type.c_str());
    return 2;
  }
  if (cfg.work_dir.empty()) cfg.work_dir = out_path + ".work";
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir: " + ec.message()).c_str());

  Report report;
  report.SetInfo("workload", cfg.workload);
  report.SetInfo("seed", std::to_string(cfg.seed));
  report.SetInfo("seconds", std::to_string(cfg.seconds));
  report.SetInfo("smoke", cfg.smoke ? "true" : "false");
  report.SetInfo("traced", trace_path.empty() ? "false" : "true");
  report.SetInfo("git_commit", commit);
  report.SetInfo("build_type", build_type);
  report.SetInfo("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.SetInfo("loadavg_start", LoadAverage());
  const double steal_start = HostStealSeconds();
  for (const char* name : kLayerCounts) report.SetMetric(name, 0.0, "count");
  for (const char* name : kLayerBytes) report.SetMetric(name, 0.0, "bytes");

  SpanRecorder recorder;
  if (!trace_path.empty()) cfg.spans = &recorder;
  // The library's own tracer stays off (whatever DESS_TRACE_SAMPLE says);
  // a traced bulk_ingest switches it on around its passes.
  Tracer::Global()->SetSampleRate(0);
  const Clock::time_point start = Clock::now();
  const Status status = workload->run(cfg, &report);
  report.SetPhase("total", Seconds(Clock::now() - start));
  report.SetInfo("loadavg_end", LoadAverage());
  report.SetInfo("host_steal_s",
                 std::to_string(HostStealSeconds() - steal_start));
  report.Check(status.ok(), "workload ran: " + status.ToString());
  report.SetMetric("peak_rss_mb", PeakRssMb(), "MB");

  if (cfg.spans != nullptr) {
    std::map<std::string, double> shares;
    for (const char* root : workload->op_spans) {
      if (root != nullptr) shares.merge(recorder.SelfShares(root));
    }
    for (const char* span : kShareSpans) {
      const auto it = shares.find(span);
      report.SetMetric(std::string(span) + "_share",
                       it == shares.end() ? 0.0 : it->second, "%");
    }
    report.SetJson("layer_self_time", recorder.LayerTableJson());
    report.Check(recorder.WriteChromeTrace(trace_path),
                 "trace written to " + trace_path);
  }
  std::filesystem::remove(cfg.work_dir, ec);  // only if the run left it empty

  std::ofstream out(out_path, std::ios::trunc);
  out << report.ToJson();
  out.close();
  if (!out) {
    std::fprintf(stderr, "dess_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("dess_bench %s seed=%llu seconds=%g build=%s%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, build_type.c_str(),
              cfg.spans != nullptr ? " traced" : "");
  report.Print();
  if (cfg.spans != nullptr) recorder.PrintLayerTable();
  return report.correct() ? 0 : 1;
}
