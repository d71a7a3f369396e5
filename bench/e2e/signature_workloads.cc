// The two workloads over pre-extracted signature corpora, where the index,
// executor, snapshot and serving layers do all the work: served_signature
// (by-signature requests over the wire) and ingest_mixed (a durable writer
// beside an open-loop reader).

#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>

#include "bench/e2e/bench_core.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/core/wal.h"
#include "src/modelgen/signature_corpus.h"
#include "src/serve/client.h"
#include "src/serve/server.h"

namespace dess::e2e {
namespace {

namespace fs = std::filesystem;

constexpr int kMembers = 100;  // records per group stored in the database
constexpr int kHeldOut = 5;    // extra members per group kept as probes

struct SplitCorpus {
  std::vector<ShapeRecord> records;  // group-major, kMembers per group
  std::vector<ShapeRecord> probes;   // held-out members, seed-shuffled
};

Result<SplitCorpus> MakeSplitCorpus(
    int groups, uint64_t seed,
    std::shared_ptr<const FeatureSpaceRegistry> registry) {
  DESS_ASSIGN_OR_RETURN(
      std::vector<ShapeRecord> all,
      MakeSignatureCorpus({.num_groups = groups,
                           .group_size = kMembers + kHeldOut,
                           .seed = seed},
                          std::move(registry)));
  SplitCorpus corpus;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % (kMembers + kHeldOut) < kMembers ? corpus.records : corpus.probes)
        .push_back(std::move(all[i]));
  }
  Rng rng(seed ^ 0x5eed5eedull);
  rng.Shuffle(&corpus.probes);
  return corpus;
}

uint64_t CounterValue(const std::string& name) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global()->Snapshot();
  for (const CounterSample& c : snapshot.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

/// Records a reply's engine interval as a child span at the end of the
/// request span (replies report its length, not its position).
void AddRequestSpans(SpanRecorder* spans, const char* root_name,
                     Clock::time_point start, Clock::time_point end,
                     double engine_ms, uint64_t request) {
  const int64_t root = spans->Add(root_name, start, end, -1, request);
  const auto engine = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(engine_ms));
  spans->Add("search.engine", std::max(start, end - engine), end, root,
             request);
}

// --- served_signature --------------------------------------------------------

/// One prepared request of the rotation and its expected answers.
struct Prepared {
  MixedRequest mixed;
  WireQueryRequest wire;
  int group = -1;
  std::vector<SearchResult> expected;  // CurrentSnapshot()->Query
  std::vector<SearchResult> exact;     // linear-scan twin
};

/// One request/reply exchange on the wire.
struct Exchange {
  size_t slot = 0;  // index into the prepared rotation
  Clock::time_point due, sent, received;
  WireQueryResponse reply;
};

/// Open loop on one connection: exchange k is due at start + k / rate,
/// whether or not earlier replies have arrived.
Result<std::vector<Exchange>> RunOpenLoop(uint16_t port,
                                          const std::vector<Prepared>& rotation,
                                          size_t first, double rate,
                                          double seconds) {
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<Client> client,
                        Client::Connect("127.0.0.1", port));
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::vector<Exchange> exchanges(n);
  std::unordered_map<uint64_t, size_t> pending;
  std::mutex mu;
  Status receive_status;
  std::thread receiver([&] {
    for (size_t got = 0; got < n; ++got) {
      auto reply = client->Receive();
      const Clock::time_point now = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      if (!reply.ok()) {
        receive_status = reply.status();
        return;
      }
      auto it = pending.find(reply->first);
      if (it == pending.end()) {
        receive_status = Status::Internal("reply for an unknown request id");
        return;
      }
      Exchange& e = exchanges[it->second];
      pending.erase(it);
      e.received = now;
      e.reply = std::move(reply->second);
    }
  });
  Status send_status;
  RunPaced(Clock::now(), rate, n, [&](size_t k, Clock::time_point due) {
    std::lock_guard<std::mutex> lock(mu);
    Exchange& e = exchanges[k];
    e.slot = (first + k) % rotation.size();
    e.due = due;
    e.sent = Clock::now();
    auto id = client->Send(rotation[e.slot].wire);
    if (!id.ok()) {
      send_status = id.status();
      return false;
    }
    pending.emplace(*id, k);
    return true;
  });
  receiver.join();
  DESS_RETURN_NOT_OK(send_status);
  DESS_RETURN_NOT_OK(receive_status);
  return exchanges;
}

/// Closed loop on one connection, driven from one thread: `window`
/// requests stay in flight, each reply is answered with the next request
/// until the time is up, and then the remaining replies are drained.
Result<std::vector<Exchange>> RunClosedLoop(
    uint16_t port, const std::vector<Prepared>& rotation, size_t first,
    int window, double seconds, double* elapsed) {
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<Client> client,
                        Client::Connect("127.0.0.1", port));
  std::vector<Exchange> exchanges;
  std::unordered_map<uint64_t, size_t> pending;
  auto send = [&]() -> Status {
    Exchange e;
    e.slot = (first + exchanges.size()) % rotation.size();
    e.due = e.sent = Clock::now();
    DESS_ASSIGN_OR_RETURN(const uint64_t id,
                          client->Send(rotation[e.slot].wire));
    pending.emplace(id, exchanges.size());
    exchanges.push_back(std::move(e));
    return Status::OK();
  };
  const auto budget = std::chrono::duration<double>(seconds);
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < window; ++i) DESS_RETURN_NOT_OK(send());
  Clock::time_point last_reply = start;
  while (!pending.empty()) {
    DESS_ASSIGN_OR_RETURN(auto reply, client->Receive());
    last_reply = Clock::now();
    const auto it = pending.find(reply.first);
    if (it == pending.end()) {
      return Status::Internal("reply for an unknown request id");
    }
    Exchange& e = exchanges[it->second];
    pending.erase(it);
    e.received = last_reply;
    e.reply = std::move(reply.second);
    if (last_reply - start < budget) DESS_RETURN_NOT_OK(send());
  }
  *elapsed = Seconds(last_reply - start);
  return exchanges;
}

/// What the replies of all steps add up to.
struct ServedTally {
  std::vector<double> engine_ms, rerank_ms, outside_engine_ms;
  IndexCounters counters;
  QualityTally quality;
  double request_bytes = 0, response_bytes = 0, answered = 0;
  double rejected_overload = 0, rejected_deadline = 0, late_sends = 0;
  uint64_t next_request = 0;
};

/// Checks and tallies one step's exchanges; returns the latencies (ms, from
/// each exchange's due time) of the answered ones. `spans` (null: untraced)
/// receives a request span per answered exchange.
std::vector<double> Digest(const std::vector<Exchange>& exchanges,
                           const std::vector<Prepared>& rotation,
                           const SystemSnapshot& snapshot, SpanRecorder* spans,
                           ServedTally* tally, Report* report) {
  std::vector<double> latency_ms;
  for (const Exchange& e : exchanges) {
    report->AddAttempted(1);
    const uint64_t request = tally->next_request++;
    if (e.sent - e.due > kLateSend) tally->late_sends += 1;
    if (!e.reply.ok()) {
      report->AddFailed(1);
      if (e.reply.code() == StatusCode::kResourceExhausted) {
        tally->rejected_overload += 1;
      } else if (e.reply.code() == StatusCode::kDeadlineExceeded) {
        tally->rejected_deadline += 1;
      }
      continue;
    }
    const Prepared& p = rotation[e.slot];
    const double engine = EngineMs(e.reply.stage_timings);
    latency_ms.push_back(Millis(e.received - e.due));
    tally->engine_ms.push_back(engine);
    tally->outside_engine_ms.push_back(Millis(e.received - e.sent) - engine);
    if (p.mixed.cls == RequestClass::kMultiStep) {
      tally->rerank_ms.push_back(RerankMs(e.reply.stage_timings));
    }
    tally->counters.Add(p.mixed.cls, e.reply.stats, e.reply.results.size());
    tally->quality.Add(RecallAt10(e.reply.results, p.exact),
                       PrecisionAt10(e.reply.results, snapshot.db(), p.group));
    tally->request_bytes +=
        static_cast<double>(EncodeQueryRequest(p.wire).size() +
                            kFrameHeaderBytes);
    tally->response_bytes +=
        static_cast<double>(EncodeQueryResponse(e.reply).size() +
                            kFrameHeaderBytes);
    tally->answered += 1;
    report->Check(e.reply.results == p.expected &&
                      e.reply.epoch == snapshot.epoch(),
                  "served reply for rotation slot " + std::to_string(e.slot) +
                      " differs from CurrentSnapshot()->Query");
    if (spans != nullptr) {
      AddRequestSpans(spans, "serve.request", e.sent, e.received, engine,
                      request);
    }
  }
  return latency_ms;
}

WireQueryRequest ToWire(const ShapeSignature& signature,
                        const QueryRequest& request) {
  WireQueryRequest wire;
  wire.target = WireQueryRequest::Target::kBySignature;
  wire.signature = signature;
  wire.mode = request.mode;
  wire.kind = request.kind;
  wire.space = request.space;
  wire.k = request.k;
  wire.min_similarity = request.min_similarity;
  wire.weights = request.weights;
  wire.plan = request.plan;
  wire.SetDeadlineBudget(std::chrono::seconds(1));
  return wire;
}

}  // namespace

// served_signature: an in-process Server on loopback over a 20k-record
// signature corpus (canonical four on R-trees, D2 on a linear scan). One
// connection sends the by-signature mix open loop at 500 q/s, then at
// 1000 q/s, then closed loop with 32 requests in flight, in five rounds;
// each step gets a fresh Server.
Status RunServedSignature(const RunConfig& cfg, Report* report) {
  SystemOptions options;
  options.feature_spaces = CanonicalPlusD2();
  const int groups = cfg.smoke ? 100 : 200;
  std::unique_ptr<Dess3System> system;
  std::vector<ShapeRecord> probes;
  std::vector<double> setup_s, gen_s, ingest_s, commit_ms;
  for (int r = 0; r < SetupRepeats(cfg); ++r) {
    const Clock::time_point t0 = Clock::now();
    DESS_ASSIGN_OR_RETURN(SplitCorpus corpus,
                          MakeSplitCorpus(groups, cfg.seed,
                                          options.feature_spaces));
    const Clock::time_point t1 = Clock::now();
    auto next = std::make_unique<Dess3System>(options);
    const double records = static_cast<double>(corpus.records.size());
    for (ShapeRecord& record : corpus.records) {
      DESS_RETURN_NOT_OK(next->Ingest(std::move(record), {}).status());
    }
    const Clock::time_point t2 = Clock::now();
    DESS_RETURN_NOT_OK(next->Commit().status());
    const Clock::time_point t3 = Clock::now();
    setup_s.push_back(Seconds(t3 - t0));
    gen_s.push_back(Seconds(t1 - t0));
    ingest_s.push_back(Seconds(t2 - t1) * 1e6 / records);
    commit_ms.push_back(Millis(t3 - t2));
    system = std::move(next);
    probes = std::move(corpus.probes);
  }
  report->SetPhase("setup", Median(setup_s));

  const Clock::time_point ref_start = Clock::now();
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        system->CurrentSnapshot());
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<SearchEngine> exact,
                        BuildExactTwin(*snapshot, snapshot));
  std::vector<Prepared> rotation(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    Prepared& p = rotation[i];
    p.mixed = SignatureMixRequest(static_cast<int>(i));
    p.wire = ToWire(probes[i].signature, p.mixed.request);
    p.group = probes[i].group;
    DESS_ASSIGN_OR_RETURN(QueryResponse answer,
                          snapshot->Query(probes[i].signature,
                                          p.mixed.request));
    p.expected = std::move(answer.results);
    DESS_ASSIGN_OR_RETURN(QueryResponse truth,
                          exact->Query(probes[i].signature, p.mixed.request));
    p.exact = std::move(truth.results);
  }
  if (cfg.perturb) PerturbAnswer(&rotation[0].expected);
  report->SetPhase("reference", Seconds(Clock::now() - ref_start));

  // The three steps run in rounds, so each step's numbers are medians over
  // rounds spread across the whole run.
  const int rounds = cfg.smoke ? 1 : kWindows;
  ServedTally tally;
  size_t next_slot = 0;
  WindowedLatency base(rounds), loaded(rounds), closed(rounds);
  std::vector<double> closed_done(rounds, 0.0), closed_s(rounds, 0.0);
  std::map<std::string, double> step_s;
  // Runs one step against a fresh server and digests its exchanges into
  // round `r` of `latency`. Only the open-loop steps are traced: queueing
  // behind 32 requests in flight would swamp the per-layer shares.
  auto step = [&](const std::string& name, int r, WindowedLatency* latency,
                  bool traced, auto&& drive) -> Status {
    Server server(system.get());
    DESS_RETURN_NOT_OK(server.Start());
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<Exchange>> exchanges = drive(server.port());
    step_s[name] += Seconds(Clock::now() - t0);
    server.Stop();
    DESS_RETURN_NOT_OK(exchanges.status());
    next_slot += exchanges->size();
    for (const double ms :
         Digest(*exchanges, rotation, *snapshot,
                traced ? cfg.spans : nullptr, &tally, report)) {
      latency->Add(r, ms);
    }
    return Status::OK();
  };
  const double open_s = cfg.seconds * 0.4 / rounds,
               loaded_s = cfg.seconds * 0.3 / rounds,
               closed_step_s = cfg.seconds * 0.3 / rounds;
  for (int r = 0; r < rounds; ++r) {
    DESS_RETURN_NOT_OK(
        step("open_500qps", r, &base, true, [&](uint16_t port) {
          return RunOpenLoop(port, rotation, next_slot, 500, open_s);
        }));
    DESS_RETURN_NOT_OK(
        step("open_1000qps", r, &loaded, true, [&](uint16_t port) {
          return RunOpenLoop(port, rotation, next_slot, 1000, loaded_s);
        }));
    DESS_RETURN_NOT_OK(
        step("closed_32_in_flight", r, &closed, false, [&](uint16_t port) {
          auto exchanges = RunClosedLoop(port, rotation, next_slot, 32,
                                         closed_step_s, &closed_s[r]);
          if (exchanges.ok()) {
            closed_done[r] = static_cast<double>(exchanges->size());
          }
          return exchanges;
        }));
  }
  for (const auto& [name, seconds] : step_s) report->SetPhase(name, seconds);

  report->SetMetric("setup_s", Median(setup_s), "s");
  base.AddTo("latency", report);
  loaded.AddTo("latency_1000qps", report);
  closed.AddTo("latency_closed_loop", report);
  report->SetMetric("throughput_per_s", MedianRate(closed_done, closed_s),
                    "1/s");
  tally.quality.AddTo(report);
  report->SetMetric("modelgen.input_gen_s", Median(gen_s), "s");
  report->SetMetric("search.engine_ms", Median(tally.engine_ms), "ms");
  report->SetMetric("search.rerank_ms", Median(tally.rerank_ms), "ms");
  report->SetMetric("serve.outside_engine_p50_ms",
                    Median(tally.outside_engine_ms), "ms");
  report->SetMetric("core.commit_ms", Median(commit_ms), "ms");
  report->SetMetric("core.ingest_us_per_record", Median(ingest_s), "us");
  const double answered = std::max(1.0, tally.answered);
  report->SetMetric("serve.request_bytes", tally.request_bytes / answered,
                    "bytes");
  report->SetMetric("serve.response_bytes", tally.response_bytes / answered,
                    "bytes");
  report->SetMetric("serve.rejected_overload", tally.rejected_overload,
                    "count");
  report->SetMetric("serve.rejected_deadline", tally.rejected_deadline,
                    "count");
  report->SetMetric("generator.late_sends", tally.late_sends, "count");
  tally.counters.AddTo(report);
  if (cfg.spans != nullptr) {
    DESS_RETURN_NOT_OK(MeasureIndexBuilds(snapshot, options, report));
  }
  return Status::OK();
}

// --- ingest_mixed ------------------------------------------------------------

namespace {

/// One reader query of the mixed phase.
struct Read {
  size_t probe = 0;
  Clock::time_point due, submitted, done;
  bool accepted = false;
  bool ok = false;
  QueryResponse response;
};

struct Write {
  Clock::time_point start, end;
  bool commit = false;  // a delta commit rather than an Ingest call
};

}  // namespace

// ingest_mixed: a durable home with 10k committed records. A writer ingests
// 1000 records/s (async WAL) with a delta commit every 100 records while a
// reader sends 500 queries/s open loop through the query executor. Then the
// home is closed, reopened and verified.
Status RunIngestMixed(const RunConfig& cfg, Report* report) {
  SystemOptions options;
  options.feature_spaces = CanonicalPlusD2();
  constexpr double kWriteRate = 1000.0, kReadRate = 500.0;
  constexpr size_t kCommitEvery = 100;
  const int setup_groups = cfg.smoke ? 20 : 100;
  const size_t setup_records = static_cast<size_t>(setup_groups) * kMembers;
  const size_t writes = std::max<size_t>(
      kCommitEvery,
      static_cast<size_t>(std::llround(kWriteRate * cfg.seconds)));
  const int groups =
      setup_groups + static_cast<int>((writes + kMembers - 1) / kMembers);
  const IngestOptions ingest{.num_threads = 1,
                             .durability = WriteAheadLog::Durability::kAsync};

  std::unique_ptr<Dess3System> system;
  SplitCorpus corpus;
  std::string home;
  std::vector<std::string> homes;
  std::vector<double> setup_s, gen_s, ingest_us, commit_ms;
  for (int r = 0; r < SetupRepeats(cfg); ++r) {
    const std::string dir =
        cfg.work_dir + "/ingest_mixed_home_" + std::to_string(r);
    fs::remove_all(dir);
    homes.push_back(dir);
    const Clock::time_point t0 = Clock::now();
    DESS_ASSIGN_OR_RETURN(SplitCorpus generated,
                          MakeSplitCorpus(groups, cfg.seed,
                                          options.feature_spaces));
    const Clock::time_point t1 = Clock::now();
    DESS_ASSIGN_OR_RETURN(std::unique_ptr<Dess3System> next,
                          Dess3System::Open(dir, {}, options));
    for (size_t i = 0; i < setup_records; ++i) {
      DESS_RETURN_NOT_OK(
          next->Ingest(std::move(generated.records[i]), ingest).status());
    }
    const Clock::time_point t2 = Clock::now();
    DESS_RETURN_NOT_OK(next->Commit().status());
    const Clock::time_point t3 = Clock::now();
    setup_s.push_back(Seconds(t3 - t0));
    gen_s.push_back(Seconds(t1 - t0));
    ingest_us.push_back(Seconds(t2 - t1) * 1e6 /
                        static_cast<double>(setup_records));
    commit_ms.push_back(Millis(t3 - t2));
    system = std::move(next);
    corpus = std::move(generated);
    home = dir;
  }
  report->SetPhase("setup", Median(setup_s));
  QueryExecutor& executor = system->Executor();

  const size_t num_reads = std::max<size_t>(
      1, static_cast<size_t>(std::llround(kReadRate * cfg.seconds)));
  std::vector<Read> reads(num_reads);
  std::vector<Write> log;
  log.reserve(writes + writes / kCommitEvery + 1);
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  Status writer_status;
  CommitReceipt last_receipt;
  double writer_late_ms = 0.0, reader_late_ms = 0.0;
  int64_t reader_late_sends = 0;
  Clock::time_point writer_end;
  const uint64_t compactions_before = CounterValue("system.compactions");

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  // The writer's lateness is the system's doing (a compaction stall holds
  // it up) and shows in writer_late_max_ms; only the reader's counts as
  // the load generator's.
  std::thread writer([&] {
    RunPaced(
        start, kWriteRate, writes, [&](size_t j, Clock::time_point due) {
          const Clock::time_point t0 = Clock::now();
          writer_late_ms = std::max(writer_late_ms, Millis(t0 - due));
          Status st = system
                          ->Ingest(std::move(corpus.records[setup_records + j]),
                                   ingest)
                          .status();
          const Clock::time_point t1 = Clock::now();
          log.push_back({t0, t1, false});
          if (st.ok() && ((j + 1) % kCommitEvery == 0 || j + 1 == writes)) {
            Result<CommitReceipt> receipt =
                system->Commit({.mode = CommitMode::kDelta});
            log.push_back({t1, Clock::now(), true});
            if (receipt.ok()) {
              last_receipt = *receipt;
            } else {
              st = receipt.status();
            }
          }
          writer_status = st;
          return st.ok();
        });
    writer_end = Clock::now();
  });

  const size_t num_probes = corpus.probes.size();
  size_t accepted = 0;
  reader_late_sends = RunPaced(
      start, kReadRate, num_reads, [&](size_t i, Clock::time_point due) {
        Read& read = reads[i];
        read.probe = i % num_probes;
        read.due = due;
        read.submitted = Clock::now();
        reader_late_ms = std::max(reader_late_ms, Millis(read.submitted - due));
        read.accepted = executor.TrySubmitQuery(
            corpus.probes[read.probe].signature,
            SignatureMixRequest(static_cast<int>(read.probe)).request,
            [&, i](Result<QueryResponse> response) {
              const Clock::time_point now = Clock::now();
              std::lock_guard<std::mutex> lock(mu);
              reads[i].done = now;
              reads[i].ok = response.ok();
              if (response.ok()) {
                reads[i].response = std::move(response).value();
              }
              ++completed;
              cv.notify_all();
            });
        if (read.accepted) ++accepted;
        return true;
      });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == accepted; });
  }
  writer.join();
  const double mixed_s = Seconds(Clock::now() - start);
  report->SetPhase("mixed", mixed_s);
  DESS_RETURN_NOT_OK(writer_status);

  WindowedLatency latency(kWindows);
  std::vector<double> engine_ms, rerank_ms, delta_commit_ms;
  IndexCounters counters;
  for (size_t i = 0; i < num_reads; ++i) {
    const Read& read = reads[i];
    report->AddAttempted(1);
    if (!read.accepted || !read.ok) {
      report->AddFailed(1);
      continue;
    }
    const MixedRequest mixed =
        SignatureMixRequest(static_cast<int>(read.probe));
    const double engine = EngineMs(read.response.stage_timings);
    latency.Add(WindowOf(Seconds(read.due - start), cfg.seconds, kWindows),
                Millis(read.done - read.due));
    engine_ms.push_back(engine);
    if (mixed.cls == RequestClass::kMultiStep) {
      rerank_ms.push_back(RerankMs(read.response.stage_timings));
    }
    counters.Add(mixed.cls, read.response.stats, read.response.results.size());
    if (cfg.spans != nullptr) {
      AddRequestSpans(cfg.spans, "core.executor_request", read.submitted,
                      read.done, engine, i);
    }
  }
  // The writer's Ingest and Commit calls, compaction stalls included. In a
  // traced run they sit under one core.write span over the writer's whole
  // run, so their shares are shares of writer time.
  const int64_t write_root =
      cfg.spans != nullptr
          ? cfg.spans->Add("core.write", start, writer_end, -1, num_reads)
          : -1;
  double writer_busy_s = 0.0;
  std::vector<double> ingest_call_us;
  for (const Write& w : log) {
    report->AddAttempted(1);
    writer_busy_s += Seconds(w.end - w.start);
    const double ms = Millis(w.end - w.start);
    if (w.commit) {
      delta_commit_ms.push_back(ms);
    } else {
      ingest_call_us.push_back(ms * 1e3);
    }
    if (cfg.spans != nullptr) {
      cfg.spans->Add(w.commit ? "core.commit" : "core.ingest", w.start, w.end,
                     write_root, num_reads);
    }
  }

  // Durable state, then sample answers to compare across the reopen.
  std::error_code ec;
  const double wal_bytes =
      static_cast<double>(fs::file_size(home + "/wal.log", ec));
  report->Check(!ec, "write-ahead log present in the durable home");
  const double snapshot_bytes = DirectoryBytes(home + "/snapshot");
  const size_t num_samples = std::min<size_t>(100, num_probes);
  std::vector<std::vector<SearchResult>> before(num_samples);
  for (size_t s = 0; s < num_samples; ++s) {
    DESS_ASSIGN_OR_RETURN(
        QueryResponse answer,
        system->QueryBySignature(corpus.probes[s].signature,
                                 SignatureMixRequest(static_cast<int>(s))
                                     .request));
    report->Check(answer.epoch == last_receipt.epoch,
                  "sample query answered at the last committed epoch");
    before[s] = std::move(answer.results);
  }
  if (cfg.perturb) PerturbAnswer(&before[0]);
  const uint64_t compactions =
      CounterValue("system.compactions") - compactions_before;
  system.reset();
  // What the reopen has to replay: the records in the log since the last
  // checkpoint, read back through the WAL's own recovery (traced runs).
  double replayed = 0.0;
  if (cfg.spans != nullptr) {
    WriteAheadLog::Replay replay;
    DESS_RETURN_NOT_OK(WriteAheadLog::Open(home + "/wal.log",
                                           *options.feature_spaces, &replay)
                           .status());
    replayed = static_cast<double>(replay.records.size());
  }

  const Clock::time_point reopen_start = Clock::now();
  DESS_ASSIGN_OR_RETURN(system, Dess3System::Open(home, {}, options));
  const double reopen_s = Seconds(Clock::now() - reopen_start);
  report->SetPhase("reopen", reopen_s);
  const size_t shapes = system->db().NumShapes();
  report->Check(system->PublishedEpoch() == last_receipt.epoch,
                "reopened epoch matches the last commit receipt");
  report->Check(shapes == setup_records + writes,
                "reopened shape count matches the records ingested");
  DESS_ASSIGN_OR_RETURN(std::shared_ptr<const SystemSnapshot> snapshot,
                        system->CurrentSnapshot());
  DESS_ASSIGN_OR_RETURN(std::unique_ptr<SearchEngine> exact,
                        BuildExactTwin(*snapshot, snapshot));
  QualityTally quality;
  for (size_t s = 0; s < num_samples; ++s) {
    const ShapeRecord& probe = corpus.probes[s];
    const QueryRequest request =
        SignatureMixRequest(static_cast<int>(s)).request;
    DESS_ASSIGN_OR_RETURN(QueryResponse after,
                          snapshot->Query(probe.signature, request));
    DESS_ASSIGN_OR_RETURN(QueryResponse truth,
                          exact->Query(probe.signature, request));
    report->Check(after.results == before[s],
                  "sample query " + std::to_string(s) +
                      " answers identically before and after reopen");
    quality.Add(RecallAt10(after.results, truth.results),
                PrecisionAt10(after.results, snapshot->db(), probe.group));
  }
  system.reset();
  for (const std::string& dir : homes) fs::remove_all(dir);

  report->SetMetric("setup_s", Median(setup_s), "s");
  latency.AddTo("latency", report);
  // Records per second of writer time spent inside Ingest and Commit, over
  // the whole phase: every compaction stall counts in full.
  report->SetMetric("throughput_per_s",
                    static_cast<double>(writes) / writer_busy_s, "1/s");
  quality.AddTo(report);
  report->SetMetric("commit_p50_ms", Quantile(delta_commit_ms, 0.5), "ms");
  report->SetMetric("commit_p90_ms", Quantile(delta_commit_ms, 0.9), "ms");
  report->SetMetric("reopen_s", reopen_s, "s");
  report->SetMetric("writer_late_max_ms", writer_late_ms, "ms");
  report->SetMetric("reader_late_max_ms", reader_late_ms, "ms");
  report->SetMetric("modelgen.input_gen_s", Median(gen_s), "s");
  report->SetMetric("search.engine_ms", Median(engine_ms), "ms");
  report->SetMetric("search.rerank_ms", Median(rerank_ms), "ms");
  commit_ms.insert(commit_ms.end(), delta_commit_ms.begin(),
                   delta_commit_ms.end());
  report->SetMetric("core.commit_ms", Median(commit_ms), "ms");
  report->SetMetric("core.ingest_us_per_record", Median(ingest_call_us),
                    "us");
  report->SetMetric("core.compactions", static_cast<double>(compactions),
                    "count");
  report->SetMetric("core.replayed_records", replayed, "count");
  report->SetMetric("core.wal_bytes_per_record",
                    wal_bytes / static_cast<double>(writes), "bytes");
  report->SetMetric("core.snapshot_bytes", snapshot_bytes, "bytes");
  report->SetMetric("generator.late_sends",
                    static_cast<double>(reader_late_sends), "count");
  counters.AddTo(report);
  if (cfg.spans != nullptr) {
    DESS_RETURN_NOT_OK(MeasureIndexBuilds(snapshot, options, report));
  }
  return Status::OK();
}

}  // namespace dess::e2e
