#include "src/index/hnsw.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <queue>

#include "src/common/byte_codec.h"
#include "src/common/metrics.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/index/distance_kernel.h"

namespace dess {
namespace {

constexpr uint32_t kGraphMagic = 0x57534E48;  // "HNSW" little-endian
constexpr uint32_t kGraphVersion = 1;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Flushes one query's work counters into the index's bound metric family
/// and merges them into the caller's accumulator, if any.
void FinishGraphStats(const IndexCounterNames& names, const QueryStats& local,
                      size_t candidates, QueryStats* caller_stats) {
  if (caller_stats != nullptr) caller_stats->MergeFrom(local);
  MetricsRegistry* registry = MetricsRegistry::Global();
  if (!registry->enabled()) return;
  registry->AddCounter(names.queries);
  registry->AddCounter(names.nodes_visited, local.nodes_visited);
  registry->AddCounter(names.points_compared, local.points_compared);
  registry->AddCounter(names.candidates_returned, candidates);
}

}  // namespace

/// Visited stamps plus a reusable query buffer. One scratch per executor:
/// NextQuery() invalidates all stamps in O(1), so repeated searches over a
/// large graph never re-clear the array.
struct HnswIndex::Scratch {
  explicit Scratch(size_t n) : stamp(n, 0) {}

  void NextQuery() {
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
  }

  bool Mark(size_t row) {
    if (stamp[row] == epoch) return false;
    stamp[row] = epoch;
    return true;
  }

  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
  std::vector<double> qbuf;
};

HnswIndex::HnswIndex(const HnswParams& params, int dim,
                     const std::vector<double>* weights)
    : MultiDimIndex("hnsw"),
      params_(params),
      dim_(dim),
      block_(dim) {
  if (params_.M < 2) params_.M = 2;
  if (params_.ef_construction < params_.M) params_.ef_construction = params_.M;
  if (params_.ef_search < 1) params_.ef_search = 1;
  if (params_.build_batch < 1) params_.build_batch = 1;
  inv_log_m_ = 1.0 / std::log(static_cast<double>(params_.M));
  if (weights != nullptr && !weights->empty()) build_weights_ = *weights;
}

int HnswIndex::LevelFor(size_t row) const {
  const uint64_t h =
      SplitMix64(params_.seed ^ (static_cast<uint64_t>(row) * 0xD1B54A32D192ED03ull +
                                 0x8BB84B93962EACC9ull));
  // Uniform draw in (0, 1]: log is finite, level >= 0.
  const double u = (static_cast<double>(h >> 11) + 1.0) * 0x1.0p-53;
  const int level = static_cast<int>(-std::log(u) * inv_log_m_);
  return std::min(level, params_.max_level_cap);
}

double HnswIndex::DistToRow(const double* q, size_t row,
                            const double* w) const {
  return RowWeightedL2(block_, row, q, w);
}

std::vector<HnswIndex::Cand> HnswIndex::SearchLayer(
    const double* q, const double* w, const std::vector<int>& entries,
    size_t ef, int layer, Scratch* scratch, QueryStats* stats) const {
  scratch->NextQuery();
  struct CandGreater {
    bool operator()(const Cand& a, const Cand& b) const { return b < a; }
  };
  std::priority_queue<Cand> top;  // worst kept candidate on top
  std::priority_queue<Cand, std::vector<Cand>, CandGreater> frontier;
  for (int e : entries) {
    if (e < 0 || !scratch->Mark(e)) continue;
    const Cand c{DistToRow(q, e, w), e};
    stats->points_compared += 1;
    top.push(c);
    frontier.push(c);
    if (top.size() > ef) top.pop();
  }
  while (!frontier.empty()) {
    const Cand c = frontier.top();
    frontier.pop();
    if (top.size() >= ef && top.top() < c) break;
    stats->nodes_visited += 1;
    if (layer >= static_cast<int>(links_[c.row].size())) continue;
    for (int nb : links_[c.row][layer]) {
      if (!scratch->Mark(nb)) continue;
      const Cand cc{DistToRow(q, nb, w), nb};
      stats->points_compared += 1;
      if (top.size() < ef || cc < top.top()) {
        top.push(cc);
        frontier.push(cc);
        if (top.size() > ef) top.pop();
      }
    }
  }
  std::vector<Cand> out(top.size());
  for (size_t i = out.size(); i-- > 0;) {
    out[i] = top.top();
    top.pop();
  }
  return out;
}

int HnswIndex::GreedyDescend(const double* q, const double* w,
                             int target_layer, Scratch* scratch,
                             QueryStats* stats) const {
  (void)scratch;
  int ep = entry_;
  if (ep < 0) return -1;
  double best = DistToRow(q, ep, w);
  stats->points_compared += 1;
  for (int l = max_level_; l > target_layer; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      stats->nodes_visited += 1;
      if (l >= static_cast<int>(links_[ep].size())) break;
      for (int nb : links_[ep][l]) {
        const double d = DistToRow(q, nb, w);
        stats->points_compared += 1;
        if (d < best || (d == best && nb < ep)) {
          best = d;
          ep = nb;
          improved = true;
        }
      }
    }
  }
  return ep;
}

std::vector<std::vector<HnswIndex::Cand>> HnswIndex::CollectCandidates(
    size_t row, Scratch* scratch) const {
  const int level = levels_[row];
  std::vector<std::vector<Cand>> out(level + 1);
  if (entry_ < 0) return out;
  scratch->qbuf.resize(dim_);
  block_.CopyRow(row, scratch->qbuf.data());
  const double* q = scratch->qbuf.data();
  const double* w = build_weights_.empty() ? nullptr : build_weights_.data();
  QueryStats local;
  const int top_layer = std::min(level, max_level_);
  int ep = GreedyDescend(q, w, top_layer, scratch, &local);
  std::vector<int> entries = {ep};
  for (int l = top_layer; l >= 0; --l) {
    out[l] = SearchLayer(q, w, entries,
                         static_cast<size_t>(params_.ef_construction), l,
                         scratch, &local);
    if (!out[l].empty()) {
      entries.clear();
      entries.reserve(out[l].size());
      for (const Cand& c : out[l]) entries.push_back(c.row);
    }
  }
  return out;
}

std::vector<int> HnswIndex::SelectNeighbors(const std::vector<Cand>& cands,
                                            size_t cap) const {
  const double* w = build_weights_.empty() ? nullptr : build_weights_.data();
  std::vector<int> kept;
  std::vector<int> passed_over;
  kept.reserve(cap);
  std::vector<double> cb(dim_);
  for (const Cand& c : cands) {
    if (kept.size() >= cap) break;
    block_.CopyRow(c.row, cb.data());
    bool diverse = true;
    for (int r : kept) {
      if (RowWeightedL2(block_, r, cb.data(), w) < c.d) {
        diverse = false;
        break;
      }
    }
    (diverse ? kept : passed_over).push_back(c.row);
  }
  for (size_t i = 0; i < passed_over.size() && kept.size() < cap; ++i) {
    kept.push_back(passed_over[i]);
  }
  return kept;
}

void HnswIndex::PruneLinks(size_t row, int layer) {
  std::vector<int>& lst = links_[row][layer];
  const int cap = MaxDegree(layer);
  if (static_cast<int>(lst.size()) <= cap) return;
  std::vector<double> rb(dim_);
  block_.CopyRow(row, rb.data());
  const double* w = build_weights_.empty() ? nullptr : build_weights_.data();
  std::vector<Cand> scored;
  scored.reserve(lst.size());
  for (int nb : lst) scored.push_back({DistToRow(rb.data(), nb, w), nb});
  std::sort(scored.begin(), scored.end());
  lst = SelectNeighbors(scored, static_cast<size_t>(cap));
}

void HnswIndex::LinkNode(size_t row, size_t batch_begin,
                         std::vector<std::vector<Cand>> candidates) {
  const int level = levels_[row];
  candidates.resize(level + 1);
  // Batch-local predecessors are invisible to the frozen-graph searches of
  // the parallel phase; fold them in by exact distance so nodes of one
  // batch still link to each other (and the very first batch, which sees
  // an empty frozen graph, selects its links from exact distances).
  if (row > batch_begin) {
    std::vector<double> rb(dim_);
    block_.CopyRow(row, rb.data());
    const double* w = build_weights_.empty() ? nullptr : build_weights_.data();
    for (size_t j = batch_begin; j < row; ++j) {
      const double d = RowWeightedL2(block_, j, rb.data(), w);
      const int top = std::min(level, levels_[j]);
      for (int l = 0; l <= top; ++l) {
        candidates[l].push_back({d, static_cast<int>(j)});
      }
    }
  }
  for (int l = level; l >= 0; --l) {
    std::sort(candidates[l].begin(), candidates[l].end());
    std::vector<int>& my = links_[row][l];
    my = SelectNeighbors(candidates[l], static_cast<size_t>(params_.M));
    for (int nb : my) {
      std::vector<int>& theirs = links_[nb][l];
      theirs.push_back(static_cast<int>(row));
      if (static_cast<int>(theirs.size()) > MaxDegree(l)) {
        PruneLinks(nb, l);
      }
    }
  }
  if (entry_ < 0 || level > max_level_) {
    entry_ = static_cast<int>(row);
    max_level_ = level;
  }
}

Status HnswIndex::AppendRows(const SignatureBlock& rows, size_t from,
                             ThreadPool* pool) {
  const size_t n = rows.size();
  for (size_t r = from; r < n; ++r) {
    block_.Append(rows.id(r), rows.Row(r));
    levels_.push_back(LevelFor(r));
    links_.emplace_back(levels_.back() + 1);
  }

  // Shared claim state of one batch's parallel phase. Executors (pool
  // helpers plus the calling thread) claim node indexes from `next`; the
  // caller waits for `done` to reach the batch size, so late-waking pool
  // tasks find `next` exhausted and exit without touching the batch. The
  // state is shared_ptr-owned so such stragglers stay memory-safe after
  // the caller moves on.
  struct BatchRun {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t end = 0;
    size_t count = 0;
    std::mutex mu;
    std::condition_variable cv;
  };

  const size_t batch = static_cast<size_t>(params_.build_batch);
  for (size_t begin = from; begin < n; begin += batch) {
    const size_t end = std::min(n, begin + batch);
    const size_t count = end - begin;
    auto cand =
        std::make_shared<std::vector<std::vector<std::vector<Cand>>>>(count);
    auto run = std::make_shared<BatchRun>();
    run->next.store(begin);
    run->end = end;
    run->count = count;
    auto work = [this, run, cand, begin]() {
      std::unique_ptr<Scratch> scratch;
      for (;;) {
        const size_t i = run->next.fetch_add(1);
        if (i >= run->end) break;
        if (scratch == nullptr) {
          scratch = std::make_unique<Scratch>(block_.size());
        }
        (*cand)[i - begin] = CollectCandidates(i, scratch.get());
        if (run->done.fetch_add(1) + 1 == run->count) {
          std::lock_guard<std::mutex> lock(run->mu);
          run->cv.notify_all();
        }
      }
    };
    if (pool != nullptr && count > 1) {
      const int helpers = static_cast<int>(
          std::min<size_t>(pool->num_threads(), count - 1));
      for (int h = 0; h < helpers; ++h) pool->Schedule(work);
    }
    // The caller participates in the claim loop, so the batch completes
    // even when every pool worker is busy (or the caller *is* a pool
    // worker): no pool->Wait(), no deadlock.
    work();
    {
      std::unique_lock<std::mutex> lock(run->mu);
      run->cv.wait(lock, [&] { return run->done.load() == run->count; });
    }
    for (size_t i = begin; i < end; ++i) {
      LinkNode(i, begin, std::move((*cand)[i - begin]));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Build(
    const HnswParams& params, const SignatureBlock& rows,
    const std::vector<double>* weights, ThreadPool* pool) {
  if (rows.dim() <= 0) {
    return Status::InvalidArgument("hnsw: non-positive dimension");
  }
  if (weights != nullptr && !weights->empty() &&
      static_cast<int>(weights->size()) != rows.dim()) {
    return Status::InvalidArgument(
        StrFormat("hnsw: %zu weights for dim %d", weights->size(),
                  rows.dim()));
  }
  std::unique_ptr<HnswIndex> index(
      new HnswIndex(params, rows.dim(), weights));
  DESS_RETURN_NOT_OK(index->AppendRows(rows, 0, pool));
  return index;
}

Status HnswIndex::Insert(int id, const std::vector<double>& point) {
  if (static_cast<int>(point.size()) != dim_) {
    return Status::InvalidArgument(
        StrFormat("hnsw: expected dim %d, got %zu", dim_, point.size()));
  }
  const size_t row = block_.size();
  block_.Append(id, point);
  levels_.push_back(LevelFor(row));
  links_.emplace_back(levels_.back() + 1);
  Scratch scratch(row + 1);
  std::vector<std::vector<Cand>> cand = CollectCandidates(row, &scratch);
  LinkNode(row, row, std::move(cand));
  return Status::OK();
}

Status HnswIndex::Remove(int, const std::vector<double>&) {
  return Status::NotImplemented(
      "hnsw graph nodes cannot be unlinked in place; rebuild the index");
}

std::vector<Neighbor> HnswIndex::KNearest(const std::vector<double>& query,
                                          size_t k,
                                          const std::vector<double>& weights,
                                          QueryStats* stats) const {
  DESS_TIMED_SCOPE("index.hnsw.knearest");
  if (block_.size() == 0 || k == 0) return {};
  const double* w = weights.empty() ? nullptr : weights.data();
  QueryStats local;
  Scratch scratch(block_.size());
  const size_t ef = std::max<size_t>(params_.ef_search, k);
  const int ep = GreedyDescend(query.data(), w, 0, &scratch, &local);
  std::vector<Cand> cands =
      SearchLayer(query.data(), w, {ep}, ef, 0, &scratch, &local);
  if (cands.size() > k) cands.resize(k);
  std::vector<Neighbor> out;
  out.reserve(cands.size());
  for (const Cand& c : cands) out.push_back({block_.id(c.row), c.d});
  // Row order and id order may differ on exact distance ties; results
  // follow the Neighbor (distance, id) total order like every backend.
  std::sort(out.begin(), out.end());
  TraceAnnotate("points_compared", local.points_compared);
  FinishGraphStats(counters_, local, out.size(), stats);
  return out;
}

std::vector<Neighbor> HnswIndex::RangeQuery(const std::vector<double>& query,
                                            double radius,
                                            const std::vector<double>& weights,
                                            QueryStats* stats) const {
  DESS_TIMED_SCOPE("index.hnsw.range");
  if (block_.size() == 0) return {};
  const double* w = weights.empty() ? nullptr : weights.data();
  QueryStats local;
  Scratch scratch(block_.size());
  const size_t ef = static_cast<size_t>(params_.ef_search);
  const int ep = GreedyDescend(query.data(), w, 0, &scratch, &local);
  std::vector<Cand> cands =
      SearchLayer(query.data(), w, {ep}, ef, 0, &scratch, &local);
  std::vector<Neighbor> out;
  for (const Cand& c : cands) {
    if (c.d <= radius) out.push_back({block_.id(c.row), c.d});
  }
  std::sort(out.begin(), out.end());
  FinishGraphStats(counters_, local, out.size(), stats);
  return out;
}

std::string HnswIndex::SerializeGraph() const {
  ByteWriter w;
  w.WriteU32(kGraphMagic);
  w.WriteU32(kGraphVersion);
  w.WriteU64(block_.size());
  w.WriteU32(static_cast<uint32_t>(dim_));
  w.WriteU32(static_cast<uint32_t>(params_.M));
  w.WriteU64(params_.seed);
  w.WriteU32(static_cast<uint32_t>(entry_));
  w.WriteU32(static_cast<uint32_t>(max_level_));
  for (size_t r = 0; r < block_.size(); ++r) {
    w.WriteU32(static_cast<uint32_t>(levels_[r]));
    for (const std::vector<int>& layer : links_[r]) {
      w.WriteU32(static_cast<uint32_t>(layer.size()));
      for (int nb : layer) w.WriteU32(static_cast<uint32_t>(nb));
    }
  }
  return w.Take();
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::Deserialize(
    const HnswParams& params, const SignatureBlock& rows,
    const std::vector<double>* weights, std::string_view bytes) {
  const auto corrupt = [](const char* what) {
    return Status::InvalidArgument(
        StrFormat("hnsw graph: %s", what));
  };
  ByteReader reader(bytes);
  uint32_t magic = 0, version = 0, dim = 0, m = 0, entry = 0, max_level = 0;
  uint64_t n = 0, seed = 0;
  if (!reader.ReadU32(&magic) || magic != kGraphMagic) {
    return corrupt("bad magic");
  }
  if (!reader.ReadU32(&version) || version != kGraphVersion) {
    return corrupt("unsupported graph version");
  }
  if (!reader.ReadU64(&n) || !reader.ReadU32(&dim) || !reader.ReadU32(&m) ||
      !reader.ReadU64(&seed) || !reader.ReadU32(&entry) ||
      !reader.ReadU32(&max_level)) {
    return corrupt("truncated header");
  }
  if (n != rows.size() || static_cast<int>(dim) != rows.dim()) {
    return corrupt("graph does not match the row block");
  }
  if (static_cast<int>(m) != params.M || seed != params.seed) {
    return corrupt("graph was built with different parameters");
  }
  std::unique_ptr<HnswIndex> index(
      new HnswIndex(params, rows.dim(), weights));
  for (size_t r = 0; r < n; ++r) {
    index->block_.Append(rows.id(r), rows.Row(r));
  }
  index->entry_ = static_cast<int>(entry);
  index->max_level_ = static_cast<int>(max_level);
  if (n == 0) {
    if (index->entry_ != -1) return corrupt("entry point in empty graph");
    return index;
  }
  if (index->entry_ < 0 || index->entry_ >= static_cast<int>(n) ||
      index->max_level_ < 0 ||
      index->max_level_ > index->params_.max_level_cap) {
    return corrupt("entry point out of range");
  }
  index->levels_.resize(n);
  index->links_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    uint32_t level = 0;
    if (!reader.ReadU32(&level) ||
        level > static_cast<uint32_t>(index->params_.max_level_cap)) {
      return corrupt("node level out of range");
    }
    index->levels_[r] = static_cast<int>(level);
    index->links_[r].resize(level + 1);
    for (uint32_t l = 0; l <= level; ++l) {
      uint32_t count = 0;
      if (!reader.ReadU32(&count) ||
          count > static_cast<uint32_t>(index->MaxDegree(l))) {
        return corrupt("adjacency list too long");
      }
      std::vector<int>& layer = index->links_[r][l];
      layer.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint32_t nb = 0;
        if (!reader.ReadU32(&nb) || nb >= n) {
          return corrupt("neighbor row out of range");
        }
        layer.push_back(static_cast<int>(nb));
      }
    }
  }
  if (!reader.AtEnd()) return corrupt("trailing bytes");
  if (index->levels_[index->entry_] != index->max_level_) {
    return corrupt("entry point level mismatch");
  }
  return index;
}

}  // namespace dess
