#include "graph/cycles.h"

#include <algorithm>
#include <atomic>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "graph/ball_prune.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::graph {

namespace {

/// How many DFS extensions / start visits pass between cooperative
/// deadline/cancel checks.  Large enough that the clock read is noise
/// against the enumeration work, small enough that an expired deadline
/// stops the run within a few microseconds of real work.
constexpr int kExecCheckInterval = 256;

/// Whole-enumeration latency (sequential or parallel), shared by every
/// enumerator: this is the kernel the serve stack's `enumeration` span
/// bottoms out in.
obs::Histogram* EnumerationHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.enumeration_latency_ms");
  return histogram;
}

/// DFS work per enumeration: path extensions summed over every start
/// and worker, recorded once per run (never per extension).
obs::Histogram* ExtensionsHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      "wqe.graph.enumeration_extensions");
  return histogram;
}

/// Hop distance beyond a barrier's ⌊max_length/2⌋ cap: the node lies on
/// no cycle of length <= max_length through the BFS sources.
constexpr uint32_t kFar = UINT32_MAX;

/// Multi-source BFS from the alive seeds in the view over alive nodes,
/// capped at ⌊max_length/2⌋ hops (kFar beyond).  Empty when no seed
/// filter is set.  A path node is a seed exactly when its distance is 0:
/// dead seeds never join a path.
std::vector<uint32_t> SeedDistances(const UndirectedView& view,
                                    const CycleEnumerationOptions& options,
                                    const uint64_t* alive) {
  std::vector<uint32_t> dist;
  if (options.seeds.empty()) return dist;
  dist.assign(view.num_nodes(), kFar);
  std::vector<uint32_t> queue;
  for (NodeId g : options.seeds) {
    const uint32_t local = view.ToLocal(g);
    if (local == UINT32_MAX || dist[local] == 0) continue;
    if (alive != nullptr && !BallPruneAlive(alive, local)) continue;
    dist[local] = 0;
    queue.push_back(local);
  }
  const uint32_t cap = options.max_length / 2;
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t u = queue[head];
    if (dist[u] >= cap) break;  // BFS order: the rest sit at the cap
    for (uint32_t v : view.Neighbors(u)) {
      if (dist[v] != kFar || (alive != nullptr && !BallPruneAlive(alive, v))) {
        continue;
      }
      dist[v] = dist[u] + 1;
      queue.push_back(v);
    }
  }
  return dist;
}

/// DFS state for one enumeration run (one thread's worth: the parallel
/// path gives every worker its own context over the shared view).
///
/// `sink` receives each surviving cycle path; returning false aborts this
/// context's enumeration.  The sequential path wires the user visitor plus
/// emission counting straight in; parallel workers wire a buffer append.
struct DfsContext {
  const UndirectedView* view;
  const CycleEnumerationOptions* options;
  /// Seed barrier (`SeedDistances`), shared read-only by every worker;
  /// null when no seed filter is set.
  const uint32_t* seed_dist = nullptr;
  /// Ball-pruning bitset by local id (graph/ball_prune.h); null when
  /// pruning is off or removed nothing.  Dead nodes lie on no qualifying
  /// cycle, so skipping them changes no emission and no emission order.
  const uint64_t* alive = nullptr;
  std::function<bool(const std::vector<uint32_t>&)> sink;
  std::vector<bool> on_path;
  std::vector<uint32_t> path;
  /// Seeds on `path` (pushed and popped with it).
  uint32_t path_seeds = 0;
  /// Per-start barrier: hop distance from the current start over alive
  /// nodes above it, capped at ⌊max_length/2⌋ (kFar beyond).  Only the
  /// `reached` entries differ from kFar, so resetting costs one BFS.
  std::vector<uint32_t> start_dist;
  /// BFS order; `reached[1, start_neighbors_end)` are the start's alive
  /// neighbours above it, ascending.
  std::vector<uint32_t> reached;
  size_t start_neighbors_end = 1;
  /// Path extensions made by this context (the DFS work measure).
  uint64_t extensions = 0;
  bool aborted = false;
  /// Sticky: set once the ambient deadline fires or cancellation is
  /// requested.  Distinct from `aborted` (which a visitor can also set)
  /// so the parallel path can tell a truncated chunk from a capped one.
  bool interrupted = false;
  /// Whether the ambient request context has a budget to check; cached at
  /// Init so the (overwhelmingly common) no-deadline path costs one
  /// branch per check site.
  bool exec_active = false;
  /// Starts at 1 so the very first check consults the clock: a request
  /// that is already over budget then deterministically emits nothing,
  /// at any thread count.
  int check_countdown = 1;

  void Init(const UndirectedView& v, const CycleEnumerationOptions& o,
            const std::vector<uint32_t>& seed_distances,
            const uint64_t* alive_bits) {
    view = &v;
    options = &o;
    seed_dist = seed_distances.empty() ? nullptr : seed_distances.data();
    alive = alive_bits;
    on_path.assign(v.num_nodes(), false);
    start_dist.assign(v.num_nodes(), kFar);
    exec_active = common::CurrentRequestContext().has_budget();
  }

  /// Countdown-gated cooperative check: consults the clock / cancel flag
  /// every `kExecCheckInterval` calls.  Sticky once interrupted.
  bool CheckInterrupt() {
    if (!exec_active) return false;
    if (interrupted) return true;
    if (--check_countdown > 0) return false;
    check_countdown = kExecCheckInterval;
    interrupted = common::ExecInterrupted();
    return interrupted;
  }

  /// Immediate cooperative check (no countdown) for coarse boundaries —
  /// chunk claims — where the check cost is already amortized.
  bool CheckInterruptNow() {
    if (!exec_active) return false;
    if (!interrupted) interrupted = common::ExecInterrupted();
    return interrupted;
  }

  bool Alive(uint32_t v) const {
    return alive == nullptr || BallPruneAlive(alive, v);
  }

  bool IsSeed(uint32_t v) const {
    return seed_dist != nullptr && seed_dist[v] == 0;
  }

  /// True when no chord exists: the only adjacencies among path nodes are
  /// the consecutive ones (and the closing edge).
  bool PathIsChordless() const {
    const size_t n = path.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 2; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;  // closing edge
        if (view->HasEdge(path[i], path[j])) return false;
      }
    }
    return true;
  }

  void Emit() {
    if (seed_dist != nullptr && path_seeds == 0) return;
    if (options->chordless_only && path.size() >= 4 && !PathIsChordless()) {
      return;
    }
    if (!sink(path)) aborted = true;
  }

  /// Length-2 cycles starting at `u`: adjacent pairs (u, v > u) with >= 2
  /// parallel edges, read straight off the multiplicity row.
  void Length2ForStart(uint32_t u) {
    std::span<const uint32_t> neighbors = view->Neighbors(u);
    std::span<const uint32_t> mults = view->Multiplicities(u);
    size_t first = std::upper_bound(neighbors.begin(), neighbors.end(), u) -
                   neighbors.begin();
    for (size_t i = first; i < neighbors.size() && !aborted; ++i) {
      const uint32_t v = neighbors[i];
      if (mults[i] >= 2 && Alive(v)) {
        path = {u, v};
        path_seeds = IsSeed(u) || IsSeed(v);
        Emit();
      }
    }
    path.clear();
    path_seeds = 0;
  }

  /// Fills `start_dist` for start `s`: BFS over alive nodes `> s` (the
  /// only nodes a canonical cycle rooted at `s` may hold), capped at
  /// ⌊max_length/2⌋ hops — every node of such a cycle lies within that
  /// many hops of `s` along the cycle itself.
  void StartBarrier(uint32_t s) {
    for (uint32_t v : reached) start_dist[v] = kFar;
    reached.assign(1, s);
    start_dist[s] = 0;
    const uint32_t cap = options->max_length / 2;
    for (size_t head = 0; head < reached.size(); ++head) {
      const uint32_t u = reached[head];
      if (start_dist[u] >= cap) break;  // BFS order: the rest sit at the cap
      std::span<const uint32_t> neighbors = view->Neighbors(u);
      for (auto it = std::upper_bound(neighbors.begin(), neighbors.end(), s);
           it != neighbors.end(); ++it) {
        const uint32_t v = *it;
        if (start_dist[v] != kFar || !Alive(v)) continue;
        start_dist[v] = start_dist[u] + 1;
        reached.push_back(v);
      }
      if (head == 0) start_neighbors_end = reached.size();
    }
  }

  /// Canonical DFS rooted at `s` (cycles of length >= 3 whose minimum
  /// node is `s`).  With a seed filter, a start beyond the seed
  /// barrier's cap lies on no qualifying cycle.
  void DfsForStart(uint32_t s) {
    if (seed_dist != nullptr && seed_dist[s] == kFar) return;
    StartBarrier(s);
    path.assign(1, s);
    on_path[s] = true;
    path_seeds = IsSeed(s);
    Extend(s, s);
    on_path[s] = false;
    path.clear();
  }

  /// Extends the path (whose last node is `u`); `start` is path[0].
  ///
  /// Rows are sorted ascending, so one binary search splits `u`'s row at
  /// `start`: everything before it is excluded by canonicality (the start
  /// is the path minimum), equality is the closing edge, and only the
  /// suffix can extend the path.  At maximum depth the suffix is skipped
  /// entirely — the closure test is the whole visit.
  void Extend(uint32_t start, uint32_t u) {
    if (aborted) return;
    if (CheckInterrupt()) {
      aborted = true;
      return;
    }
    std::span<const uint32_t> neighbors = view->Neighbors(u);
    auto suffix = std::upper_bound(neighbors.begin(), neighbors.end(), start);
    // Close the cycle when we are back at the start with enough nodes.
    // The orientation constraint path[1] < path.back() ensures each cycle
    // is emitted in only one of its two traversal directions.
    if (suffix != neighbors.begin() && *(suffix - 1) == start &&
        path.size() >= 3 && path.size() >= options->min_length &&
        path[1] < path.back()) {
      Emit();
      if (aborted) return;
    }
    if (path.size() >= options->max_length) return;
    const uint64_t budget = options->max_length - path.size();
    const bool seek_seed = seed_dist != nullptr && path_seeds == 0;
    if (budget == 1) {
      // Last hop: only the start's own neighbours (start_dist 1) can
      // still close the cycle.  When they are fewer than `u`'s candidates,
      // walk them and search `u`'s row suffix instead — the same nodes in
      // the same ascending order.
      std::span<const uint32_t> near(reached.data() + 1,
                                     start_neighbors_end - 1);
      if (near.size() < static_cast<size_t>(neighbors.end() - suffix)) {
        auto it = suffix;
        for (uint32_t v : near) {
          it = std::lower_bound(it, neighbors.end(), v);
          if (it == neighbors.end()) return;
          if (*it == v && !Descend(start, v, budget, seek_seed)) return;
        }
        return;
      }
    }
    for (auto it = suffix; it != neighbors.end(); ++it) {
      if (!Descend(start, *it, budget, seek_seed)) return;
    }
  }

  /// Pushes `v` unless a distance barrier rules it out, extends, and
  /// pops; returns false once the enumeration has aborted.
  ///
  /// Once `v` joins, `budget` = max_length - |path| more arcs may close
  /// the cycle.  The way back from `v` to the start takes at least
  /// `start_dist[v]` arcs.  While the path holds no seed, the rest of the
  /// cycle must also pass a seed: at least `seed_dist[v] +
  /// seed_dist[start]` arcs.  Both are lower bounds on the arcs any
  /// closing walk needs, so a skipped `v` roots a subtree that emits
  /// nothing.
  bool Descend(uint32_t start, uint32_t v, uint64_t budget, bool seek_seed) {
    // Dead nodes are never reached by the BFS, so kFar skips them too.
    if (on_path[v] || start_dist[v] > budget) return true;
    const bool seed = IsSeed(v);
    if (seek_seed && !seed &&
        uint64_t{seed_dist[v]} + seed_dist[start] > budget) {
      return true;
    }
    ++extensions;
    path.push_back(v);
    on_path[v] = true;
    path_seeds += seed;
    Extend(start, v);
    path_seeds -= seed;
    on_path[v] = false;
    path.pop_back();
    return !aborted;
  }
};

/// Runs ball pruning when the options ask for it; `bits` backs the
/// returned pointer.  Null when pruning is off, the view is empty, or
/// nothing was removed — the null fast path keeps fully-alive scans free
/// of bitset loads.
const uint64_t* MaybePrune(const UndirectedView& view,
                           const CycleEnumerationOptions& options,
                           std::vector<uint64_t>* bits) {
  if (!options.prune_ball || view.num_nodes() == 0) return nullptr;
  BallPruneStats stats =
      PruneBall(view, options.seeds, options.max_length, bits);
  return stats.pruned_any() ? bits->data() : nullptr;
}

/// One chunk's output.  Cycles are stored flattened (lengths + node data)
/// to keep the collection allocation-light; the two phases are kept in
/// separate streams because the sequential enumerator emits *all*
/// length-2 cycles (by start) before *any* DFS cycle.
struct ChunkBuffer {
  std::vector<uint32_t> len2_lengths;  // always 2; kept for uniform replay
  std::vector<uint32_t> len2_nodes;
  std::vector<uint32_t> dfs_lengths;
  std::vector<uint32_t> dfs_nodes;
  /// Cleared when a deadline/cancel interruption truncated the stream:
  /// the stored cycles are then a *prefix* of what the chunk would have
  /// produced, and the merge must stop after replaying them so the
  /// overall emission stays a prefix of the sequential order.  (Budget-
  /// capped chunks keep these set — their tails are past the
  /// `max_cycles` truncation point and unreachable in the merge.)
  bool len2_complete = true;
  bool dfs_complete = true;

  size_t num_len2() const { return len2_lengths.size(); }
};

/// Degree-balanced [begin, end) start ranges.  Weight of a start ~ its
/// degree (drives both the length-2 row scan and the DFS fan-out); more
/// chunks than threads so the atomic-cursor steal loop can rebalance
/// skewed high-degree chunks.
std::vector<std::pair<uint32_t, uint32_t>> BuildChunks(
    const UndirectedView& view, uint32_t threads, uint32_t max_starts) {
  const uint32_t n = view.num_nodes();
  uint64_t total_weight = 0;
  for (uint32_t s = 0; s < n; ++s) total_weight += 1 + view.Degree(s);
  const uint64_t target = std::max<uint64_t>(
      1, total_weight / (static_cast<uint64_t>(threads) * 8));

  std::vector<std::pair<uint32_t, uint32_t>> chunks;
  uint32_t begin = 0;
  uint64_t weight = 0;
  for (uint32_t s = 0; s < n; ++s) {
    weight += 1 + view.Degree(s);
    const uint32_t count = s + 1 - begin;
    if (weight >= target || (max_starts != 0 && count >= max_starts)) {
      chunks.emplace_back(begin, s + 1);
      begin = s + 1;
      weight = 0;
    }
  }
  if (begin < n) chunks.emplace_back(begin, n);
  return chunks;
}

/// Tracks which prefix of the chunk sequence is fully enumerated and how
/// many *first-stream* cycles it produced (the length-2 stream when one
/// exists, else the DFS stream — whichever merges first).  Used as the
/// shared `max_cycles` budget: once the *completed prefix* alone holds
/// `max_cycles` first-stream cycles, every not-yet-started chunk's
/// entire output falls past the truncation point — chunks are claimed in
/// ascending order, so any chunk a worker is about to claim can be
/// skipped outright.  Conservative (in-flight chunks keep running), but
/// sound: the merge step still truncates at exactly `max_cycles`.
struct PrefixBudget {
  common::Mutex mu;
  std::vector<uint8_t> done WQE_GUARDED_BY(mu);
  size_t next_prefix WQE_GUARDED_BY(mu) = 0;
  bool count_len2;  ///< which stream merges first; immutable after ctor
  std::atomic<size_t> prefix_count{0};

  PrefixBudget(size_t num_chunks, bool want_len2)
      : done(num_chunks, 0), count_len2(want_len2) {}

  void MarkDone(size_t chunk, const std::vector<ChunkBuffer>& buffers) {
    common::MutexLock lock(mu);
    done[chunk] = 1;
    size_t count = prefix_count.load(std::memory_order_relaxed);
    while (next_prefix < done.size() && done[next_prefix]) {
      const ChunkBuffer& b = buffers[next_prefix];
      count += count_len2 ? b.num_len2() : b.dfs_lengths.size();
      ++next_prefix;
    }
    prefix_count.store(count, std::memory_order_release);
  }

  bool Exhausted(size_t max_cycles) const {
    return max_cycles != 0 &&
           prefix_count.load(std::memory_order_acquire) >= max_cycles;
  }
};

/// Appends `path` to `lengths`/`nodes`, honoring the per-chunk cap: one
/// chunk never needs to contribute more than `max_cycles` cycles to
/// either merged stream, because the final output holds at most that many
/// in total.  Returns false once the cap is hit (stops that phase's
/// enumeration for the chunk).
bool AppendCapped(const std::vector<uint32_t>& path, size_t max_cycles,
                  std::vector<uint32_t>* lengths,
                  std::vector<uint32_t>* nodes) {
  lengths->push_back(static_cast<uint32_t>(path.size()));
  nodes->insert(nodes->end(), path.begin(), path.end());
  return max_cycles == 0 || lengths->size() < max_cycles;
}

}  // namespace

size_t CycleEnumerator::SequentialVisit(const CycleEnumerationOptions& options,
                                        const CycleVisitor& visitor) const {
  const uint32_t n = view_->num_nodes();
  std::vector<uint64_t> alive_bits;
  const uint64_t* alive = MaybePrune(*view_, options, &alive_bits);
  const std::vector<uint32_t> seed_dist =
      SeedDistances(*view_, options, alive);

  DfsContext ctx;
  ctx.Init(*view_, options, seed_dist, alive);
  size_t emitted = 0;
  ctx.sink = [&](const std::vector<uint32_t>& path) {
    ++emitted;
    if (!visitor(path)) return false;
    return options.max_cycles == 0 || emitted < options.max_cycles;
  };

  if (options.min_length <= 2 && options.max_length >= 2) {
    for (uint32_t u = 0; u < n && !ctx.aborted; ++u) {
      if (ctx.CheckInterrupt()) break;
      if (ctx.Alive(u)) ctx.Length2ForStart(u);
    }
  }
  if (options.max_length >= 3 && !ctx.interrupted) {
    for (uint32_t s = 0; s < n && !ctx.aborted; ++s) {
      if (ctx.CheckInterrupt()) break;
      if (ctx.Alive(s)) ctx.DfsForStart(s);
    }
  }
  ExtensionsHistogram()->Record(static_cast<double>(ctx.extensions));
  return emitted;
}

size_t CycleEnumerator::ParallelVisit(const CycleEnumerationOptions& options,
                                      const CycleVisitor& visitor) const {
  const uint32_t threads =
      common::EffectiveParallelism(options.num_threads, options.pool);
  const uint32_t n = view_->num_nodes();
  if (threads <= 1 || n < 2) return SequentialVisit(options, visitor);

  std::vector<std::pair<uint32_t, uint32_t>> chunks =
      BuildChunks(*view_, threads, options.parallel_chunk_starts);
  if (chunks.size() <= 1) return SequentialVisit(options, visitor);

  // One shared prune and seed barrier for all workers (read-only after
  // this point); both run after the sequential fallbacks above so they
  // are never computed twice.
  std::vector<uint64_t> alive_bits;
  const uint64_t* alive = MaybePrune(*view_, options, &alive_bits);
  const std::vector<uint32_t> seed_dist =
      SeedDistances(*view_, options, alive);
  const bool want_len2 = options.min_length <= 2 && options.max_length >= 2;
  const bool want_dfs = options.max_length >= 3;

  std::vector<ChunkBuffer> buffers(chunks.size());
  std::atomic<size_t> cursor{0};
  PrefixBudget budget(chunks.size(), want_len2);
  std::atomic<uint64_t> extensions{0};

  auto worker = [&] {
    DfsContext ctx;
    ctx.Init(*view_, options, seed_dist, alive);
    for (;;) {
      const size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) {
        extensions.fetch_add(ctx.extensions, std::memory_order_relaxed);
        return;
      }
      ChunkBuffer& out = buffers[c];
      WQE_FAULT_DELAY("graph.enumeration_chunk");
      // Coarse cooperative check per chunk claim: an interrupted worker
      // keeps draining the cursor, marking each untouched chunk
      // incomplete so the merge stops at the truncation point.
      if (ctx.CheckInterruptNow()) {
        out.len2_complete = false;
        out.dfs_complete = false;
        budget.MarkDone(c, buffers);
        continue;
      }
      if (!budget.Exhausted(options.max_cycles)) {
        const auto [begin, end] = chunks[c];
        if (want_len2) {
          ctx.aborted = false;
          ctx.sink = [&](const std::vector<uint32_t>& path) {
            return AppendCapped(path, options.max_cycles, &out.len2_lengths,
                                &out.len2_nodes);
          };
          for (uint32_t u = begin; u < end && !ctx.aborted; ++u) {
            if (ctx.CheckInterrupt()) break;
            if (ctx.Alive(u)) ctx.Length2ForStart(u);
          }
          if (ctx.interrupted) out.len2_complete = false;
        }
        if (ctx.interrupted) {
          // Whatever the DFS phase would have produced is lost to the
          // interruption; the chunk's DFS stream is (possibly empty and)
          // truncated.
          out.dfs_complete = false;
        } else if (want_dfs) {
          ctx.aborted = false;
          ctx.sink = [&](const std::vector<uint32_t>& path) {
            return AppendCapped(path, options.max_cycles, &out.dfs_lengths,
                                &out.dfs_nodes);
          };
          for (uint32_t s = begin; s < end && !ctx.aborted; ++s) {
            if (budget.Exhausted(options.max_cycles)) break;
            if (ctx.CheckInterrupt()) break;
            if (ctx.Alive(s)) ctx.DfsForStart(s);
          }
          if (ctx.interrupted) out.dfs_complete = false;
        }
      }
      budget.MarkDone(c, buffers);
    }
  };

  // The calling thread enumerates too; extra workers come from the
  // caller's pool or a transient one (EffectiveParallelism has already
  // guaranteed this thread is not a pool worker, so blocking on the
  // join cannot deadlock the pool).
  common::RunParallel(options.pool,
                      std::min<size_t>(threads - 1, chunks.size() - 1), worker);
  ExtensionsHistogram()->Record(
      static_cast<double>(extensions.load(std::memory_order_relaxed)));

  // Deterministic merge + replay: all length-2 streams in chunk (= start)
  // order, then all DFS streams — exactly the sequential emission order —
  // with the visitor/max_cycles contract applied on this thread.
  obs::Span merge_span("merge");
  size_t emitted = 0;
  std::vector<uint32_t> scratch;
  auto feed = [&](const std::vector<uint32_t>& lengths,
                  const std::vector<uint32_t>& nodes) {
    size_t offset = 0;
    for (uint32_t len : lengths) {
      scratch.assign(nodes.begin() + static_cast<ptrdiff_t>(offset),
                     nodes.begin() + static_cast<ptrdiff_t>(offset + len));
      offset += len;
      ++emitted;
      if (!visitor(scratch)) return false;
      if (options.max_cycles != 0 && emitted >= options.max_cycles) {
        return false;
      }
    }
    return true;
  };
  // A chunk whose stream was truncated by a deadline/cancel interruption
  // still holds a *prefix* of its sequential output; replaying it and
  // then stopping keeps the overall emission a prefix of the sequential
  // order (the abort-prefix identity guarantee).
  for (const ChunkBuffer& b : buffers) {
    if (!feed(b.len2_lengths, b.len2_nodes)) return emitted;
    if (!b.len2_complete) return emitted;
  }
  for (const ChunkBuffer& b : buffers) {
    if (!feed(b.dfs_lengths, b.dfs_nodes)) return emitted;
    if (!b.dfs_complete) return emitted;
  }
  return emitted;
}

namespace {

/// Visitor that materializes each local-id path as a global-id Cycle.
CycleVisitor CollectInto(const UndirectedView& view, std::vector<Cycle>* out) {
  return [&view, out](const std::vector<uint32_t>& local_cycle) {
    Cycle c;
    c.nodes.reserve(local_cycle.size());
    for (uint32_t local : local_cycle) {
      c.nodes.push_back(view.ToGlobal(local));
    }
    out->push_back(std::move(c));
    return true;
  };
}

}  // namespace

size_t CycleEnumerator::Visit(const CycleEnumerationOptions& options,
                              const CycleVisitor& visitor) const {
  obs::Span span("enumeration", EnumerationHistogram());
  if (common::EffectiveParallelism(options.num_threads, options.pool) > 1) {
    return ParallelVisit(options, visitor);
  }
  return SequentialVisit(options, visitor);
}

std::vector<Cycle> CycleEnumerator::Enumerate(
    const CycleEnumerationOptions& options) const {
  std::vector<Cycle> out;
  Visit(options, CollectInto(*view_, &out));
  return out;
}

std::vector<Cycle> CycleEnumerator::ParallelEnumerate(
    const CycleEnumerationOptions& options) const {
  std::vector<Cycle> out;
  ParallelVisit(options, CollectInto(*view_, &out));
  return out;
}

std::vector<Cycle> EnumerateCycles(const CsrGraph& csr,
                                   const std::vector<NodeId>& nodes,
                                   const CycleEnumerationOptions& options) {
  UndirectedView view(csr, nodes);
  CycleEnumerator enumerator(view);
  return enumerator.Enumerate(options);
}

}  // namespace wqe::graph
