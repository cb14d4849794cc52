#include <cassert>
#include <memory>
#include <set>

#include "core/engine_world.hpp"
#include "core/experiment.hpp"
#include "core/parallel_runner.hpp"
#include "net/handoff.hpp"
#include "workload/permutation.hpp"

// The sharded conservative-sync engine (DESIGN.md §11).
//
// The fabric is partitioned into one *logical* shard per pod (plus the
// round-robin core assignment) at topology-construction time; cfg.shards
// only sizes the worker pool, so every run is bit-identical across worker
// counts by construction. Shards advance in epochs of length
//
//   L = min cross-shard propagation delay  (the lookahead),
//
// executing events strictly before the epoch boundary in parallel: a packet
// another shard sends during the same epoch cannot arrive earlier than
// epoch_start + L, so nothing a shard runs inside the window can be
// invalidated. At the barrier, parked cross-shard packets are drained in a
// fixed (dst, src, FIFO) merge order, every clock advances to the boundary,
// and the control strand (RTT probe, fault plan, route manager) runs with
// the whole fabric quiesced.
//
// Global transitions — a Permutation round flip fans flow construction out
// to every shard — must not run mid-epoch on a worker thread. The workload
// defers a round completion that lands inside a parallel epoch and flags
// the engine, which discards the attempt and replays it from scratch with
// that epoch pinned serial (micro-stepped in global (t, control-first,
// shard-index) order). A cheap gate makes replays rare: once a round has
// at most one flow left, the engine micro-steps until the next round is in
// full flight again.

namespace xmp::core {

namespace {

struct AttemptOutcome {
  bool ok = true;
  std::int64_t failed_epoch_start_ns = 0;  ///< epoch to pin serial on replay
  ExperimentResults res;
};

AttemptOutcome attempt(const ExperimentConfig& cfg, const std::set<std::int64_t>& forced,
                       WorkerPool& pool, std::uint64_t replays, const RestoreImage* restore) {
  AttemptOutcome out;

  // The world installs tracer stream 0 on this thread: the engine observes
  // as the control strand for the whole attempt (epoch/barrier markers,
  // serial micro-steps, control events).
  net::ShardFabric fabric{cfg.fat_tree_k};
  EngineWorld w{cfg, &fabric};
  sim::Scheduler& control = w.sched;  // the control strand
  workload::PermutationTraffic& perm = *w.perm;
  ExperimentResults::ShardStats& stats = w.res.shard;
  stats.replays = replays;
  const int n_shards = fabric.n_shards();

  // --- workload (Permutation only; the caller asserted the pattern) ---
  bool done = false;
  sim::Time final_time = cfg.duration;
  perm.set_on_done([&done, &final_time, &control] {
    done = true;
    // Fires inside a serial micro-step: the dispatching scheduler's clock
    // is the exact completion instant (the serial engine's sched.now()).
    sim::Scheduler* cs = sim::current_scheduler();
    final_time = cs != nullptr ? cs->now() : control.now();
  });
  if (restore != nullptr) {
    w.restore(*restore);
  } else {
    w.start();
  }

  // --- the epoch engine ---
  const sim::Time horizon = cfg.duration;
  // A fabric with no cross-shard links has unbounded lookahead; one epoch
  // spans the whole horizon. (Unreachable for a Fat-Tree, where pods only
  // connect through cores, but it keeps the math total.)
  const sim::Time lookahead = fabric.has_cross_links()
                                  ? fabric.lookahead()
                                  : horizon + sim::Time::nanoseconds(1);

  auto all_clocks_to = [&](sim::Time t) {
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).advance_clock_to(t);
    control.advance_clock_to(t);
  };

  // The strand with the earliest pending event; the control strand wins
  // ties, then ascending shard index — the canonical order that keeps
  // serial segments a pure function of simulation state.
  auto earliest = [&](sim::Time& t_out) -> sim::Scheduler* {
    sim::Scheduler* who = nullptr;
    sim::Time best = control.next_time();
    if (best < sim::Time::infinity()) who = &control;
    for (int s = 0; s < n_shards; ++s) {
      sim::Scheduler& ss = fabric.sched(s);
      const sim::Time t = ss.next_time();
      if (t < best) {
        best = t;
        who = &ss;
      }
    }
    t_out = best;
    return who;
  };

  // Snapshots happen only at barriers, where handoff channels are drained
  // and every clock is aligned — the sharded engine's quiescent points.
  const bool ckpt_on = cfg.checkpoint.enabled();
  const std::atomic<bool>* stop_flag = cfg.checkpoint.stop_requested;
  const sim::Time every = cfg.checkpoint.every;
  // The next periodic boundary is a pure function of the clock, so a
  // resumed run checkpoints at the same sim times as an uninterrupted one.
  sim::Time next_ckpt = sim::Time::infinity();
  if (every > sim::Time::zero()) {
    next_ckpt = sim::Time::nanoseconds((control.now().ns() / every.ns() + 1) * every.ns());
  }

  sim::Time start = control.now();

  while (!done && start < horizon) {
    const bool forced_serial = forced.count(start.ns()) > 0;
    const bool gate_serial = perm.pending_flows() <= 1;
    // One barrier closes every epoch or serial segment, so the barrier
    // count is this epoch's index.
    const auto epoch_idx = static_cast<std::uint32_t>(stats.barriers);

    if (forced_serial || gate_serial) {
      // ---- serial segment: global one-event micro-steps ----
      const sim::Time serial_until = start + lookahead;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, epoch_idx, serial_until.us(), /*serial=*/true);
      }
      sim::Time seg_t = start;
      for (;;) {
        sim::Time t;
        sim::Scheduler* s = earliest(t);
        if (s == nullptr || t > horizon) {
          seg_t = horizon;
          break;
        }
        // The segment ends once the next round is in full flight again and
        // one full lookahead window has been stepped through.
        if (t >= serial_until && perm.pending_flows() > 1) break;
        s->step_one();
        ++stats.micro_steps;
        stats.handoff_packets += fabric.drain_all();
        all_clocks_to(t);
        seg_t = t;
        if (done) break;
        // Clocks are aligned and handoffs drained right here, so an external
        // stop can cut the segment short and still checkpoint safely below.
        if (stop_flag != nullptr && stop_flag->load()) break;
      }
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(seg_t, epoch_idx, 0);
      }
      start = seg_t > start ? seg_t : start;
    } else {
      // ---- parallel epoch [start, b) ----
      sim::Time b = start + lookahead;
      const sim::Time ct = control.next_time();
      if (ct < b) b = ct;  // the control strand defines the next boundary
      if (b > horizon) b = horizon;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_epoch(start, epoch_idx, b.us(), /*serial=*/false);
      }

      obs::SimMetrics* metrics = w.sim_metrics.get();
      perm.set_parallel_phase(true);
      pool.run(n_shards, [&fabric, &w, metrics, b](int s) {
        obs::ObservationScope shard_scope{
            w.tracers.empty() ? nullptr : w.tracers[static_cast<std::size_t>(s) + 1].get(),
            metrics};
        fabric.sched(s).run_before(b);
      });
      perm.set_parallel_phase(false);

      if (perm.deferred_done()) {
        // A round completed mid-epoch; the flip must run serially. Discard
        // this attempt and replay with this epoch pinned.
        out.ok = false;
        out.failed_epoch_start_ns = start.ns();
        return out;
      }

      // ---- barrier: drain handoffs, align clocks, run the control strand ----
      const std::uint64_t drained = fabric.drain_all();
      stats.handoff_packets += drained;
      all_clocks_to(b);
      control.run_until(b);
      ++stats.epochs;
      ++stats.barriers;
      if (auto* tr = obs::tracer(); tr != nullptr) [[unlikely]] {
        tr->shard_barrier(b, epoch_idx, drained);
      }
      start = b;
    }

    // ---- quiescent point: channels drained, every clock == start ----
    if (ckpt_on && !done) {
      if (stop_flag != nullptr && stop_flag->load()) {
        w.write_checkpoint();
        w.res.ckpt.interrupted = true;
        final_time = start;  // partial summary covers [0, halt)
        break;
      }
      if (start >= next_ckpt) {
        w.write_checkpoint();
        next_ckpt = sim::Time::nanoseconds((start.ns() / every.ns() + 1) * every.ns());
      }
    }
  }

  if (!done && !w.res.ckpt.interrupted) {
    // Horizon pass: the serial engine's run_until bound is inclusive, so
    // events at exactly t == horizon still run (canonical order; equal-time
    // events on different shards cannot interact within the instant).
    control.run_until(horizon);
    for (int s = 0; s < n_shards; ++s) fabric.sched(s).run_until(horizon);
    all_clocks_to(horizon);
    final_time = horizon;
  }

  out.res = w.collect();
  out.res.sim_duration = final_time;
  return out;
}

}  // namespace

ExperimentResults run_experiment_sharded(const ExperimentConfig& cfg) {
  assert(cfg.shards >= 1);
  assert(cfg.pattern == Pattern::Permutation &&
         "sharded engine: Permutation pattern only (CLI rejects others)");
  assert(!cfg.scheme_b && "sharded engine: coexistence runs are serial-only");
  assert(cfg.routing.kind != route::PolicyKind::Flowlet &&
         "sharded engine: flowlet repathing reads the control clock per packet");
  assert(!cfg.check_invariants && "sharded engine: invariant probing is serial-only");
  assert(cfg.scheme.max_rehomes == 0 && "sharded engine: subflow re-homing is serial-only");

  // A restore image is read and verified once; every attempt (including
  // round-flip replays) restores from the same in-memory bytes.
  std::unique_ptr<RestoreImage> restore;
  if (!cfg.checkpoint.restore_path.empty()) {
    restore = std::make_unique<RestoreImage>(read_restore_image(cfg));
  }

  WorkerPool pool{static_cast<unsigned>(cfg.shards)};
  std::set<std::int64_t> forced;  // epoch starts pinned serial by failed attempts
  for (;;) {
    AttemptOutcome out = attempt(cfg, forced, pool, forced.size(), restore.get());
    if (out.ok) return std::move(out.res);
    // Abort-and-replay: deterministic world construction makes the replay
    // reach the same epoch with the same state, now micro-stepped serially.
    const bool fresh = forced.insert(out.failed_epoch_start_ns).second;
    assert(fresh && "replayed epoch deferred again despite serial pinning");
    (void)fresh;
  }
}

}  // namespace xmp::core
