#include "core/experiment.hpp"

#include "core/engine_world.hpp"
#include "workload/permutation.hpp"

namespace xmp::core {

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::Permutation:
      return "Permutation";
    case Pattern::Random:
      return "Random";
    case Pattern::Incast:
      return "Incast";
    case Pattern::Workload:
      return "Workload";
  }
  return "?";
}

const char* ExperimentResults::FctStats::bin_name(int b) {
  switch (b) {
    case 0: return "0-10K";
    case 1: return "10K-100K";
    case 2: return "100K-1M";
    case 3: return "1M-10M";
    case 4: return ">10M";
  }
  return "?";
}

int ExperimentResults::FctStats::bin_of(std::int64_t bytes) {
  if (bytes < 10'000) return 0;
  if (bytes < 100'000) return 1;
  if (bytes < 1'000'000) return 2;
  if (bytes < 10'000'000) return 3;
  return 4;
}

double ExperimentResults::avg_job_completion_ms() const {
  stats::Distribution d;
  for (const auto& j : jobs) {
    if (j.completed) d.add(j.completion_time().ms());
  }
  return d.mean();
}

double ExperimentResults::job_completion_over_ms(double threshold_ms) const {
  std::size_t total = 0;
  std::size_t over = 0;
  for (const auto& j : jobs) {
    if (!j.completed) continue;
    ++total;
    if (j.completion_time().ms() > threshold_ms) ++over;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(over) / static_cast<double>(total);
}

ExperimentResults run_experiment(const ExperimentConfig& cfg) {
  if (cfg.shards > 0) return run_experiment_sharded(cfg);
  EngineWorld w{cfg, nullptr};
  sim::Scheduler& sched = w.sched;
  if (w.perm) w.perm->set_on_done([&sched] { sched.stop(); });
  if (!cfg.checkpoint.restore_path.empty()) {
    w.restore(read_restore_image(cfg));
  } else {
    w.start();
  }

  if (!cfg.checkpoint.enabled()) {
    sched.run_until(cfg.duration);
    return w.collect();
  }
  if (cfg.checkpoint.stop_requested) sched.set_external_stop(cfg.checkpoint.stop_requested);
  const sim::Time every = cfg.checkpoint.every;
  // Segmented run: each segment ends at the next absolute multiple of
  // `every` (so a resumed run checkpoints at the same sim times as an
  // uninterrupted one) or at the horizon, whichever is earlier.
  while (true) {
    sim::Time target = cfg.duration;
    bool boundary = false;
    if (every > sim::Time::zero()) {
      const std::int64_t next = (sched.now().ns() / every.ns() + 1) * every.ns();
      if (next < cfg.duration.ns()) {
        target = sim::Time::nanoseconds(next);
        boundary = true;
      }
    }
    sched.run_until(target);
    if (cfg.checkpoint.stop_requested && cfg.checkpoint.stop_requested->load()) {
      // Halted between events — always a quiescent point in a serial DES.
      w.write_checkpoint();
      w.res.ckpt.interrupted = true;
      break;
    }
    if (sched.stopped()) break;  // the workload ended the run early
    if (!boundary) break;        // reached the horizon
    w.write_checkpoint();
  }
  sched.set_external_stop(nullptr);
  return w.collect();
}

}  // namespace xmp::core
