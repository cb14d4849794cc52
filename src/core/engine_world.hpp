#pragma once

// The world both packet engines run (DESIGN.md §11, §12), written once:
// construction, the checkpoint body and result collection. Only the run
// loops differ — the serial engine's segmented run_until (experiment.cpp)
// and the sharded engine's epoch/barrier loop (experiment_sharded.cpp).
// The optional ShardFabric is the one construction input that differs, so
// every NodeId/LinkId, rng draw and fresh-start scheduling order is the
// same in both engines by construction. Internal to xmp_core.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "net/network.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "route/route_manager.hpp"
#include "sim/scheduler.hpp"
#include "stats/probes.hpp"
#include "topo/fattree.hpp"
#include "workload/flow_manager.hpp"

namespace xmp::faults {
class FaultController;
class InvariantChecker;
}  // namespace xmp::faults
namespace xmp::model::hybrid {
class Engine;
}  // namespace xmp::model::hybrid
namespace xmp::net {
class ShardFabric;
}  // namespace xmp::net
namespace xmp::workload {
class PermutationTraffic;
class RandomTraffic;
class IncastTraffic;
class EmpiricalTraffic;
}  // namespace xmp::workload

namespace xmp::core {

/// A checkpoint file read and verified once (header, CRC, fingerprint).
/// The sharded engine restores every attempt, round-flip replays included,
/// from the same in-memory bytes.
struct RestoreImage {
  ckpt::Header h;
  std::string payload;
};

/// Read cfg.checkpoint.restore_path; a bad file is a one-line exit 2.
[[nodiscard]] RestoreImage read_restore_image(const ExperimentConfig& cfg);

class EngineWorld {
 public:
  /// `fabric` (optional, outlives the world) partitions the fabric into
  /// one logical shard per pod; nullptr builds the serial world.
  EngineWorld(const ExperimentConfig& cfg, net::ShardFabric* fabric);
  ~EngineWorld();

  EngineWorld(const EngineWorld&) = delete;
  EngineWorld& operator=(const EngineWorld&) = delete;

  /// Fresh start in the legacy scheduling order: faults, invariant
  /// checker, workload, hybrid engine, probes.
  void start();
  /// Resume from a checkpoint image instead of start(); a malformed
  /// payload is a one-line exit 2.
  void restore(const RestoreImage& img);
  /// Snapshot the world at a quiescent point and publish ckpt_<seq>.bin
  /// (a failed write is reported and the run continues).
  void write_checkpoint();
  /// End-of-run results, then the observability exports (after
  /// collection: they must not observe the run).
  [[nodiscard]] ExperimentResults collect();

  const ExperimentConfig& cfg;
  net::ShardFabric* const fabric;

  // --- observation: installed for the constructing thread only
  // (ParallelRunner gives every sweep job its own thread and observers)
  // and strictly passive: nothing reads the tracers or the registry, so a
  // run with observation is byte-identical to one without. Stream 0 is
  // the serial scheduler / the sharded control strand; stream 1 + s
  // belongs to shard s (merged at export). The registry's instruments are
  // relaxed atomics shared by every shard thread. ---
  std::vector<std::unique_ptr<obs::TimelineTracer>> tracers;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::SimMetrics> sim_metrics;
  obs::ObservationScope scope;

  sim::Scheduler sched;  ///< the serial scheduler, or the sharded control strand
  net::Network netw;
  topo::FatTree tree;
  route::RouteManager routes;
  workload::FlowManager flows_a;
  std::unique_ptr<workload::FlowManager> flows_b;  ///< coexistence scheme_b
  std::unique_ptr<faults::FaultController> fault_ctl;
  std::unique_ptr<faults::InvariantChecker> inv;

  // --- workload: one pattern's generators (none in a hybrid run) ---
  std::unique_ptr<workload::PermutationTraffic> perm;
  std::unique_ptr<workload::RandomTraffic> rand_a;
  std::unique_ptr<workload::RandomTraffic> rand_b;
  std::unique_ptr<workload::IncastTraffic> incast;
  std::unique_ptr<workload::RandomTraffic> incast_bg;
  std::unique_ptr<workload::EmpiricalTraffic> emp;
  std::unique_ptr<model::hybrid::Engine> hybrid;
  std::function<void(int)> start_hybrid_fg;

  /// Accumulates during the run (RTT samples, shard and checkpoint
  /// accounting); collect() completes it.
  ExperimentResults res;
  stats::GaugeProbe rtt_tick;
  stats::UtilizationWindow util;
  std::vector<net::Link*> all_links;  ///< rack, aggregation, core order
  std::array<std::pair<std::size_t, std::size_t>, 3> layer_ranges{};

 private:
  void build_workload();
  void build_hybrid();
  /// Re-creates a saved flow-completion callback from its CallbackTag.
  std::function<void()> bind(const workload::CallbackTag& tag);
  /// The snapshot layout, walked once for both directions.
  struct Io;
  bool transfer(Io& io);
  void publish_ckpt_meters();

  std::uint64_t ckpt_seq_ = 0;  // last checkpoint sequence number used
};

}  // namespace xmp::core
