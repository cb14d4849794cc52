// Both packet engines report their results through one collector
// (core/engine_world). Whatever the engine, the per-link drop rows must
// reconcile with the fleet totals and with the metrics registry — checked
// here under the gray-failure plan of scripts/gray_diff.sh, which exercises
// every impairment column (duplicated, delayed, overmarked).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "core/mini_json.hpp"
#include "faults/fault_plan.hpp"

namespace xmp::core {
namespace {

constexpr const char* kGrayPlan =
    "degrade,link=2,at=0.01,factor=0.4,until=0.03;"
    "delay,link=5,at=0.005,dt=1e-4,jitter=5e-5,until=0.04;"
    "reorder,link=7,at=0.01,p=0.05,dt=2e-4;"
    "duplicate,link=9,at=0,p=0.02;"
    "overmark,link=11,at=0.02,p=0.3";

ExperimentResults run_gray(int shards, const std::string& metrics_path) {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.duration = sim::Time::seconds(0.05);
  cfg.seed = 11;
  cfg.shards = shards;
  std::string err;
  EXPECT_TRUE(faults::FaultPlan::parse(kGrayPlan, cfg.fault_plan, &err)) << err;
  cfg.obs.metrics_json = metrics_path;
  return run_experiment(cfg);
}

void expect_reconciled(int shards) {
  const std::string metrics_path =
      ::testing::TempDir() + "xmp_engine_parity_" + std::to_string(shards) + ".json";
  const ExperimentResults res = run_gray(shards, metrics_path);
  EXPECT_EQ(res.sharded, shards > 0);

  stats::DropBreakdown sum;
  for (const auto& row : res.link_drops) {
    sum.offered += row.offered;
    sum.delivered += row.delivered;
    sum.queue += row.drops.queue;
    sum.admin_down += row.drops.admin_down;
    sum.fault += row.drops.fault;
    sum.corrupt += row.drops.corrupt;
    sum.duplicated += row.duplicated;
    sum.delayed += row.delayed;
    sum.overmarked += row.overmarked;
    // Clones enter a link on top of what was offered; whatever was neither
    // delivered nor dropped is still queued, on the wire or held.
    const std::uint64_t dropped =
        row.drops.queue + row.drops.admin_down + row.drops.fault + row.drops.corrupt;
    EXPECT_GE(row.offered + row.duplicated, row.delivered + dropped) << "link " << row.link;
  }
  EXPECT_EQ(sum.offered, res.drops.offered);
  EXPECT_EQ(sum.delivered, res.drops.delivered);
  EXPECT_EQ(sum.queue, res.drops.queue);
  EXPECT_EQ(sum.admin_down, res.drops.admin_down);
  EXPECT_EQ(sum.fault, res.drops.fault);
  EXPECT_EQ(sum.corrupt, res.drops.corrupt);
  EXPECT_EQ(sum.duplicated, res.drops.duplicated);
  EXPECT_EQ(sum.delayed, res.drops.delayed);
  EXPECT_EQ(sum.overmarked, res.drops.overmarked);
  // The plan must actually have exercised every impairment column.
  EXPECT_GT(res.drops.duplicated, 0u);
  EXPECT_GT(res.drops.delayed, 0u);
  EXPECT_GT(res.drops.overmarked, 0u);

  json::JsonValue metrics;
  std::string err;
  ASSERT_TRUE(json::parse_file(metrics_path, metrics, &err)) << err;
  std::remove(metrics_path.c_str());
  const auto& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("packets_delivered").number, static_cast<double>(res.drops.delivered));
  EXPECT_EQ(counters.at("packets_dropped").number, static_cast<double>(res.drops.total_drops()));
  EXPECT_EQ(counters.at("switch_forwarded").number, static_cast<double>(res.switch_forwarded));
}

TEST(EngineParity, SerialGrayDropRowsReconcile) { expect_reconciled(0); }

TEST(EngineParity, ShardedGrayDropRowsReconcile) { expect_reconciled(1); }

}  // namespace
}  // namespace xmp::core
