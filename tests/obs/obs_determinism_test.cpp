// Determinism guard for the observability layer.
//
// Tracing must be purely passive: a run with the tracer and metrics
// installed must produce a byte-identical summary to the same seed run
// with observability disabled. The tracer piggybacks every sample on
// existing activity (queue enqueue/dequeue, scheduler dispatch strides)
// precisely so this holds; this test pins that property.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "core/mini_json.hpp"

namespace xmp::core {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* name) : path{std::string{"/tmp/xmp_obs_det_"} + name} {}
  ~TempFile() { std::remove(path.c_str()); }
};

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.fat_tree_k = 4;
  cfg.pattern = Pattern::Permutation;
  cfg.scheme.kind = workload::SchemeSpec::Kind::Xmp;
  cfg.scheme.subflows = 2;
  cfg.permutation_rounds = 1;
  cfg.perm_min_bytes = 250'000;
  cfg.perm_max_bytes = 500'000;
  cfg.duration = sim::Time::seconds(0.02);
  cfg.seed = 1234;
  return cfg;
}

TEST(ObsDeterminism, TracingDisabledVsEnabledIsByteIdentical) {
  TempFile plain{"plain.json"};
  TempFile traced_summary{"traced_summary.json"};
  TempFile trace{"trace.json"};
  TempFile trace_csv{"trace.csv"};
  TempFile metrics{"metrics.json"};

  auto cfg = small_cfg();
  const auto baseline = run_experiment(cfg);
  export_summary_json(cfg, baseline, plain.path);

  cfg.obs.trace_json = trace.path;
  cfg.obs.trace_csv = trace_csv.path;
  cfg.obs.metrics_json = metrics.path;
  const auto observed = run_experiment(cfg);
  cfg.obs = ObsConfig{};  // summary must not embed the obs file paths
  export_summary_json(cfg, observed, traced_summary.path);

  EXPECT_EQ(baseline.events_dispatched, observed.events_dispatched);
  EXPECT_EQ(baseline.flows.size(), observed.flows.size());
  EXPECT_EQ(baseline.goodput.mean(), observed.goodput.mean());

  const std::string a = slurp(plain.path);
  const std::string b = slurp(traced_summary.path);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "tracing perturbed the simulation trajectory";
}

TEST(ObsDeterminism, TracedRunEmitsValidPerfettoJsonAndMetrics) {
  TempFile trace{"golden_trace.json"};
  TempFile metrics{"golden_metrics.json"};

  auto cfg = small_cfg();
  cfg.obs.trace_json = trace.path;
  cfg.obs.metrics_json = metrics.path;
  run_experiment(cfg);

  // The Chrome trace must parse and expose per-subflow cwnd and δ-gain
  // counter tracks plus named flow/link processes — the contract Perfetto
  // and scripts/validate_trace.py rely on.
  const auto root = core::json::MiniJsonParser::parse(slurp(trace.path));
  ASSERT_TRUE(root.is_object());
  ASSERT_TRUE(root.at("traceEvents").is_array());
  EXPECT_GT(root.at("otherData").at("events").number, 0.0);

  bool saw_cwnd_counter = false;
  bool saw_gain_counter = false;
  bool saw_named_link = false;
  bool saw_subflow1 = false;
  for (const auto& ev : root.at("traceEvents").array) {
    ASSERT_TRUE(ev.is_object());
    const std::string& name = ev.at("name").str;
    const std::string& ph = ev.at("ph").str;
    if (ph == "C" && name.rfind("cwnd[", 0) == 0) saw_cwnd_counter = true;
    if (ph == "C" && name == "gain[1]") {
      saw_gain_counter = true;
      saw_subflow1 = true;
    }
    if (ph == "M" && name == "process_name" &&
        ev.at("args").at("name").str.find("link") != std::string::npos) {
      saw_named_link = true;
    }
  }
  EXPECT_TRUE(saw_cwnd_counter);
  EXPECT_TRUE(saw_gain_counter);
  EXPECT_TRUE(saw_named_link);
  EXPECT_TRUE(saw_subflow1);  // both subflows of the 2-subflow XMP scheme

  const auto m = core::json::MiniJsonParser::parse(slurp(metrics.path));
  ASSERT_TRUE(m.is_object());
  EXPECT_GT(m.at("counters").at("packets_delivered").number, 0.0);
  EXPECT_GT(m.at("histograms").at("fct_us").at("count").number, 0.0);
}

TEST(ObsDeterminism, CategoryFilterRestrictsTraceContents) {
  TempFile trace{"filtered_trace.json"};

  auto cfg = small_cfg();
  cfg.obs.trace_json = trace.path;
  cfg.obs.categories = obs::cat::kCwnd;
  run_experiment(cfg);

  const auto root = core::json::MiniJsonParser::parse(slurp(trace.path));
  for (const auto& ev : root.at("traceEvents").array) {
    const std::string& ph = ev.at("ph").str;
    if (ph == "M") continue;  // metadata is always emitted
    EXPECT_EQ(ph, "C");
    EXPECT_EQ(ev.at("name").str.rfind("cwnd[", 0), 0u) << ev.at("name").str;
  }
}

}  // namespace
}  // namespace xmp::core
