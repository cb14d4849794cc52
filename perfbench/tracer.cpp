// perfbench_trace — the benchmark's traced run.
//
// Builds the world of one `xmpsim run` through the library's public calls,
// in the order core::run_experiment uses, and records a span around each
// call: topology, routing tables, traffic generator (or hybrid engine),
// the event loop in fixed run_until slices, collection and the summary
// writer. Spans stay in memory until exit and are written as one JSON
// document (CLOCK_MONOTONIC nanoseconds) next to the counts read at the
// slice boundaries. perfbench/run.py turns them into a Chrome trace.
//
//   perfbench_trace --mode=serial  --k=8 --duration=0.1 --seed=1
//                   [--workload=FILE.wl | --hybrid-bg=N --hybrid-fg=N]
//                   [--rounds=2]
//                   --summary=FILE --out=FILE --run-id=ID
//   perfbench_trace --mode=sharded --k=16 --rounds=1 --shards=4 ...
//       one span around core::run_experiment_sharded (its per-shard world
//       is internal to the engine), then the summary writer.
//   perfbench_trace --mode=topo    --k=16 --out=FILE --run-id=ID
//       only the topology and routing-table spans.
//
// Serial mode covers the three configurations the benchmark runs
// (permutation, empirical workload, hybrid) with the CLI's defaults; the
// summary it writes is byte-identical to `xmpsim run --json` for the same
// flags, which the benchmark checks.

#include <time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/export.hpp"
#include "model/hybrid/engine.hpp"
#include "net/network.hpp"
#include "route/route_manager.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "stats/probes.hpp"
#include "topo/fattree.hpp"
#include "workload/empirical.hpp"
#include "workload/flow_manager.hpp"
#include "workload/permutation.hpp"

namespace {

using namespace xmp;

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// In-memory span log: name, start, end and the enclosing span.
class Spans {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  int begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), mono_ns(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = mono_ns();
    open_.pop_back();
  }
  template <class F>
  void scope(std::string name, F&& f) {
    const int id = begin(std::move(name));
    f();
    end(id);
  }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct Flags {
  std::map<std::string, std::string> kv;

  [[nodiscard]] std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  [[nodiscard]] double num(const std::string& k, double def) const {
    const std::string v = get(k);
    if (v.empty()) return def;
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') {
      std::fprintf(stderr, "perfbench_trace: bad --%s=%s\n", k.c_str(), v.c_str());
      std::exit(2);
    }
    return d;
  }
};

core::ExperimentConfig config_from(const Flags& f) {
  core::ExperimentConfig cfg;  // scheme defaults: XMP, 2 subflows, beta 4
  cfg.fat_tree_k = static_cast<int>(f.num("k", 8));
  cfg.duration = sim::Time::seconds(f.num("duration", 0.5));
  cfg.seed = static_cast<std::uint64_t>(f.num("seed", 1));
  cfg.permutation_rounds = static_cast<int>(f.num("rounds", 2));
  cfg.shards = static_cast<int>(f.num("shards", 0));
  const std::string wl = f.get("workload");
  if (!wl.empty()) {
    auto spec = std::make_shared<workload::WorkloadSpec>();
    std::string err;
    if (!workload::WorkloadSpec::parse_file(wl, *spec, &err)) {
      std::fprintf(stderr, "perfbench_trace: bad --workload: %s\n", err.c_str());
      std::exit(2);
    }
    cfg.pattern = core::Pattern::Workload;
    cfg.workload = std::move(spec);
  }
  if (!f.get("hybrid-bg").empty()) {
    cfg.hybrid.enabled = true;
    cfg.hybrid.bg_flows = static_cast<int>(f.num("hybrid-bg", 1000));
    cfg.hybrid.fg_flows = static_cast<int>(f.num("hybrid-fg", 4));
  }
  return cfg;
}

using Counts = std::map<std::string, double>;

/// The event loop runs in this many equal run_until slices.
constexpr int kSlices = 200;

/// Transfers that finished inside the horizon, and those still running.
void count_flows(const core::ExperimentResults& res, Counts& counts) {
  const auto done = std::count_if(res.flows.begin(), res.flows.end(),
                                  [](const workload::FlowRecord& r) { return r.completed; });
  counts["workload.flows_completed"] = static_cast<double>(done);
  counts["workload.flows_censored"] = static_cast<double>(res.flows.size()) - done;
}

/// Serial engine: the fresh-start path of core::run_experiment for the
/// Permutation and Workload patterns and the hybrid engine, without
/// faults, invariants, checkpoints, coexistence or observation.
void run_serial(const core::ExperimentConfig& cfg, const std::string& summary, Spans& spans,
                Counts& counts) {
  sim::Scheduler sched;
  net::Network netw{sched};

  std::unique_ptr<topo::FatTree> tree_ptr;
  spans.scope("topo::FatTree", [&] {
    topo::FatTree::Config tc;
    tc.k = cfg.fat_tree_k;
    tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
    tc.queue.capacity_packets = cfg.queue_capacity;
    tc.queue.mark_threshold = cfg.mark_threshold;
    tree_ptr = std::make_unique<topo::FatTree>(netw, tc);
  });
  topo::FatTree& tree = *tree_ptr;

  route::RouteManager routes{sched, netw, cfg.routing};
  spans.scope("route::RouteManager::install_all", [&] { routes.install_all(); });

  sim::Rng rng{cfg.seed};
  workload::FlowManager flows_a{sched, cfg.scheme};
  std::unique_ptr<workload::PermutationTraffic> perm;
  std::unique_ptr<workload::EmpiricalTraffic> emp;
  std::unique_ptr<model::hybrid::Engine> hybrid;
  std::function<void(int)> start_hybrid_fg;

  if (!cfg.hybrid.enabled) {
    spans.scope("workload::construct", [&] {
      if (cfg.pattern == core::Pattern::Permutation) {
        workload::PermutationTraffic::Config pc;
        pc.min_bytes = cfg.perm_min_bytes;
        pc.max_bytes = cfg.perm_max_bytes;
        pc.rounds = cfg.permutation_rounds;
        perm = std::make_unique<workload::PermutationTraffic>(sched, tree, flows_a, rng.split(),
                                                              pc);
        perm->set_on_done([&sched] { sched.stop(); });
      } else {
        const workload::WorkloadSpec& spec = *cfg.workload;
        workload::EmpiricalTraffic::Config ec;
        ec.cdf = spec.has_cdf ? &spec.cdf : nullptr;
        ec.load = cfg.offered_load > 0.0 ? cfg.offered_load : spec.default_load;
        ec.line_rate_bps = tree.config().link_rate_bps;
        ec.nodes = spec.nodes;
        ec.span = spec.span;
        ec.mice_threshold = spec.mice_threshold;
        ec.trace = &spec.flows;
        emp = std::make_unique<workload::EmpiricalTraffic>(sched, tree, flows_a, rng.split(), ec);
      }
    });
  } else {
    spans.scope("model::hybrid::Engine::add", [&] {
      model::hybrid::Engine::Config hc;
      hc.tick = cfg.hybrid.tick;
      hc.promote_bytes = cfg.hybrid.promote_bytes;
      hybrid = std::make_unique<model::hybrid::Engine>(sched, hc);
      const auto n_hosts = static_cast<std::uint64_t>(tree.n_hosts());
      const int half = cfg.fat_tree_k / 2;
      auto pick_pair = [seed = cfg.seed, n_hosts](std::uint64_t salt, int& src, int& dst) {
        const std::uint64_t h = net::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
        src = static_cast<int>(h % n_hosts);
        dst = static_cast<int>(net::mix64(h) % (n_hosts - 1));
        if (dst >= src) ++dst;
      };
      const double mark_k = static_cast<double>(cfg.mark_threshold);
      auto intern_path = [&](int src, int dst, int agg_choice, int core_choice,
                             double& base_rtt_s) {
        std::vector<int> ids;
        base_rtt_s = 0.0;
        for (net::Link* l : tree.path_links(src, dst, agg_choice, core_choice)) {
          ids.push_back(hybrid->add_link(l, mark_k));
          base_rtt_s += 2.0 * l->prop_delay().sec() +
                        static_cast<double>((net::kDataPacketBytes + net::kAckPacketBytes) * 8) /
                            static_cast<double>(l->rate_bps());
        }
        return hybrid->add_path(ids);
      };
      const int n_sub = cfg.scheme.multipath() ? cfg.scheme.subflows : 1;
      for (int i = 0; i < cfg.hybrid.bg_flows; ++i) {
        model::hybrid::FluidAggregate agg;
        agg.beta = static_cast<double>(cfg.scheme.beta);
        agg.total_bytes = cfg.hybrid.bg_bytes;
        pick_pair(0x1000000ULL + static_cast<std::uint64_t>(i), agg.src_host, agg.dst_host);
        const std::uint64_t hp =
            net::mix64(cfg.seed ^ 0xb5f0'd27cULL ^ (static_cast<std::uint64_t>(i) << 20));
        for (int r = 0; r < n_sub; ++r) {
          model::hybrid::FluidSubflowState sf;
          const int agg_choice = static_cast<int>((hp + static_cast<std::uint64_t>(r)) %
                                                  static_cast<std::uint64_t>(half));
          const int core_choice = static_cast<int>((hp >> 24) % static_cast<std::uint64_t>(half));
          sf.path = intern_path(agg.src_host, agg.dst_host, agg_choice, core_choice,
                                sf.base_rtt_s);
          agg.subflows.push_back(sf);
        }
        hybrid->add_aggregate(std::move(agg));
      }
      hybrid->set_on_promote([&](const model::hybrid::PromotionInfo& info) {
        workload::CallbackTag t;
        t.kind = workload::CallbackTag::kHybridPromoted;
        t.a = info.aggregate;
        flows_a.start_large_flow(tree.host(info.src_host), tree.host(info.dst_host),
                                 info.src_host, info.dst_host, info.remaining_bytes, nullptr, t,
                                 info.cwnd_segments);
      });
      start_hybrid_fg = [&flows_a, &tree, &cfg, &start_hybrid_fg, pick_pair](int slot) {
        int src = 0;
        int dst = 0;
        pick_pair(0x2000000ULL + static_cast<std::uint64_t>(slot), src, dst);
        workload::CallbackTag t;
        t.kind = workload::CallbackTag::kHybridFg;
        t.a = slot;
        flows_a.start_large_flow(tree.host(src), tree.host(dst), src, dst, cfg.hybrid.fg_bytes,
                                 [&start_hybrid_fg, slot] { start_hybrid_fg(slot); }, t);
      };
    });
    counts["hybrid.aggregates"] = static_cast<double>(hybrid->n_aggregates());
  }

  core::ExperimentResults res;
  stats::GaugeProbe rtt_tick{sched, cfg.rtt_sample_interval, [&] {
    flows_a.for_each_active_large_sender(
        [&](const workload::FlowRecord& rec, const transport::TcpSender& s) {
          if (!s.has_rtt_sample()) return;
          const auto cat = tree.category(rec.src_host, rec.dst_host);
          res.rtt_by_category[static_cast<int>(cat)].add(s.srtt().ms());
        });
    return 0.0;
  }};
  stats::UtilizationWindow util{sched};
  std::vector<net::Link*> all_links;
  std::array<std::pair<std::size_t, std::size_t>, 3> layer_ranges;
  for (int l = 0; l < 3; ++l) {
    const auto& ls = tree.links(static_cast<topo::FatTree::Layer>(l));
    layer_ranges[static_cast<std::size_t>(l)] = {all_links.size(), all_links.size() + ls.size()};
    all_links.insert(all_links.end(), ls.begin(), ls.end());
  }
  counts["topo.links"] = static_cast<double>(all_links.size());

  // Fresh-start scheduling order of core::run_experiment: workload, hybrid
  // foreground flows and ticks, probes.
  spans.scope("workload::start", [&] {
    if (perm) perm->start();
    if (emp) emp->start();
    if (hybrid) {
      for (int slot = 0; slot < cfg.hybrid.fg_flows; ++slot) start_hybrid_fg(slot);
      hybrid->start();
    }
    rtt_tick.start();
    util.open(all_links);
  });

  // The event loop in fixed slices; the scheduler's counters are read at
  // every boundary (outside the slice spans).
  double pending_sum = 0.0;
  double pending_max = 0.0;
  int samples = 0;
  spans.scope("sim::Scheduler::run", [&] {
    const std::int64_t horizon = cfg.duration.ns();
    for (int i = 1; i <= kSlices; ++i) {
      const sim::Time target = sim::Time::nanoseconds(horizon * i / kSlices);
      spans.scope("sim::Scheduler::run_until", [&] { sched.run_until(target); });
      const auto pending = static_cast<double>(sched.pending());
      pending_sum += pending;
      pending_max = std::max(pending_max, pending);
      ++samples;
      if (sched.stopped()) break;  // the workload ended the run early
    }
  });
  counts["sim.events"] = static_cast<double>(sched.dispatched());
  counts["sim.pending_mean"] = samples > 0 ? pending_sum / samples : 0.0;
  counts["sim.pending_max"] = pending_max;

  spans.scope("core::collect", [&] {
    const auto utils = util.close();
    for (std::size_t l = 0; l < 3; ++l) {
      for (std::size_t i = layer_ranges[l].first; i < layer_ranges[l].second; ++i) {
        if (!utils.empty()) res.utilization_by_layer[l].add(utils[i]);
        res.queue_occupancy_by_layer[l].add(all_links[i]->queue().mean_occupancy(sched.now()));
      }
    }
    for (const auto& rec : flows_a.records()) {
      res.flows.push_back(rec);
      const auto cat = tree.category(rec.src_host, rec.dst_host);
      res.flow_category.push_back(cat);
      res.flow_scheme.push_back(0);
      if (rec.large && rec.completed) {
        res.goodput.add(rec.goodput_bps() / 1e6);
        res.goodput_by_category[static_cast<int>(cat)].add(rec.goodput_bps() / 1e6);
      }
    }
    flows_a.for_each_partial_large([&](const workload::FlowRecord& rec, std::int64_t bytes) {
      const sim::Time ran = sched.now() - rec.start;
      if (ran < sim::Time::milliseconds(20) || bytes < 128 * net::kMssBytes) return;
      const double mbps = static_cast<double>(bytes) * 8.0 / ran.sec() / 1e6;
      res.goodput.add(mbps);
      res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))]
          .add(mbps);
    });
    if (emp) {
      const topo::FatTree::Config& tc = tree.config();
      const double rate_bps = static_cast<double>(tc.link_rate_bps);
      auto ideal_sec = [&](const workload::FlowRecord& rec) {
        const auto cat = tree.category(rec.src_host, rec.dst_host);
        double prop = 2.0 * tc.rack_delay.sec();
        if (cat != topo::FatTree::Category::InnerRack) prop += 2.0 * tc.agg_delay.sec();
        if (cat == topo::FatTree::Category::InterPod) prop += 2.0 * tc.core_delay.sec();
        return prop + static_cast<double>(rec.bytes) * 8.0 / rate_bps;
      };
      res.fct.offered_load =
          cfg.offered_load > 0.0 ? cfg.offered_load : cfg.workload->default_load;
      res.fct.arrival_rate = emp->arrival_rate();
      for (const auto& rec : flows_a.records()) {
        core::ExperimentResults::FctRecord fr;
        fr.id = rec.id;
        fr.bytes = rec.bytes;
        fr.start_ns = rec.start.ns();
        if (!rec.completed) {
          ++res.fct.censored;
          res.fct_records.push_back(fr);
          continue;
        }
        const double slow = (rec.finish - rec.start).sec() / ideal_sec(rec);
        fr.finish_ns = rec.finish.ns();
        fr.completed = true;
        fr.slowdown = slow;
        res.fct_records.push_back(fr);
        res.fct.slowdown_all.add(slow);
        res.fct.slowdown_by_bin[core::ExperimentResults::FctStats::bin_of(rec.bytes)].add(slow);
        ++res.fct.completed;
      }
    }
    if (hybrid) {
      const auto& hs = hybrid->stats();
      res.hybrid.enabled = true;
      res.hybrid.bg_flows = cfg.hybrid.bg_flows;
      res.hybrid.fg_flows = cfg.hybrid.fg_flows;
      res.hybrid.active_fluid = hybrid->active_fluid_flows();
      res.hybrid.ticks = hs.ticks;
      res.hybrid.promotions = hs.promotions;
      res.hybrid.fluid_completions = hs.fluid_completions;
      res.hybrid.fluid_bytes = hs.fluid_bytes;
      res.hybrid.fluid_throughput_mbps = hybrid->fluid_throughput_bps() / 1e6;
      res.hybrid.mean_mark_p =
          hs.ticks > 0 ? hs.mark_p_accum / static_cast<double>(hs.ticks) : 0.0;
      counts["hybrid.ticks"] = static_cast<double>(hs.ticks);
    }
    res.sim_duration = sched.now();
    res.events_dispatched = sched.dispatched();
    res.drops = stats::collect_drops(netw);
    for (const auto& l : netw.links()) {
      if (l->offered() == 0) continue;
      core::ExperimentResults::LinkDropRow row;
      row.link = l->id();
      row.offered = l->offered();
      row.delivered = l->delivered();
      row.drops = l->drops();
      res.link_drops.push_back(row);
    }
    res.aborted_flows = flows_a.aborted_large_flows();
    for (const net::Switch* sw : netw.switches()) {
      res.switch_forwarded += sw->forwarded();
      res.switch_unroutable += sw->unroutable();
      if (sw->unroutable() > 0) {
        res.switch_drops.push_back({sw->id(), sw->forwarded(), sw->unroutable()});
      }
    }
    res.route_reroutes = routes.reroutes();
    res.route_collisions = routes.collisions();
    res.flowlet_repaths = routes.repaths();
    res.path_rehomes = flows_a.subflow_rehomes();
  });
  count_flows(res, counts);

  spans.scope("core::export_summary_json",
              [&] { core::export_summary_json(cfg, res, summary); });
}

void run_sharded(const core::ExperimentConfig& cfg, const std::string& summary, Spans& spans,
                 Counts& counts) {
  core::ExperimentResults res;
  spans.scope("core::run_experiment_sharded", [&] { res = core::run_experiment_sharded(cfg); });
  counts["sim.events"] = static_cast<double>(res.events_dispatched);
  count_flows(res, counts);
  spans.scope("core::export_summary_json",
              [&] { core::export_summary_json(cfg, res, summary); });
}

/// Topology and routing tables alone — the sharded engine builds these
/// internally, so their cost at its scale is measured here.
void run_topo(const core::ExperimentConfig& cfg, Spans& spans, Counts& counts) {
  sim::Scheduler sched;
  net::Network netw{sched};
  std::unique_ptr<topo::FatTree> tree;
  spans.scope("topo::FatTree", [&] {
    topo::FatTree::Config tc;
    tc.k = cfg.fat_tree_k;
    tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
    tc.queue.capacity_packets = cfg.queue_capacity;
    tc.queue.mark_threshold = cfg.mark_threshold;
    tree = std::make_unique<topo::FatTree>(netw, tc);
  });
  route::RouteManager routes{sched, netw, cfg.routing};
  spans.scope("route::RouteManager::install_all", [&] { routes.install_all(); });
  counts["topo.links"] = static_cast<double>(netw.links().size());
}

bool write_out(const std::string& path, const std::string& run_id, const Spans& spans,
               const Counts& counts) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\": \"%s\", \"spans\": [", run_id.c_str());
  const auto& all = spans.all();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    std::fprintf(f, "%s\n  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld}",
                 i == 0 ? "" : ",", i, s.parent, s.name.c_str(),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "],\n\"counts\": {");
  bool first = true;
  for (const auto& [k, v] : counts) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", k.c_str(), v);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "perfbench_trace: expected --key=value, got %s\n", a.c_str());
      return 2;
    }
    flags.kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  const std::string mode = flags.get("mode", "serial");
  const std::string out = flags.get("out");
  const std::string summary = flags.get("summary");
  if (out.empty() || (mode != "topo" && summary.empty())) {
    std::fprintf(stderr, "perfbench_trace: --out=FILE (and --summary=FILE) required\n");
    return 2;
  }
  const core::ExperimentConfig cfg = config_from(flags);

  Spans spans;
  Counts counts;
  const int root = spans.begin("perfbench_trace " + mode);
  if (mode == "serial") {
    run_serial(cfg, summary, spans, counts);
  } else if (mode == "sharded") {
    run_sharded(cfg, summary, spans, counts);
  } else if (mode == "topo") {
    run_topo(cfg, spans, counts);
  } else {
    std::fprintf(stderr, "perfbench_trace: bad --mode=%s\n", mode.c_str());
    return 2;
  }
  spans.end(root);
  if (!write_out(out, flags.get("run-id", "run"), spans, counts)) {
    std::fprintf(stderr, "perfbench_trace: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
