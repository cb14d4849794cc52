#include "core/engine_world.hpp"

#include <cstdio>
#include <cstdlib>

#include "core/export.hpp"
#include "faults/fault_controller.hpp"
#include "faults/invariant_checker.hpp"
#include "model/hybrid/engine.hpp"
#include "net/handoff.hpp"
#include "sim/random.hpp"
#include "workload/empirical.hpp"
#include "workload/permutation.hpp"
#include "workload/random_traffic.hpp"

namespace xmp::core {

namespace {

std::vector<std::unique_ptr<obs::TimelineTracer>> make_tracers(const ExperimentConfig& cfg,
                                                               const net::ShardFabric* fabric) {
  std::vector<std::unique_ptr<obs::TimelineTracer>> out;
  if (!cfg.obs.tracing()) return out;
  obs::TimelineTracer::Config oc;
  oc.capacity = cfg.obs.capacity;
  oc.categories = cfg.obs.categories;
  const int streams = 1 + (fabric != nullptr ? fabric->n_shards() : 0);
  for (int i = 0; i < streams; ++i) out.push_back(std::make_unique<obs::TimelineTracer>(oc));
  return out;
}

topo::FatTree::Config fat_tree_config(const ExperimentConfig& cfg) {
  topo::FatTree::Config tc;
  tc.k = cfg.fat_tree_k;
  tc.queue.kind = net::QueueConfig::Kind::EcnThreshold;
  tc.queue.capacity_packets = cfg.queue_capacity;
  tc.queue.mark_threshold = cfg.mark_threshold;
  return tc;
}

/// Shard-aware construction must be switched on before the topology is built.
net::Network& with_fabric(net::Network& netw, net::ShardFabric* fabric) {
  netw.set_shard_fabric(fabric);
  return netw;
}

}  // namespace

RestoreImage read_restore_image(const ExperimentConfig& cfg) {
  RestoreImage img;
  std::string err;
  if (!ckpt::read_file(cfg.checkpoint.restore_path, ckpt::config_fingerprint(cfg), img.h,
                       img.payload, &err)) {
    std::fprintf(stderr, "xmpsim: restore failed: %s\n", err.c_str());
    std::exit(2);
  }
  return img;
}

EngineWorld::EngineWorld(const ExperimentConfig& c, net::ShardFabric* f)
    : cfg{c},
      fabric{f},
      tracers{make_tracers(c, f)},
      registry{c.obs.enabled() ? std::make_unique<obs::MetricsRegistry>() : nullptr},
      sim_metrics{registry ? std::make_unique<obs::SimMetrics>(*registry) : nullptr},
      scope{tracers.empty() ? nullptr : tracers.front().get(), sim_metrics.get()},
      netw{sched},
      tree{with_fabric(netw, f), fat_tree_config(c)},
      routes{sched, netw, c.routing},
      flows_a{sched, c.scheme},
      // The gauge hook samples into the category distributions directly;
      // the probe machinery just provides the periodic tick.
      rtt_tick{sched, c.rtt_sample_interval,
               [this] {
                 auto sample = [this](const workload::FlowManager& fm) {
                   fm.for_each_active_large_sender(
                       [this](const workload::FlowRecord& rec, const transport::TcpSender& s) {
                         if (!s.has_rtt_sample()) return;
                         const auto cat = tree.category(rec.src_host, rec.dst_host);
                         res.rtt_by_category[static_cast<int>(cat)].add(s.srtt().ms());
                       });
                 };
                 sample(flows_a);
                 if (flows_b) sample(*flows_b);
                 return 0.0;
               }},
      util{sched} {
  // --- routing tables (the default Pinned config replays the legacy
  // built-in hash bit for bit and schedules nothing while no link fails,
  // so fault-free default runs stay byte-identical) ---
  routes.install_all();

  if (fabric != nullptr) {
    flows_a.set_schedulers([this](int host) -> sim::Scheduler& {
      return fabric->sched(netw.shard_of(tree.host(host)));
    });
  }
  if (cfg.scheme_b) {
    // Disjoint id space: flow ids are endpoint demux keys at the hosts.
    flows_b = std::make_unique<workload::FlowManager>(sched, *cfg.scheme_b,
                                                      net::FlowId{1} << 24);
  }

  // --- fault injection (no-op when the plan is empty). arm() is deferred
  // to start(); on a restore the checkpoint re-arms the pending plan
  // events instead. ---
  if (!cfg.fault_plan.empty()) {
    faults::FaultController::Config fcc;
    fcc.seed = cfg.fault_seed;
    fault_ctl = std::make_unique<faults::FaultController>(sched, netw, cfg.fault_plan, fcc);
  }

  if (cfg.check_invariants) {
    inv = std::make_unique<faults::InvariantChecker>(sched);
    inv->watch_network(netw);
    for (workload::FlowManager* fm : {&flows_a, flows_b.get()}) {
      if (fm == nullptr) continue;
      inv->add_sender_enumerator([fm](const faults::InvariantChecker::SenderVisitor& v) {
        fm->for_each_active_large_sender(
            [&v](const workload::FlowRecord&, const transport::TcpSender& s) { v(s); });
      });
      inv->add_connection_enumerator([fm](const faults::InvariantChecker::ConnectionVisitor& v) {
        fm->for_each_active_connection([&v](mptcp::MptcpConnection& c) { v(c); });
      });
    }
    // start() is deferred: on a restore it must schedule after the clock
    // and sequence counter have been restored.
  }

  // A hybrid run replaces the pattern entirely (the CLI rejects an
  // explicit --pattern), so no generator is built.
  if (cfg.hybrid.enabled) {
    build_hybrid();
  } else {
    build_workload();
  }

  // Traced runs name each link's track after its layer.
  for (int l = 0; l < 3; ++l) {
    const auto layer = static_cast<topo::FatTree::Layer>(l);
    const auto& ls = tree.links(layer);
    layer_ranges[l] = {all_links.size(), all_links.size() + ls.size()};
    all_links.insert(all_links.end(), ls.begin(), ls.end());
    if (tracers.empty()) continue;
    for (const net::Link* link : ls) {
      tracers.front()->name_link(link->id(), std::string{topo::FatTree::layer_name(layer)} +
                                                 " link " + std::to_string(link->id()));
    }
  }
}

EngineWorld::~EngineWorld() = default;

void EngineWorld::build_workload() {
  // Generators are constructed on both the fresh and the restore path (the
  // rng.split() draws happen here, identically); start() is deferred so a
  // restore can rebuild their state instead.
  sim::Rng rng{cfg.seed};
  switch (cfg.pattern) {
    case Pattern::Permutation: {
      workload::PermutationTraffic::Config pc;
      pc.min_bytes = cfg.perm_min_bytes;
      pc.max_bytes = cfg.perm_max_bytes;
      pc.rounds = cfg.permutation_rounds;
      perm = std::make_unique<workload::PermutationTraffic>(sched, tree, flows_a, rng.split(), pc);
      break;
    }
    case Pattern::Random: {
      workload::RandomTraffic::Config rc;
      rc.min_bytes = cfg.rand_min_bytes;
      rc.max_bytes = cfg.rand_max_bytes;
      if (flows_b) {
        // Coexistence: even hosts use scheme A, odd hosts scheme B.
        workload::RandomTraffic::Config rc_b = rc;
        for (int h = 0; h < tree.n_hosts(); ++h) {
          (h % 2 == 0 ? rc.senders : rc_b.senders).push_back(h);
        }
        rand_b = std::make_unique<workload::RandomTraffic>(sched, tree, *flows_b, rng.split(), rc_b);
      }
      rand_a = std::make_unique<workload::RandomTraffic>(sched, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Incast: {
      incast = std::make_unique<workload::IncastTraffic>(sched, tree, flows_a, rng.split(),
                                                         cfg.incast);
      workload::RandomTraffic::Config rc;
      rc.min_bytes = cfg.rand_min_bytes;
      rc.max_bytes = cfg.rand_max_bytes;
      rc.exclude_same_rack = true;  // paper footnote 8
      incast_bg = std::make_unique<workload::RandomTraffic>(sched, tree, flows_a, rng.split(), rc);
      break;
    }
    case Pattern::Workload: {
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
      break;
    }
  }
}

// --- hybrid fluid/packet engine (DESIGN.md §14) ---
void EngineWorld::build_hybrid() {
  model::hybrid::Engine::Config hc;
  hc.tick = cfg.hybrid.tick;
  hc.promote_bytes = cfg.hybrid.promote_bytes;
  hybrid = std::make_unique<model::hybrid::Engine>(sched, hc);

  const auto n_hosts = static_cast<std::uint64_t>(tree.n_hosts());
  const int half = cfg.fat_tree_k / 2;
  // Endpoint placement is derived by hashing (seed, index) rather than by
  // consuming the workload rng stream, so the fluid population never
  // perturbs the packet-domain draw sequence. Value captures only: this
  // lambda is copied into start_hybrid_fg, which outlives this call.
  auto pick_pair = [seed = cfg.seed, n_hosts](std::uint64_t salt, int& src, int& dst) {
    const std::uint64_t h = net::mix64(seed * 0x9e3779b97f4a7c15ULL + salt);
    src = static_cast<int>(h % n_hosts);
    dst = static_cast<int>(net::mix64(h) % (n_hosts - 1));
    if (dst >= src) ++dst;
  };
  // Interning a path registers its links on first sight; every queue in
  // the fabric shares the same ECN threshold K.
  const double mark_k = static_cast<double>(cfg.mark_threshold);
  auto intern_path = [&](int src, int dst, int agg_choice, int core_choice, double& base_rtt_s) {
    const auto links = tree.path_links(src, dst, agg_choice, core_choice);
    std::vector<int> ids;
    ids.reserve(links.size());
    base_rtt_s = 0.0;
    for (net::Link* l : links) {
      ids.push_back(hybrid->add_link(l, mark_k));
      // Data out plus the ACK back over the mirror link: twice the
      // propagation, plus store-and-forward serialization of both packets.
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
      // Distinct aggregation-layer choice per subflow (one pinned path
      // each, as in the packet domain); inner-rack pairs collapse to the
      // single rack path and the engine dedups it.
      const int agg_choice = static_cast<int>((hp + static_cast<std::uint64_t>(r)) %
                                              static_cast<std::uint64_t>(half));
      const int core_choice = static_cast<int>((hp >> 24) % static_cast<std::uint64_t>(half));
      sf.path = intern_path(agg.src_host, agg.dst_host, agg_choice, core_choice, sf.base_rtt_s);
      agg.subflows.push_back(sf);
    }
    hybrid->add_aggregate(std::move(agg));
  }
  hybrid->set_on_promote([this](const model::hybrid::PromotionInfo& info) {
    workload::CallbackTag t;
    t.kind = workload::CallbackTag::kHybridPromoted;
    t.a = info.aggregate;
    flows_a.start_large_flow(tree.host(info.src_host), tree.host(info.dst_host), info.src_host,
                             info.dst_host, info.remaining_bytes, nullptr, t,
                             info.cwnd_segments);
  });
  // Foreground flows restart on completion so the packet-accurate lane
  // covers the whole horizon; the slot index makes the restart chain
  // checkpointable (CallbackTag::kHybridFg).
  start_hybrid_fg = [this, pick_pair](int slot) {
    int src = 0;
    int dst = 0;
    pick_pair(0x2000000ULL + static_cast<std::uint64_t>(slot), src, dst);
    workload::CallbackTag t;
    t.kind = workload::CallbackTag::kHybridFg;
    t.a = slot;
    flows_a.start_large_flow(tree.host(src), tree.host(dst), src, dst, cfg.hybrid.fg_bytes,
                             [this, slot] { start_hybrid_fg(slot); }, t);
  };
}

void EngineWorld::start() {
  if (fault_ctl) fault_ctl->arm();
  if (inv) inv->start();
  if (perm) perm->start();
  if (rand_a) rand_a->start();
  if (rand_b) rand_b->start();
  if (incast) {
    incast->start();
    incast_bg->start();
  }
  if (emp) emp->start();
  if (hybrid) {
    for (int slot = 0; slot < cfg.hybrid.fg_flows; ++slot) start_hybrid_fg(slot);
    hybrid->start();
  }
  rtt_tick.start();
  util.open(all_links);
}

// Saved flow-completion callbacks come back as CallbackTags; resolve them
// against the generators of this (identically constructed) world.
std::function<void()> EngineWorld::bind(const workload::CallbackTag& tag) {
  using Tag = workload::CallbackTag;
  switch (tag.kind) {
    case Tag::kPermutation:
      return [g = perm.get()] { g->restored_flow_done(); };
    case Tag::kRandom: {
      workload::RandomTraffic* g = cfg.pattern == Pattern::Incast ? incast_bg.get() : rand_a.get();
      return [g, src = static_cast<int>(tag.a), dst = static_cast<int>(tag.b)] {
        g->restored_flow_done(src, dst);
      };
    }
    case Tag::kIncastRequest:
      return [g = incast.get(), job = static_cast<std::size_t>(tag.a),
              server = static_cast<int>(tag.b), client = static_cast<int>(tag.c)] {
        g->restored_request_done(job, server, client);
      };
    case Tag::kIncastResponse:
      return [g = incast.get(), job = static_cast<std::size_t>(tag.a)] {
        g->restored_response_done(job);
      };
    case Tag::kHybridFg:
      return [this, slot = static_cast<int>(tag.a)] { start_hybrid_fg(slot); };
    default:
      // Includes kHybridPromoted: a promoted tail has no completion hook
      // (its FlowRecord is the record of completion).
      return nullptr;
  }
}

/// One direction of the snapshot walk: exactly one of `s` (save) and `l`
/// (restore) is set. transfer() names every section once, so the save and
/// restore layouts cannot drift apart.
struct EngineWorld::Io {
  ckpt::Saver* s = nullptr;
  ckpt::Loader* l = nullptr;

  [[nodiscard]] bool ok() const { return s != nullptr || l->ok(); }
  void tag(const char t[5]) { s != nullptr ? s->tag(t) : l->tag(t); }
  void u64(std::uint64_t& v) {
    if (s != nullptr) {
      s->u64(v);
    } else {
      v = l->u64();
    }
  }
  /// A presence flag; returns the saved value.
  bool flag(bool present) {
    if (s == nullptr) return l->b();
    s->b(present);
    return present;
  }
  /// A count the restoring world must already match.
  bool count(std::uint64_t n) {
    std::uint64_t v = n;
    u64(v);
    return v == n;
  }
  /// A module's save_state()/restore_state() hook pair.
  template <typename T, typename... Args>
  void state(T& x, Args... args) {
    if (s != nullptr) {
      x.save_state(*s, args...);
    } else {
      x.restore_state(*l, args...);
    }
  }
  /// A scheduler's clock, sequence counter and dispatch count.
  bool clock(sim::Scheduler& sc) {
    if (s != nullptr) {
      s->time(sc.now());
      s->u64(sc.next_seq());
      s->u64(sc.dispatched());
      return true;
    }
    const sim::Time now = l->time();
    const std::uint64_t next_seq = l->u64();
    const std::uint64_t disp = l->u64();
    if (!l->ok()) return false;
    sc.restore_clock(now, next_seq, disp);
    return true;
  }
};

bool EngineWorld::transfer(Io& io) {
  io.tag("SCHD");
  if (!io.clock(sched)) return false;
  // Per-shard clocks; the serial engine has none.
  io.tag("SHRD");
  const int n_shards = fabric != nullptr ? fabric->n_shards() : 0;
  if (!io.count(static_cast<std::uint64_t>(n_shards))) return false;
  for (int sh = 0; sh < n_shards; ++sh) {
    if (!io.clock(fabric->sched(sh))) return false;
  }
  io.tag("LNKS");
  if (!io.count(netw.links().size())) return false;
  for (const auto& link : netw.links()) {
    if (!io.ok()) return false;
    // In-flight packets of a boundary link land on the receiving shard's
    // scheduler; a link with no remote end (every serial link) has none.
    sim::Scheduler* remote =
        link->is_boundary() ? &fabric->sched(netw.link_dst_shard(link->id())) : nullptr;
    io.state(*link, remote);
  }
  io.tag("SWCH");
  if (!io.count(netw.switches().size())) return false;
  for (net::Switch* sw : netw.switches()) {
    if (!io.ok()) return false;
    io.state(*sw);
  }
  io.tag("HOST");
  if (!io.count(netw.hosts().size())) return false;
  for (net::Host* h : netw.hosts()) {
    if (!io.ok()) return false;
    io.state(*h);
  }
  io.tag("RTEM");
  io.state(routes);
  io.tag("FLTC");
  if (io.flag(fault_ctl != nullptr) && fault_ctl) io.state(*fault_ctl);
  io.tag("FLWA");
  if (io.s != nullptr) {
    flows_a.save_state(*io.s);
  } else {
    flows_a.restore_state(
        *io.l, [this](int h) -> net::Host& { return tree.host(h); },
        [this](const workload::CallbackTag& tag) { return bind(tag); });
  }
  io.tag("WKLD");
  if (perm) io.state(*perm);
  if (rand_a) io.state(*rand_a);
  if (incast) {
    io.state(*incast);
    io.state(*incast_bg);
  }
  if (emp) io.state(*emp);
  // The config fingerprint covers cfg.hybrid, so a non-hybrid snapshot
  // never reaches a hybrid world (and vice versa); the flag only keeps the
  // payload self-describing.
  io.tag("HYBR");
  if (io.flag(hybrid != nullptr) && hybrid) io.state(*hybrid);
  io.tag("PROB");
  io.state(rtt_tick);
  if (io.s != nullptr) {
    util.save_state(*io.s);
  } else {
    util.restore_state(*io.l, all_links);
  }
  // The RTT gauge accumulates into the results object, not the probe, so
  // its pre-checkpoint samples must ride along explicitly.
  for (auto& d : res.rtt_by_category) io.state(d);
  // Epoch accounting (all zero in the serial engine) rides along so a
  // resumed run's sharding summary matches an uninterrupted run's.
  // `replays` is process-local by design and deliberately not saved.
  io.tag("SHST");
  io.u64(res.shard.epochs);
  io.u64(res.shard.barriers);
  io.u64(res.shard.handoff_packets);
  io.u64(res.shard.micro_steps);
  // Observability state rides along so a resumed run's exports match an
  // uninterrupted run's byte for byte. Presence flags let a checkpoint
  // taken without --trace be replayed with it (and vice versa).
  io.tag("OBSV");
  if (io.flag(!tracers.empty())) {
    std::uint64_t streams = tracers.size();
    io.u64(streams);
    for (std::uint64_t i = 0; i < streams && io.ok(); ++i) {
      if (i < tracers.size()) {
        io.state(*tracers[i]);
        continue;
      }
      obs::TimelineTracer::Config one;
      one.capacity = 1;
      obs::TimelineTracer discard{one};  // consume the stream to stay aligned
      discard.restore_state(*io.l);
    }
  }
  if (io.flag(registry != nullptr)) {
    if (registry) {
      io.state(*registry);
    } else {
      obs::MetricsRegistry discard;  // consume the section to stay aligned
      discard.restore_state(*io.l);
    }
  }
  return io.s != nullptr || io.l->done();
}

void EngineWorld::publish_ckpt_meters() {
  if (!registry) return;
  registry->counter("harness.ckpt.written").set(res.ckpt.written);
  registry->counter("harness.ckpt.bytes").set(res.ckpt.bytes);
}

void EngineWorld::write_checkpoint() {
  ckpt::Saver s;
  Io io{&s, nullptr};
  transfer(io);
  ckpt::Header h;
  h.fingerprint = ckpt::config_fingerprint(cfg);
  h.t_ns = sched.now().ns();
  h.seq = ++ckpt_seq_;
  h.prev_written = res.ckpt.written;
  h.prev_bytes = res.ckpt.bytes;
  const std::string path = cfg.checkpoint.dir + "/" + ckpt::file_name(h.seq);
  std::string err;
  if (!ckpt::write_file(path, h, s.data(), &err)) {
    std::fprintf(stderr, "xmpsim: checkpoint write failed: %s\n", err.c_str());
    return;  // the run continues; the previous snapshot stays the fallback
  }
  const std::uint64_t file_bytes = ckpt::kHeaderBytes + s.data().size();
  res.ckpt.written += 1;
  res.ckpt.bytes += file_bytes;
  res.ckpt.last_path = path;
  publish_ckpt_meters();
  // Recorded *after* the snapshot was serialized: the event describes this
  // file, so it can only appear in the next one (restores synthesize it).
  if (!tracers.empty()) tracers.front()->ckpt_write(sched.now(), h.seq, file_bytes);
}

void EngineWorld::restore(const RestoreImage& img) {
  ckpt::Loader l{img.payload};
  Io io{nullptr, &l};
  if (!transfer(io)) {
    std::fprintf(stderr, "xmpsim: restore failed: %s: malformed payload\n",
                 cfg.checkpoint.restore_path.c_str());
    std::exit(2);
  }
  const std::uint64_t file_bytes = ckpt::kHeaderBytes + img.payload.size();
  ckpt_seq_ = img.h.seq;
  res.ckpt.written = img.h.prev_written + 1;
  res.ckpt.bytes = img.h.prev_bytes + file_bytes;
  res.ckpt.restored = true;
  res.ckpt.restored_seq = img.h.seq;
  res.ckpt.restored_t = sim::Time::nanoseconds(img.h.t_ns);
  publish_ckpt_meters();
  // The snapshot predates its own ckpt_write event; synthesize it so the
  // resumed trace matches an uninterrupted run's.
  if (!tracers.empty()) tracers.front()->ckpt_write(res.ckpt.restored_t, img.h.seq, file_bytes);
  if (inv) inv->start();  // replay-only: a fresh checker over the resumed run
}

ExperimentResults EngineWorld::collect() {
  // close() returns an empty vector when no sim time elapsed (e.g. a run
  // interrupted at t=0): no window, no samples.
  const auto utils = util.close();
  for (int l = 0; l < 3; ++l) {
    for (std::size_t i = layer_ranges[l].first; i < layer_ranges[l].second; ++i) {
      if (!utils.empty()) res.utilization_by_layer[l].add(utils[i]);
      res.queue_occupancy_by_layer[l].add(all_links[i]->queue().mean_occupancy(sched.now()));
    }
  }

  auto add_goodput = [&](const workload::FlowRecord& rec, int scheme_index, double mbps) {
    (scheme_index == 0 ? res.goodput : res.goodput_b).add(mbps);
    if (scheme_index == 0) {
      res.goodput_by_category[static_cast<int>(tree.category(rec.src_host, rec.dst_host))].add(
          mbps);
    }
  };
  auto collect_flows = [&](const workload::FlowManager& fm, int scheme_index) {
    for (const auto& rec : fm.records()) {
      res.flows.push_back(rec);
      res.flow_category.push_back(tree.category(rec.src_host, rec.dst_host));
      res.flow_scheme.push_back(scheme_index);
      if (rec.large && rec.completed) add_goodput(rec, scheme_index, rec.goodput_bps() / 1e6);
    }
  };
  collect_flows(flows_a, 0);
  if (flows_b) collect_flows(*flows_b, 1);

  // Fixed-horizon runs cut slow flows off mid-transfer; dropping them would
  // bias mean goodput toward fast schemes (survivorship). Count a partial
  // flow at its average rate so far, provided it ran long enough for the
  // estimate to be meaningful.
  auto collect_partials = [&](const workload::FlowManager& fm, int scheme_index) {
    fm.for_each_partial_large([&](const workload::FlowRecord& rec, std::int64_t bytes) {
      const sim::Time ran = sched.now() - rec.start;
      if (ran < sim::Time::milliseconds(20) || bytes < 128 * net::kMssBytes) return;
      add_goodput(rec, scheme_index, static_cast<double>(bytes) * 8.0 / ran.sec() / 1e6);
    });
  };
  collect_partials(flows_a, 0);
  if (flows_b) collect_partials(*flows_b, 1);

  if (emp) {
    // FCT slowdown vs the unloaded fabric: one-way propagation by locality
    // category plus serialization at line rate. Aborted and still-in-flight
    // flows are censored (counted, never averaged in).
    const topo::FatTree::Config& tc = tree.config();
    const double rate_bps = static_cast<double>(tc.link_rate_bps);
    auto ideal_sec = [&](const workload::FlowRecord& rec) {
      const auto cat = tree.category(rec.src_host, rec.dst_host);
      double prop = 2.0 * tc.rack_delay.sec();
      if (cat != topo::FatTree::Category::InnerRack) prop += 2.0 * tc.agg_delay.sec();
      if (cat == topo::FatTree::Category::InterPod) prop += 2.0 * tc.core_delay.sec();
      return prop + static_cast<double>(rec.bytes) * 8.0 / rate_bps;
    };
    res.fct.offered_load = cfg.offered_load > 0.0 ? cfg.offered_load : cfg.workload->default_load;
    res.fct.arrival_rate = emp->arrival_rate();
    for (const auto& rec : flows_a.records()) {
      ExperimentResults::FctRecord fr;
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
      res.fct.slowdown_by_bin[ExperimentResults::FctStats::bin_of(rec.bytes)].add(slow);
      ++res.fct.completed;
      if (sim_metrics) {
        sim_metrics->fct_slowdown_milli.add(static_cast<std::uint64_t>(slow * 1000.0));
      }
    }
  }

  if (incast) res.jobs = incast->jobs();
  if (hybrid) {
    res.hybrid.enabled = true;
    res.hybrid.bg_flows = cfg.hybrid.bg_flows;
    res.hybrid.fg_flows = cfg.hybrid.fg_flows;
    res.hybrid.active_fluid = hybrid->active_fluid_flows();
    const auto& hs = hybrid->stats();
    res.hybrid.ticks = hs.ticks;
    res.hybrid.promotions = hs.promotions;
    res.hybrid.fluid_completions = hs.fluid_completions;
    res.hybrid.fluid_bytes = hs.fluid_bytes;
    res.hybrid.fluid_throughput_mbps = hybrid->fluid_throughput_bps() / 1e6;
    res.hybrid.mean_mark_p = hs.ticks > 0 ? hs.mark_p_accum / static_cast<double>(hs.ticks) : 0.0;
  }
  res.sim_duration = sched.now();
  res.events_dispatched = sched.dispatched() + (fabric != nullptr ? fabric->total_dispatched() : 0);

  res.drops = stats::collect_drops(netw);
  for (const auto& l : netw.links()) {
    if (l->offered() == 0) continue;
    ExperimentResults::LinkDropRow row;
    row.link = l->id();
    row.offered = l->offered();
    row.delivered = l->delivered();
    row.drops = l->drops();
    row.duplicated = l->duplicated();
    row.delayed = l->delayed();
    row.overmarked = l->overmarked();
    res.link_drops.push_back(row);
  }
  res.aborted_flows = flows_a.aborted_large_flows();
  if (flows_b) res.aborted_flows += flows_b->aborted_large_flows();

  // --- routing-layer accounting (end-of-run aggregation: the per-packet
  // hot path never touches the metrics registry for these) ---
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
  if (flows_b) res.path_rehomes += flows_b->subflow_rehomes();
  if (sim_metrics) {
    sim_metrics->switch_forwarded.inc(res.switch_forwarded);
    sim_metrics->switch_unroutable.inc(res.switch_unroutable);
  }
  if (inv) {
    inv->stop();
    inv->check_now();  // final sweep at the horizon
    res.invariant_checks = inv->checks_run();
    for (const auto& v : inv->violations()) {
      res.invariant_violations.push_back("[t=" + std::to_string(v.at.sec()) + "s] " + v.what);
    }
  }

  if (fabric != nullptr) {
    res.sharded = true;
    res.shard.logical_shards = fabric->n_shards();
    res.shard.lookahead_us = fabric->has_cross_links() ? fabric->lookahead().us() : 0.0;
    if (registry) {
      registry->counter("harness.shard.logical_shards")
          .inc(static_cast<std::uint64_t>(res.shard.logical_shards));
      registry->counter("harness.shard.epochs").inc(res.shard.epochs);
      registry->counter("harness.shard.barriers").inc(res.shard.barriers);
      registry->counter("harness.shard.handoff_packets").inc(res.shard.handoff_packets);
      registry->counter("harness.shard.micro_steps").inc(res.shard.micro_steps);
      registry->counter("harness.shard.replays").inc(res.shard.replays);
    }
  }

  // --- observability exports (after collection: they must not observe the run) ---
  if (!tracers.empty()) {
    // Several streams merge by (t, stream, position): stream 0, the
    // control strand, wins ties.
    const obs::TimelineTracer* out = tracers.front().get();
    std::unique_ptr<obs::TimelineTracer> merged;
    if (tracers.size() > 1) {
      std::vector<const obs::TimelineTracer*> streams;
      for (const auto& t : tracers) streams.push_back(t.get());
      merged = obs::TimelineTracer::merged(streams);
      out = merged.get();
    }
    if (!cfg.obs.trace_json.empty()) out->export_chrome_json(cfg.obs.trace_json);
    if (!cfg.obs.trace_csv.empty()) out->export_csv(cfg.obs.trace_csv);
  }
  if (registry && !cfg.obs.metrics_json.empty()) registry->dump_to_file(cfg.obs.metrics_json);
  if (!cfg.obs.fct_csv.empty()) export_fct_csv(res, cfg.obs.fct_csv);
  return std::move(res);
}

}  // namespace xmp::core
