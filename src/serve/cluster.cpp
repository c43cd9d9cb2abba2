#include "serve/cluster.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/taskpool.hpp"
#include "ndp/ndp_core.hpp"
#include "serve/calendar.hpp"

namespace monde::serve {

std::vector<ReplicaSpec> uniform_fleet(std::size_t n, core::StrategyKind strategy,
                                       SchedulerConfig sched, std::uint64_t seed0) {
  MONDE_REQUIRE(n > 0, "a fleet needs at least one replica");
  std::vector<ReplicaSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs.push_back(ReplicaSpec{strategy, sched, seed0 + i, FaultSpec{}});
  }
  return specs;
}

void ClusterConfig::validate() const {
  health.validate();
  MONDE_REQUIRE(retry_timeout > Duration::zero(), "retry_timeout must be positive");
  MONDE_REQUIRE(warmup >= Duration::zero(), "warmup must be non-negative");
  MONDE_REQUIRE(autoscale_period > Duration::zero(), "autoscale_period must be positive");
  MONDE_REQUIRE(threads >= 1, "threads must be >= 1 (the calling thread counts)");
  cache.validate();
  expert.validate();
  disagg.validate();
}

std::string to_string(ClusterEvent::Kind kind) {
  switch (kind) {
    case ClusterEvent::Kind::kScaleUp: return "scale-up";
    case ClusterEvent::Kind::kScaleDown: return "scale-down";
    case ClusterEvent::Kind::kFailStop: return "fail-stop";
    case ClusterEvent::Kind::kFailureDetected: return "failure-detected";
    case ClusterEvent::Kind::kRetry: return "retry";
    case ClusterEvent::Kind::kMigrate: return "migrate";
    case ClusterEvent::Kind::kExpertRebalance: return "expert-rebalance";
    case ClusterEvent::Kind::kHandoff: return "handoff";
  }
  MONDE_ASSERT(false, "unknown cluster event kind");
  return {};
}

std::string describe(const ClusterEvent& ev, const ClusterReport& report) {
  std::ostringstream os;
  switch (ev.kind) {
    case ClusterEvent::Kind::kScaleUp:
      os << "spawned " << report.replicas.at(ev.replica).name << ", ready at "
         << ev.ready_at.str();
      break;
    case ClusterEvent::Kind::kScaleDown:
      os << "retired " << report.replicas.at(ev.replica).name
         << (ev.migrated ? " (migrated " : " (") << ev.count
         << (ev.migrated ? " request(s))" : " request(s) left to drain)");
      break;
    case ClusterEvent::Kind::kFailStop: os << "replica" << ev.replica << " died"; break;
    case ClusterEvent::Kind::kFailureDetected:
      os << "heartbeat stale; " << ev.count << " stranded request(s) queued for retry";
      break;
    case ClusterEvent::Kind::kRetry:
    case ClusterEvent::Kind::kMigrate:
      os << "request " << ev.request << " attempt " << ev.attempt << " -> replica" << ev.replica;
      if (ev.resumed) os << " (resumed " << ev.kv_tokens << " tokens)";
      break;
    case ClusterEvent::Kind::kExpertRebalance:
      os << "preloaded " << ev.count << " hot expert(s) onto replica" << ev.replica;
      break;
    case ClusterEvent::Kind::kHandoff:
      os << "request " << ev.request << " prefill complete -> replica" << ev.replica << " ("
         << ev.kv_tokens << " KV tokens)";
      break;
  }
  return os.str();
}

ClusterSim::ClusterSim(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
                       const moe::SkewProfile& profile,
                       const std::vector<ReplicaSpec>& specs, ClusterConfig cfg)
    : sys_{sys}, model_{model}, profile_{profile}, cfg_{cfg} {
  MONDE_REQUIRE(!specs.empty(), "cluster needs at least one replica");
  cfg_.validate();
  // All replicas run the same platform, so one NdpCoreSim serves the whole
  // fleet and expert-shape latencies memoize across replicas (the sharing
  // is timing-neutral; see test_fastpath_diff).
  shared_sim_ = std::make_shared<ndp::NdpCoreSim>(sys_.ndp, sys_.monde_mem);
  if (cfg_.expert.enabled) {
    profiler_ = std::make_unique<moe::WorkloadGenerator>(model_, profile_,
                                                         cfg_.expert.profile_seed);
  }
  if (cfg_.disagg.enabled) {
    MONDE_REQUIRE(specs.size() > cfg_.disagg.prefill_replicas,
                  "disaggregated serving needs at least one decode replica beyond the "
                      << cfg_.disagg.prefill_replicas << " prefill replica(s)");
    for (const ReplicaSpec& spec : specs) {
      MONDE_REQUIRE(spec.sched.mode == BatchingMode::kContinuous,
                    "disaggregated serving requires continuous batching on every "
                    "replica (a fixed batch cannot release requests mid-batch)");
    }
  }
  replicas_.reserve(specs.size());
  next_seed_ = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    add_replica(specs[i], Duration::zero(), Duration::zero(),
                cfg_.disagg.enabled && i < cfg_.disagg.prefill_replicas);
    next_seed_ = std::max(next_seed_, specs[i].seed + 1);
  }
  // Autoscaled replicas clone the first spec, faults cleared: an injected
  // fault plan describes a *specific* node, not replacement capacity.
  growth_ = specs.front();
  growth_.fault = FaultSpec{};
}

void ClusterSim::add_replica(const ReplicaSpec& spec, Duration spawned_at,
                             Duration start_at, bool prefill) {
  Replica r;
  r.engine = std::make_unique<core::InferenceEngine>(sys_, model_, profile_, spec.strategy,
                                                     spec.seed, shared_sim_);
  r.server = std::make_unique<ServerSim>(*r.engine, spec.sched, start_at, spec.fault,
                                         cfg_.cache, cfg_.expert, cfg_.disagg, prefill);
  r.prefill = prefill;
  r.name = "replica" + std::to_string(replicas_.size()) + " (" +
           r.engine->strategy().name() + ")";
  if (prefill) r.name += " [prefill]";
  r.spawned_at = spawned_at;
  replicas_.push_back(std::move(r));
}

void ClusterSim::update_ewma(Replica& r) {
  const std::vector<StepRecord>& steps = r.server->steps();
  for (; r.steps_seen < steps.size(); ++r.steps_seen) {
    const double ms = (steps[r.steps_seen].end - steps[r.steps_seen].start).ms();
    r.ewma_ms = r.steps_seen == 0
                    ? ms
                    : cfg_.health.ewma_alpha * ms + (1.0 - cfg_.health.ewma_alpha) * r.ewma_ms;
  }
}

ReplicaSnapshot ClusterSim::snapshot(std::size_t i, Duration now) const {
  const Replica& r = replicas_[i];
  return ReplicaSnapshot{i,
                         r.server->in_flight(),
                         r.server->outstanding_tokens(),
                         r.accepting(),
                         /*warming=*/r.server->start_at() > now,
                         (now - last_ok_heartbeat(now, r.server->fault().fail_at, cfg_.health))
                             .ms(),
                         r.ewma_ms,
                         r.server->expert_signature(),
                         r.server->prefix_signature(),
                         r.prefill};
}

ClusterReport ClusterSim::run(std::vector<Request> trace, Dispatcher& dispatcher,
                              Autoscaler* autoscaler) {
  MONDE_REQUIRE(!used_, "ClusterSim::run() may be called only once");
  MONDE_REQUIRE(!trace.empty(), "cannot serve an empty trace");
  std::stable_sort(trace.begin(), trace.end(), arrival_order<Request>);
  // Preserve the classic error timing: duplicate ids are rejected before any
  // simulation runs (the streaming path can only catch them on arrival).
  {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(trace.size());
    for (const Request& rq : trace) {
      MONDE_REQUIRE(seen.insert(rq.id).second, "duplicate request id " << rq.id << " in trace");
    }
  }
  TraceArrivalStream stream{std::move(trace)};
  return run(stream, dispatcher, autoscaler);
}

// --- One run: state and event handlers ----------------------------------------

/// One run()'s state, and the loop's named units: advancement, one handler
/// per lifecycle event, and the report builder.
struct ClusterSim::Run {
  ClusterSim& sim;
  std::vector<Replica>& replicas;
  const ClusterConfig& cfg;
  Dispatcher& dispatcher;
  Autoscaler* autoscaler;
  ArrivalMerger items;
  std::unique_ptr<EventCalendar> calendar;
  std::unique_ptr<AcceptingIndex> index;
  std::vector<std::size_t> batch;  ///< reused across events

  Duration last_pop = Duration::zero();  ///< latest item the loop dispatched
  Duration next_tick;
  Duration next_rebalance;
  bool rebalance_on;
  /// Boot-time pool shares (disaggregated autoscaling grows the pool
  /// furthest below its share). run() is called once, so the fleet at
  /// construction is the boot fleet.
  std::size_t boot_prefill;
  std::size_t boot_decode;
  /// Fleet-wide demand per expert, accumulated from dispatched profiles; the
  /// ordered map gives rebalance ticks a deterministic hottest-first walk.
  std::map<core::ExpertId, std::uint64_t> fleet_expert_load;

  /// The report under construction: the handlers count and log into it;
  /// report() fills in the rest once every replica drained.
  ClusterReport rep;
  /// Start of the phase being timed into rep.phase_*_s (measure_phases).
  std::chrono::steady_clock::time_point phase_t0{};

  void phase_begin() {
    if (cfg.measure_phases) phase_t0 = std::chrono::steady_clock::now();
  }
  void phase_end(double& bucket) {
    if (cfg.measure_phases) {
      bucket += std::chrono::duration<double>(std::chrono::steady_clock::now() - phase_t0).count();
    }
  }
  void log(const ClusterEvent& ev) {
    if (cfg.event_log_enabled) rep.events.push_back(ev);
  }

  Run(ClusterSim& s, ArrivalStream& arrivals, Dispatcher& d, Autoscaler* a)
      : sim{s},
        replicas{s.replicas_},
        cfg{s.cfg_},
        dispatcher{d},
        autoscaler{a},
        items{arrivals},
        next_tick{cfg.autoscale_period},
        next_rebalance{cfg.expert.rebalance_period},
        rebalance_on{cfg.expert.enabled && cfg.expert.rebalance_period > Duration::zero()},
        boot_prefill{cfg.disagg.enabled ? cfg.disagg.prefill_replicas : 0},
        boot_decode{cfg.disagg.enabled ? replicas.size() - boot_prefill : 0} {
    std::vector<FailStop> fail_stops;
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const Duration fail_at = replicas[i].server->fault().fail_at;
      if (fail_at == Duration::infinite()) continue;
      fail_stops.push_back({fail_at, failure_detection_time(fail_at, cfg.health), i});
    }
    // The one place the calendar loop and the reference loop differ.
    if (cfg.reference_loop) {
      calendar = std::make_unique<ScanCalendar>(fail_stops);
      index = std::make_unique<RebuildIndex>(cfg.health, [&s](Duration now) {
        std::vector<ReplicaSnapshot> all;
        for (std::size_t i = 0; i < s.replicas_.size(); ++i) all.push_back(s.snapshot(i, now));
        return all;
      });
    } else {
      calendar = std::make_unique<HeapCalendar>(fail_stops);
      index = std::make_unique<MaintainedIndex>(cfg.health);
    }
    for (std::size_t i = 0; i < replicas.size(); ++i) admit(i, Duration::zero());
    rep.peak_replicas = accepting();
  }

  /// Accepting replicas per role: {decode or unified, prefill}.
  [[nodiscard]] std::array<std::size_t, 2> accepting_per_pool() const {
    std::array<std::size_t, 2> n{};
    for (const Replica& r : replicas) {
      if (r.accepting()) ++n[r.prefill ? 1 : 0];
    }
    return n;
  }
  [[nodiscard]] std::size_t accepting() const {
    const std::array<std::size_t, 2> n = accepting_per_pool();
    return n[0] + n[1];
  }

  /// Every mutation of a replica's server is followed by touch(): the index
  /// takes its load fields and the calendar its next event and version.
  void touch(std::size_t i) {
    index->write_through(sim.snapshot(i, Duration::zero()));  // reads the load fields only
    calendar->push(replicas[i].server->next_event_time(), replicas[i].server->version(), i);
  }

  /// A boot or freshly spawned replica joins the accepting set.
  void admit(std::size_t i, Duration now) {
    index->add(sim.snapshot(i, now), replicas[i].server->start_at(),
               replicas[i].server->fault().fail_at);
    touch(i);
  }

  // A prefill replica buffers a HandoffRecord the moment a request's admission
  // step completes (inside advance_to); every commit drains the buffer into
  // decode-pool re-dispatch items at `release + transfer`, clamped to a floor
  // that never precedes an already-popped item (the advance target at
  // fleet-wide commits, the last-popped time at prefill-pool anchors), so the
  // global (time, id) pop order -- and with it the per-replica (arrival, id)
  // enqueue contract -- survives releases discovered mid-event.
  void drain_handoffs(std::size_t i, Duration apply_until, Duration floor) {
    if (!cfg.disagg.enabled || !replicas[i].prefill) return;
    for (HandoffRecord& h : replicas[i].server->take_handoffs(apply_until)) {
      Request rq = std::move(h.request);
      ++rq.attempt;
      items.push(DispatchItem{monde::max(h.release + h.transfer, floor), std::move(rq),
                              /*migrated=*/false, /*handoff=*/true});
    }
  }

  // Advance every replica in `batch` to t in ascending order, then commit
  // each (EWMA fold, handoff drain with releases clamped to `floor`, touch)
  // in the same order. The write-backs touch only their own replica, so
  // advance-all-then-commit-all equals per-replica interleaving.
  void advance_batch(Duration t, Duration floor) {
    if (batch.empty()) return;
    phase_begin();
    for (const std::size_t i : batch) replicas[i].server->advance_to(t);
    phase_end(rep.phase_advance_s);
    phase_begin();
    for (const std::size_t i : batch) {
      sim.update_ewma(replicas[i]);
      drain_handoffs(i, t, floor);
      touch(i);
    }
    phase_end(rep.phase_commit_s);
  }

  /// Brings the fleet to `t`: advances the replicas the calendar lists.
  void advance(Duration t) {
    calendar->collect_before(t, batch);
    advance_batch(t, t);
  }

  /// Earliest prefill-internal event (admission start, step boundary, or an
  /// already-buffered release awaiting drain); infinite without disaggregation.
  [[nodiscard]] Duration next_prefill_event() const {
    Duration t = Duration::infinite();
    if (!cfg.disagg.enabled) return t;
    for (const Replica& r : replicas) {
      if (!r.prefill || r.detected) continue;
      t = monde::min(t, r.server->next_event_time());
      if (r.server->has_handoffs()) t = monde::min(t, last_pop);
    }
    return t;
  }

  // With disaggregation, prefill completions are cluster events in their own
  // right: waiting for the next arrival/detection/tick to surface a release
  // would delay its handoff by the whole inter-anchor gap. When the earliest
  // live prefill event precedes every external anchor, run ONLY the prefill
  // pool to that anchor and convert its releases at their true release times
  // (with no external anchor left this drains the prefill tail outright).
  // Decode replicas stay put, so an item surfaced before the anchor lands on
  // a decode replica whose clock has not passed it -- causality holds.
  // Afterwards every live prefill replica's next event is at or beyond the
  // horizon, so this cannot re-fire until new prefill work is dispatched.
  void advance_prefill_to(Duration horizon) {
    batch.clear();
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      if (replicas[i].prefill && !replicas[i].detected) batch.push_back(i);
    }
    advance_batch(horizon, last_pop);
  }

  void on_detection(Duration det_t, std::size_t det_i) {
    Replica& r = replicas[det_i];
    advance(det_t);  // the dying replica freezes at its fail-stop instant
    r.detected = true;
    calendar->pop_detection();
    index->remove(det_i);
    log({.kind = ClusterEvent::Kind::kFailStop, .time = r.server->fault().fail_at,
         .replica = det_i});
    // A replica evacuated by a scale-down migration died empty: its work
    // already moved on, so there is nothing (and no way) to harvest.
    std::vector<Request> stranded;
    if (!r.evacuated) stranded = r.server->harvest_stranded();
    touch(det_i);
    log({.kind = ClusterEvent::Kind::kFailureDetected, .time = det_t, .replica = det_i,
         .count = stranded.size()});
    const bool resume = cfg.cache.enabled && cfg.cache.survive_failstop;
    for (Request rq : stranded) {
      ++rq.attempt;
      Duration at = det_t + cfg.retry_timeout;
      if (resume) {
        // Surviving-cache mode: the checkpoint is restored onto the retry
        // replica at the modelled transfer cost, decode progress rounded down
        // to the last checkpoint interval (work past it is repeated).
        if (cfg.cache.checkpoint_interval_tokens > 0) {
          rq.resume.decoded -= rq.resume.decoded % cfg.cache.checkpoint_interval_tokens;
          if (rq.resume.decoded == 0) rq.resume.first_token = Duration::zero();
        }
        at += cfg.cache.transfer_time_for(rq.resume.resident_tokens());
      } else {
        // Lost-cache mode: the KV state died with the node.
        rq.resume = ResumeState{};
      }
      items.push(DispatchItem{at, rq});
    }
  }

  void on_autoscale_tick(Duration tick_t) {
    advance(tick_t);
    AutoscaleSignals sig;
    sig.now = tick_t;
    std::vector<double> waits_ms;
    for (const Replica& r : replicas) {
      if (!r.accepting()) continue;
      ++(r.server->start_at() > tick_t ? sig.warming_replicas : sig.ready_replicas);
      sig.in_flight += r.server->in_flight();
      sig.outstanding_tokens += r.server->outstanding_tokens();
      for (const Duration arrival : r.server->waiting_arrivals()) {
        waits_ms.push_back((tick_t - arrival).ms());
      }
    }
    sig.waiting_requests = waits_ms.size();
    if (!waits_ms.empty()) sig.p95_queue_delay_ms = percentile(std::move(waits_ms), 95.0);
    std::size_t target = std::max<std::size_t>(autoscaler->target_size(sig), 1);
    std::size_t capacity = accepting();
    // Drain phase (no arrivals or retries left): scaling up is pure waste --
    // no dispatch will ever reach the new replica -- so only honor the
    // downward direction of the policy's answer.
    if (items.empty()) target = std::min(target, capacity);
    for (; capacity < target; ++capacity) {
      ReplicaSpec spec = sim.growth_;
      spec.seed = sim.next_seed_++;
      const std::size_t idx = replicas.size();
      // Disaggregated fleets grow the pool furthest below its boot share
      // (accepting members vs. boot prefill:decode ratio); ties grow the
      // decode pool. Both shares are 0 without disaggregation.
      const auto [d, p] = accepting_per_pool();
      const bool spawn_prefill = p * boot_decode < d * boot_prefill;
      sim.add_replica(spec, tick_t, tick_t + cfg.warmup, spawn_prefill);
      admit(idx, tick_t);
      log({.kind = ClusterEvent::Kind::kScaleUp, .time = tick_t, .replica = idx,
           .ready_at = tick_t + cfg.warmup});
    }
    for (; capacity > target && capacity > 1; --capacity) {
      if (!retire_one(tick_t)) break;  // every candidate is its pool's last
    }
    rep.peak_replicas = std::max(rep.peak_replicas, accepting());
    next_tick += cfg.autoscale_period;
  }

  // Retire the accepting replica owing the fewest tokens, newest on ties: it
  // drains its queue, then idles, never dispatched to again. Disaggregated
  // fleets never retire a pool's last accepting member (requests of its phase
  // would have nowhere to go). Returns false when no replica may retire.
  [[nodiscard]] bool retire_one(Duration tick_t) {
    const std::array<std::size_t, 2> pool_count = accepting_per_pool();
    std::size_t victim = replicas.size();
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      const Replica& r = replicas[i];
      if (!r.accepting()) continue;
      if (cfg.disagg.enabled && pool_count[r.prefill ? 1 : 0] <= 1) continue;
      if (victim == replicas.size() ||
          r.server->outstanding_tokens() <= replicas[victim].server->outstanding_tokens()) {
        victim = i;
      }
    }
    if (victim == replicas.size()) return false;
    Replica& r = replicas[victim];
    r.retired = true;
    r.retired_at = tick_t;
    index->remove(victim);
    ClusterEvent ev{.kind = ClusterEvent::Kind::kScaleDown, .time = tick_t, .replica = victim};
    // A victim that silently fail-stopped inside the detection lag cannot be
    // evacuated -- its state died with it. Retire it plainly; the heartbeat
    // monitor will harvest its stranded work.
    if (cfg.cache.enabled && cfg.cache.migrate_on_retire && !r.server->failed()) {
      // Live migration: the retiree stops at its step boundary and its
      // unfinished requests move (with their resident KV state, at the
      // modelled transfer cost) to the surviving fleet. Requests with no
      // resident state re-dispatch at the tick itself.
      std::vector<Request> moved = r.server->evacuate();
      r.evacuated = true;
      // A prefill victim's forced step-boundary completion may have released
      // prefill-complete requests: convert them now (their release lies at or
      // after this tick), or they die with the buffer.
      drain_handoffs(victim, tick_t, tick_t);
      touch(victim);
      const Duration boundary = monde::max(tick_t, r.server->now());
      for (Request rq : moved) {
        ++rq.attempt;
        const std::int64_t resident = rq.resume.resident_tokens();
        const Duration at =
            resident > 0 ? boundary + cfg.cache.transfer_time_for(resident) : tick_t;
        items.push(DispatchItem{at, rq, /*migrated=*/true});
      }
      ev.count = moved.size();
      ev.migrated = true;
    } else {
      ev.count = r.server->in_flight();
    }
    log(ev);
    return true;
  }

  // Cross-replica expert rebalancing: push the fleet's currently hottest
  // experts (by dispatched-profile demand) into every accepting replica's
  // residency. Each preload is priced as a fetch over the configured link,
  // charged to the receiving replica's next step -- migrating hot experts
  // toward the shards that will serve them instead of letting each replica
  // fault them in one miss at a time.
  void on_rebalance_tick(Duration reb_t) {
    advance(reb_t);
    std::vector<std::pair<std::uint64_t, core::ExpertId>> by_demand;
    by_demand.reserve(fleet_expert_load.size());
    for (const auto& [id, count] : fleet_expert_load) by_demand.push_back({count, id});
    // Hottest first; the map walk above yields ascending ExpertId, and the
    // stable sort keeps that order within a demand tie -- deterministic.
    std::stable_sort(by_demand.begin(), by_demand.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    if (by_demand.size() > cfg.expert.rebalance_hot_experts) {
      by_demand.resize(cfg.expert.rebalance_hot_experts);
    }
    std::vector<core::ExpertId> hot;
    hot.reserve(by_demand.size());
    for (const auto& [count, id] : by_demand) hot.push_back(id);
    for (std::size_t i = 0; i < replicas.size() && !hot.empty(); ++i) {
      Replica& r = replicas[i];
      if (!r.accepting()) continue;
      // preload_experts() no-ops on a silently fail-stopped server.
      const std::size_t fetched = r.server->preload_experts(hot);
      if (fetched == 0) continue;
      rep.expert_migrations += fetched;
      touch(i);
      log({.kind = ClusterEvent::Kind::kExpertRebalance, .time = reb_t, .replica = i,
           .count = fetched});
    }
    next_rebalance += cfg.expert.rebalance_period;
  }

  void on_dispatch(Duration item_t) {
    // Advance before popping: the advance may surface prefill-complete
    // handoffs clamped to this very instant, and such an item (possibly
    // carrying a smaller id than the current head) must be eligible for this
    // pop to keep the global (time, id) dispatch order.
    advance(item_t);
    const DispatchItem it = items.pop();
    last_pop = it.time;
    phase_begin();
    Request rq = it.rq;
    rq.arrival = it.time;  // = the original arrival except for re-dispatches
    const ExpertServingConfig& expert = cfg.expert;
    if (expert.enabled) {
      // First dispatch derives the profile; a retry/migration keeps the one it
      // already carries (possibly pruned by an earlier overload).
      if (rq.expert_profile.empty()) {
        rq.expert_profile =
            sim.profiler_->expert_profile_for(rq.id, expert.profile_width, expert.profile_tokens);
      }
      // Fleet demand feeds the rebalance ticks; count the full profile (the
      // demand exists whether or not pruning later drops part of it).
      for (const auto& e : rq.expert_profile.experts) {
        ++fleet_expert_load[core::ExpertId{e.layer, e.expert}];
      }
    }
    const std::vector<ReplicaSnapshot>& accepting = index->view(it.time);
    // The soft slow-EWMA filter, O(accepting * log accepting) per dispatch
    // when enabled; the default infinite factor reads the set in place.
    const bool ewma_filter = std::isfinite(cfg.health.slow_ewma_factor);
    std::vector<ReplicaSnapshot> filtered;
    if (ewma_filter) filtered = eligible_snapshots(accepting, cfg.health.slow_ewma_factor);
    const std::vector<ReplicaSnapshot>& view = ewma_filter ? filtered : accepting;
    // Role routing (disaggregated serving): the pool filter applies after the
    // health/EWMA filter. If the soft EWMA filter left the needed pool empty,
    // fall back to the full accepting set before declaring the pool gone.
    std::vector<ReplicaSnapshot> role_pool;
    if (cfg.disagg.enabled) {
      const bool want_prefill = !rq.decode_phase();
      role_pool = pool_snapshots(view, want_prefill, cfg.disagg.decode_admit_tokens);
      if (role_pool.empty()) {
        role_pool = pool_snapshots(accepting, want_prefill, cfg.disagg.decode_admit_tokens);
      }
      MONDE_REQUIRE(!role_pool.empty(), "no " << (want_prefill ? "prefill" : "decode")
                                              << " replica is accepting requests");
    }
    const std::vector<ReplicaSnapshot>& choices = cfg.disagg.enabled ? role_pool : view;
    const std::size_t pick = dispatcher.pick(choices, rq);
    MONDE_REQUIRE(pick < choices.size(),
                  "dispatcher picked entry " << pick << " of " << choices.size());
    const std::size_t idx = choices[pick].replica;
    // Pruned-expert degraded mode: a request landing on an overloaded replica
    // is served with a truncated profile -- fewer experts to keep hot, fewer
    // fetches to price -- instead of queueing at full fidelity.
    if (expert.enabled && expert.prune_outstanding_tokens > 0 &&
        replicas[idx].server->outstanding_tokens() > expert.prune_outstanding_tokens &&
        rq.expert_profile.truncate_per_layer(expert.prune_width)) {
      ++rep.pruned_requests;
    }
    replicas[idx].server->enqueue(rq);
    ++replicas[idx].dispatched;
    touch(idx);
    if (it.handoff) {
      // Handoffs are their own lifecycle event, not failure retries -- attempt
      // was bumped (it IS a re-dispatch) but the retry/migration counters stay
      // clean.
      ++rep.handoffs;
      log({.kind = ClusterEvent::Kind::kHandoff, .time = it.time, .replica = idx,
           .request = rq.id, .kv_tokens = rq.resume.resident_tokens()});
    } else if (rq.attempt > 0) {
      log({.kind = it.migrated ? ClusterEvent::Kind::kMigrate : ClusterEvent::Kind::kRetry,
           .time = it.time, .replica = idx, .request = rq.id, .attempt = rq.attempt,
           .kv_tokens = rq.resume.resident_tokens(), .resumed = rq.resume.any()});
      ++(it.migrated ? rep.migrations : rep.retries);
    }
    phase_end(rep.phase_dispatch_s);
  }

  [[nodiscard]] ClusterReport report() {
    rep.policy = dispatcher.name();
    rep.autoscaler = autoscaler != nullptr ? autoscaler->name() : "";
    std::stable_sort(rep.events.begin(), rep.events.end(),
                     [](const ClusterEvent& a, const ClusterEvent& b) { return a.time < b.time; });

    // Fleet makespan: a spawned replica that never ran a step contributes its
    // spawn instant, not its (possibly later) warm-up boundary.
    for (const Replica& r : replicas) {
      rep.makespan = monde::max(rep.makespan,
                                r.server->steps().empty() ? r.spawned_at : r.server->now());
    }

    const std::unordered_map<std::uint64_t, Duration>& original_arrival = items.original_arrivals();
    std::vector<double> busy_ms;
    std::vector<double> ttft_ms, tpot_ms, e2e_ms;
    Duration total_busy = Duration::zero();
    Duration total_alive = Duration::zero();
    rep.replicas.reserve(replicas.size());
    for (std::size_t i = 0; i < replicas.size(); ++i) {
      Replica& r = replicas[i];
      ReplicaReport rr{.name = r.name, .serve = r.server->report(), .dispatched = r.dispatched,
                       .spawned_at = r.spawned_at, .failed = r.server->failed(),
                       .retired = r.retired};
      // A failed replica's provisioned window ends at its death; a retired
      // one's when its drain completes (the capacity is released then) -- so
      // replica_seconds and fleet utilization credit scale-downs. Survivors
      // are billed until the fleet finishes.
      if (rr.failed) {
        rr.alive_until = monde::min(r.server->fault().fail_at, rep.makespan);
      } else if (rr.retired) {
        rr.alive_until =
            monde::max(r.retired_at, rr.serve.steps.empty() ? rr.spawned_at : rr.serve.makespan);
      } else {
        rr.alive_until = rep.makespan;
      }
      rr.alive_until = monde::max(rr.alive_until, rr.spawned_at);
      // Utilization weights each replica by the window it was actually alive
      // -- an autoscaled replica is not diluted by time before its spawn, nor a
      // failed one credited for time after its death.
      const Duration window = rr.alive_until - rr.spawned_at;
      rr.utilization = window > Duration::zero() ? rr.serve.busy / window : 0.0;
      rep.cached_prefill_tokens += rr.serve.cache.saved_tokens;
      rep.expert_hits += rr.serve.expert_hits;
      rep.expert_misses += rr.serve.expert_misses;
      rep.handoff_tokens += rr.serve.handoff_tokens;
      rep.handoff_transfer_s += rr.serve.handoff_transfer.sec();
      if (cfg.disagg.enabled) {
        ClusterReport::PoolReport& pr = r.prefill ? rep.prefill_pool : rep.decode_pool;
        ++pr.replicas;
        pr.dispatched += rr.dispatched;
        pr.steps += rr.serve.steps.size();
        pr.busy_s += rr.serve.busy.sec();
        pr.replica_seconds += window.sec();
      }
      total_busy += rr.serve.busy;
      total_alive += window;
      busy_ms.push_back(rr.serve.busy.ms());
      for (const RequestMetrics& m : rr.serve.requests) {
        RequestMetrics fm = m;
        fm.arrival = original_arrival.at(fm.id);  // re-dispatches span their failures
        // Tokens delivered, fleet-wide: each request's full generation counts
        // once, on the replica that finished it (resumed tokens included --
        // they reached the user, and the replica that computed them aborted
        // without reporting).
        rep.generated_tokens += static_cast<std::uint64_t>(fm.generated);
        ttft_ms.push_back(fm.ttft().ms());
        if (fm.generated > 1) tpot_ms.push_back(fm.tpot().ms());
        e2e_ms.push_back(fm.e2e().ms());
        rep.requests.push_back(fm);
      }
      rep.replicas.push_back(std::move(rr));
    }
    MONDE_ASSERT(rep.requests.size() == original_arrival.size(),
                 "cluster lost requests: served " << rep.requests.size() << " of "
                                                  << original_arrival.size());
    std::stable_sort(rep.requests.begin(), rep.requests.end(), arrival_order<RequestMetrics>);
    rep.imbalance = imbalance_factor(busy_ms);
    rep.fleet_utilization = total_alive > Duration::zero() ? total_busy / total_alive : 0.0;
    rep.replica_seconds = total_alive.sec();
    if (!ttft_ms.empty()) rep.ttft_ms = compute_percentiles(std::move(ttft_ms));
    if (!tpot_ms.empty()) rep.tpot_ms = compute_percentiles(std::move(tpot_ms));
    if (!e2e_ms.empty()) rep.e2e_ms = compute_percentiles(std::move(e2e_ms));
    rep.tokens_per_s = rep.makespan > Duration::zero()
                           ? static_cast<double>(rep.generated_tokens) / rep.makespan.sec()
                           : 0.0;
    const std::uint64_t expert_total = rep.expert_hits + rep.expert_misses;
    rep.expert_hit_rate = expert_total == 0 ? 0.0
                                            : static_cast<double>(rep.expert_hits) /
                                                  static_cast<double>(expert_total);
    for (ClusterReport::PoolReport* pr : {&rep.prefill_pool, &rep.decode_pool}) {
      pr->utilization = pr->replica_seconds > 0.0 ? pr->busy_s / pr->replica_seconds : 0.0;
      pr->mean_step_ms =
          pr->steps > 0 ? pr->busy_s * 1000.0 / static_cast<double>(pr->steps) : 0.0;
    }
    return std::move(rep);
  }
};

// --- The event loop ----------------------------------------------------------

ClusterReport ClusterSim::run(ArrivalStream& arrivals, Dispatcher& dispatcher,
                              Autoscaler* autoscaler) {
  MONDE_REQUIRE(!used_, "ClusterSim::run() may be called only once");
  used_ = true;
  Run run{*this, arrivals, dispatcher, autoscaler};
  for (;;) {
    const Duration item_t = run.items.next_time();
    // Earliest undetected fail-stop: its detection is a cluster event even
    // when it lies beyond the last arrival (stranded work must recover).
    const auto [det_t, det_i] = run.calendar->next_detection();
    // The autoscaler ticks while arrivals/retries remain AND through the
    // drain phase while any replica still holds work, so late scale-downs
    // release idle capacity (drain-phase ticks may only scale down). A
    // fixed-mode replica holding an under-full batch waits for a seal only
    // drain() provides (no finite next event), so it keeps no tick alive.
    const Duration tick_t =
        autoscaler != nullptr && (!run.items.empty() || run.calendar->has_live_work())
            ? run.next_tick
            : Duration::infinite();
    // Rebalance ticks only matter while requests remain to route.
    const Duration reb_t =
        run.rebalance_on && !run.items.empty() ? run.next_rebalance : Duration::infinite();
    const Duration anchor = monde::min(monde::min(det_t, item_t), monde::min(tick_t, reb_t));
    if (run.next_prefill_event() < anchor) {
      run.advance_prefill_to(anchor);
    } else if (det_t <= item_t && det_t <= tick_t && det_t <= reb_t) {
      // An all-infinite tie lands here: the prefill pool holds no future
      // work either (its next event lost the strict comparison), so the
      // fleet is truly idle.
      if (det_t == Duration::infinite()) break;
      run.on_detection(det_t, det_i);
    } else if (tick_t <= item_t && tick_t <= reb_t) {
      run.on_autoscale_tick(tick_t);
    } else if (reb_t <= item_t) {
      run.on_rebalance_tick(reb_t);
    } else {
      // item_t won every comparison against the others, so it is finite.
      MONDE_ASSERT(!run.items.empty(), "item branch reached with no item");
      run.on_dispatch(item_t);
    }
  }
  // No further arrivals: each replica drains to completion on its own (failed
  // ones were harvested above), independently of the others -- the shared
  // NdpCoreSim memo is concurrency-safe with canonical values -- so the
  // drains fan out over `threads`. The report reads the servers only after
  // every drain returned.
  run.phase_begin();
  common::TaskPool{cfg_.threads}.run(replicas_.size(),
                                     [&](std::size_t i) { replicas_[i].server->drain(); });
  run.phase_end(run.rep.phase_advance_s);
  return run.report();
}

}  // namespace monde::serve
