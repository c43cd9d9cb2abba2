// Unit tests for the cluster serving layer: dispatch policies, the
// multi-replica ClusterSim, and its equivalence to a single ServerSim.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"
#include "serve_fixtures.hpp"

namespace monde::serve {
namespace {

// tiny_model()/small_shape() come from the shared serving fixtures.
using fixtures::small_shape;
using fixtures::tiny_model;

ClusterSim make_cluster(std::size_t n, SchedulerConfig cfg = {}, std::uint64_t seed0 = 1) {
  return ClusterSim{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                    uniform_fleet(n, core::StrategyKind::kMondeLoadBalanced, cfg, seed0)};
}

// --- Dispatch policies (no engine involved) -----------------------------------

std::vector<ReplicaSnapshot> snapshots(std::vector<std::size_t> in_flight,
                                       std::vector<std::int64_t> tokens) {
  std::vector<ReplicaSnapshot> snaps;
  for (std::size_t i = 0; i < in_flight.size(); ++i) {
    snaps.push_back({i, in_flight[i], tokens[i]});
  }
  return snaps;
}

TEST(Dispatch, RoundRobinCycles) {
  auto d = make_dispatcher(DispatchPolicy::kRoundRobin);
  const auto snaps = snapshots({9, 0, 0}, {9, 0, 0});  // load-oblivious
  EXPECT_EQ(d->pick(snaps), 0u);
  EXPECT_EQ(d->pick(snaps), 1u);
  EXPECT_EQ(d->pick(snaps), 2u);
  EXPECT_EQ(d->pick(snaps), 0u);
}

TEST(Dispatch, JoinShortestQueuePicksMinInFlight) {
  auto d = make_dispatcher(DispatchPolicy::kJoinShortestQueue);
  EXPECT_EQ(d->pick(snapshots({3, 1, 2}, {0, 900, 0})), 1u);  // ignores tokens
  EXPECT_EQ(d->pick(snapshots({2, 1, 1}, {0, 0, 0})), 1u);    // tie -> lowest index
}

TEST(Dispatch, LeastOutstandingTokensWeighsRequestSize) {
  auto d = make_dispatcher(DispatchPolicy::kLeastOutstandingTokens);
  // Replica 0 has fewer requests but owes far more tokens.
  EXPECT_EQ(d->pick(snapshots({1, 3}, {4000, 120})), 1u);
  EXPECT_EQ(d->pick(snapshots({1, 3}, {50, 120})), 0u);
}

TEST(Dispatch, PowerOfTwoIsDeterministicAndInRange) {
  const auto snaps = snapshots({4, 0, 7, 2}, {0, 0, 0, 0});
  auto a = make_dispatcher(DispatchPolicy::kPowerOfTwoChoices, 5);
  auto b = make_dispatcher(DispatchPolicy::kPowerOfTwoChoices, 5);
  for (int i = 0; i < 64; ++i) {
    const std::size_t pa = a->pick(snaps);
    EXPECT_EQ(pa, b->pick(snaps));
    EXPECT_LT(pa, snaps.size());
  }
  // Single replica: no probing needed.
  auto single = make_dispatcher(DispatchPolicy::kPowerOfTwoChoices, 5);
  EXPECT_EQ(single->pick(snapshots({42}, {42})), 0u);
}

TEST(Dispatch, EligibleSnapshotsFilterHealth) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<ReplicaSnapshot> all = snapshots({1, 2, 3, 4}, {10, 20, 30, 40});
  // All healthy: the filter is the identity (the fault-free fast path).
  EXPECT_EQ(eligible_snapshots(all, inf).size(), 4u);

  // Non-accepting replicas are excluded outright...
  all[1].accepting = false;
  auto out = eligible_snapshots(all, inf);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1].replica, 2u);  // order and indices preserved
  // ...and a stale heartbeat is an exclusion too (an undetected death).
  all[2].heartbeat_age_ms = 9.0;
  out = eligible_snapshots(all, inf, /*stale_age_ms=*/6.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].replica, 0u);
  EXPECT_EQ(out[1].replica, 3u);

  // Warming replicas stay eligible: they accept and queue.
  all[3].warming = true;
  EXPECT_EQ(eligible_snapshots(all, inf, 6.0).size(), 2u);

  // The slow-EWMA cut drops outliers but never empties the set.
  std::vector<ReplicaSnapshot> fleet = snapshots({0, 0, 0}, {0, 0, 0});
  fleet[0].step_ewma_ms = 1.0;
  fleet[1].step_ewma_ms = 1.2;
  fleet[2].step_ewma_ms = 9.0;  // > 2x median
  out = eligible_snapshots(fleet, /*slow_ewma_factor=*/2.0);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].replica, 0u);
  EXPECT_EQ(out[1].replica, 1u);
  for (ReplicaSnapshot& s : fleet) s.step_ewma_ms = 50.0;  // all equally "slow"
  EXPECT_EQ(eligible_snapshots(fleet, 2.0).size(), 3u);

  // Every replica failed/retired: the cluster cannot place the request.
  for (ReplicaSnapshot& s : all) s.accepting = false;
  EXPECT_THROW((void)eligible_snapshots(all, inf), Error);
}

TEST(Dispatch, RejectsEmptySnapshot) {
  for (const DispatchPolicy policy : all_dispatch_policies()) {
    auto d = make_dispatcher(policy);
    EXPECT_THROW((void)d->pick({}), Error) << to_string(policy);
  }
}

// --- ClusterSim ---------------------------------------------------------------

TEST(ClusterSim, DeterministicGivenSeedForEveryPolicy) {
  const auto trace = poisson_trace(16, 60.0, small_shape(), 5);
  for (const DispatchPolicy policy : all_dispatch_policies()) {
    const auto run_once = [&] {
      ClusterSim cluster = make_cluster(3);
      const auto dispatcher = make_dispatcher(policy, 11);
      return cluster.run(trace, *dispatcher);
    };
    const ClusterReport a = run_once();
    const ClusterReport b = run_once();
    ASSERT_EQ(a.requests.size(), b.requests.size()) << a.policy;
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      EXPECT_EQ(a.requests[i].id, b.requests[i].id) << a.policy;
      EXPECT_DOUBLE_EQ(a.requests[i].ttft().ns(), b.requests[i].ttft().ns()) << a.policy;
      EXPECT_DOUBLE_EQ(a.requests[i].e2e().ns(), b.requests[i].e2e().ns()) << a.policy;
    }
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (std::size_t i = 0; i < a.replicas.size(); ++i) {
      EXPECT_EQ(a.replicas[i].dispatched, b.replicas[i].dispatched) << a.policy;
    }
    EXPECT_DOUBLE_EQ(a.makespan.ns(), b.makespan.ns()) << a.policy;
  }
}

TEST(ClusterSim, LoadAwarePoliciesBeatRoundRobinOnBurstyTrace) {
  // A heterogeneous fleet: three full-budget MD+LB replicas plus one
  // capacity-limited GPU+PM replica (a smaller per-step token budget, as a
  // smaller-memory node would have). Round-robin keeps handing the weak
  // replica a full quarter of every burst, so its queue builds across
  // bursts and dominates the fleet TTFT tail; the load-aware policies see
  // its backlog in the snapshots and route around it. (On a homogeneous
  // fleet with evenly split bursts, JSQ and round-robin make near-identical
  // choices -- the asymmetric fleet is what load-awareness is for.)
  RequestShape shape;
  shape.prompt_min = 16;
  shape.prompt_max = 64;
  shape.new_tokens_min = 4;
  shape.new_tokens_max = 24;
  const auto trace = bursty_trace(48, 8, Duration::millis(40), shape, 13);
  SchedulerConfig strong;
  strong.token_budget = 128;
  SchedulerConfig weak;
  weak.token_budget = 24;
  weak.fixed_batch = 4;
  const auto p95_ttft = [&](DispatchPolicy policy) {
    std::vector<ReplicaSpec> specs;
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, strong, 1, {}});
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, strong, 2, {}});
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, strong, 3, {}});
    specs.push_back({core::StrategyKind::kGpuPmove, weak, 4, {}});
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(), specs};
    const auto dispatcher = make_dispatcher(policy, 17);
    return cluster.run(trace, *dispatcher).ttft_ms.p95;
  };
  const double rr = p95_ttft(DispatchPolicy::kRoundRobin);
  EXPECT_LT(p95_ttft(DispatchPolicy::kJoinShortestQueue), rr);
  EXPECT_LT(p95_ttft(DispatchPolicy::kPowerOfTwoChoices), rr);
  EXPECT_LT(p95_ttft(DispatchPolicy::kLeastOutstandingTokens), rr);
}

TEST(ClusterSim, FleetMetricsAreUnionOfReplicaMetrics) {
  const auto trace = poisson_trace(20, 80.0, small_shape(), 3);
  ClusterSim cluster = make_cluster(3);
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue);
  const ClusterReport rep = cluster.run(trace, *dispatcher);

  // No request lost or double-counted: fleet ids == trace ids exactly.
  ASSERT_EQ(rep.requests.size(), trace.size());
  std::set<std::uint64_t> fleet_ids, trace_ids;
  for (const auto& m : rep.requests) fleet_ids.insert(m.id);
  for (const auto& rq : trace) trace_ids.insert(rq.id);
  EXPECT_EQ(fleet_ids, trace_ids);

  // Fleet entries are bit-identical to the per-replica entries they union.
  std::map<std::uint64_t, RequestMetrics> by_id;
  std::size_t replica_total = 0;
  std::size_t dispatched_total = 0;
  std::uint64_t tokens_total = 0;
  for (const ReplicaReport& rr : rep.replicas) {
    replica_total += rr.serve.requests.size();
    dispatched_total += rr.dispatched;
    tokens_total += rr.serve.generated_tokens;
    for (const auto& m : rr.serve.requests) {
      EXPECT_TRUE(by_id.emplace(m.id, m).second);  // unique across replicas
    }
  }
  EXPECT_EQ(replica_total, trace.size());
  EXPECT_EQ(dispatched_total, trace.size());
  EXPECT_EQ(tokens_total, rep.generated_tokens);
  for (const auto& m : rep.requests) {
    const auto it = by_id.find(m.id);
    ASSERT_NE(it, by_id.end());
    EXPECT_DOUBLE_EQ(m.first_token.ns(), it->second.first_token.ns());
    EXPECT_DOUBLE_EQ(m.completion.ns(), it->second.completion.ns());
    EXPECT_EQ(m.generated, it->second.generated);
  }
}

TEST(ClusterSim, SingleReplicaReproducesServerSimBitIdentically) {
  // Pins the run-to-completion -> incremental-event refactor: a one-replica
  // cluster must be indistinguishable from ServerSim::run() under every
  // dispatch policy and both batching modes.
  const auto trace = poisson_trace(10, 50.0, small_shape(), 8);
  for (const BatchingMode mode : {BatchingMode::kContinuous, BatchingMode::kFixed}) {
    SchedulerConfig cfg;
    cfg.mode = mode;
    cfg.token_budget = 128;
    cfg.fixed_batch = 4;
    core::InferenceEngine single{core::SystemConfig::dac24(), tiny_model(),
                                 moe::SkewProfile::switch_like(),
                                 core::StrategyKind::kMondeLoadBalanced, /*seed=*/21};
    const ServeReport ref = ServerSim{single, cfg}.run(trace);

    for (const DispatchPolicy policy : all_dispatch_policies()) {
      ClusterSim cluster = make_cluster(1, cfg, /*seed0=*/21);
      const auto dispatcher = make_dispatcher(policy, 3);
      const ClusterReport rep = cluster.run(trace, *dispatcher);
      SCOPED_TRACE(to_string(mode) + " / " + rep.policy);
      ASSERT_EQ(rep.replicas.size(), 1u);
      const ServeReport& serve = rep.replicas[0].serve;
      ASSERT_EQ(serve.requests.size(), ref.requests.size());
      for (std::size_t i = 0; i < serve.requests.size(); ++i) {
        EXPECT_EQ(serve.requests[i].id, ref.requests[i].id);
        EXPECT_DOUBLE_EQ(serve.requests[i].admitted.ns(), ref.requests[i].admitted.ns());
        EXPECT_DOUBLE_EQ(serve.requests[i].first_token.ns(), ref.requests[i].first_token.ns());
        EXPECT_DOUBLE_EQ(serve.requests[i].completion.ns(), ref.requests[i].completion.ns());
      }
      ASSERT_EQ(serve.steps.size(), ref.steps.size());
      for (std::size_t i = 0; i < serve.steps.size(); ++i) {
        EXPECT_DOUBLE_EQ(serve.steps[i].start.ns(), ref.steps[i].start.ns());
        EXPECT_DOUBLE_EQ(serve.steps[i].end.ns(), ref.steps[i].end.ns());
      }
      EXPECT_DOUBLE_EQ(serve.makespan.ns(), ref.makespan.ns());
      EXPECT_DOUBLE_EQ(rep.makespan.ns(), ref.makespan.ns());
      EXPECT_EQ(rep.generated_tokens, ref.generated_tokens);
    }
  }
}

TEST(ClusterSim, HeterogeneousReplicasServeTheWholeTrace) {
  SchedulerConfig cfg;
  std::vector<ReplicaSpec> specs;
  specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 1, {}});
  specs.push_back({core::StrategyKind::kGpuPmove, cfg, 2, {}});
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     specs};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kLeastOutstandingTokens);
  const ClusterReport rep = cluster.run(poisson_trace(10, 50.0, small_shape(), 9), *dispatcher);
  EXPECT_EQ(rep.requests.size(), 10u);
  ASSERT_EQ(rep.replicas.size(), 2u);
  EXPECT_NE(rep.replicas[0].serve.strategy, rep.replicas[1].serve.strategy);
  for (const ReplicaReport& rr : rep.replicas) {
    EXPECT_GE(rr.utilization, 0.0);
    EXPECT_LE(rr.utilization, 1.0);
  }
  EXPECT_GT(rep.tokens_per_s, 0.0);
  EXPECT_GE(rep.imbalance, 1.0);  // both replicas served something
}

// --- Failure injection --------------------------------------------------------

TEST(ClusterSim, NoFaultConfiguredRunMatchesDefaultRunBitIdentically) {
  // Carrying an explicit ClusterConfig (health checking armed, retry/warmup
  // configured) must not perturb a fault-free, autoscaler-off run: the
  // health filter is the identity when every replica is healthy. Together
  // with SingleReplicaReproducesServerSimBitIdentically this pins the PR 3
  // behavior of the elastic cluster layer.
  const auto trace = poisson_trace(14, 70.0, small_shape(), 21);
  const auto run_with = [&](ClusterConfig cfg) {
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(),
                       uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced,
                                     SchedulerConfig{}),
                       cfg};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kPowerOfTwoChoices, 11);
    return cluster.run(trace, *dispatcher);
  };
  ClusterConfig tuned;
  tuned.health.heartbeat_interval = Duration::millis(1);
  tuned.health.heartbeat_timeout = Duration::millis(3);
  tuned.retry_timeout = Duration::millis(7);
  tuned.warmup = Duration::millis(30);
  const ClusterReport a = run_with(ClusterConfig{});
  const ClusterReport b = run_with(tuned);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_DOUBLE_EQ(a.requests[i].first_token.ns(), b.requests[i].first_token.ns());
    EXPECT_DOUBLE_EQ(a.requests[i].completion.ns(), b.requests[i].completion.ns());
  }
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    EXPECT_EQ(a.replicas[i].dispatched, b.replicas[i].dispatched);
    EXPECT_DOUBLE_EQ(a.replicas[i].utilization, b.replicas[i].utilization);
  }
  EXPECT_DOUBLE_EQ(a.makespan.ns(), b.makespan.ns());
  EXPECT_TRUE(a.events.empty());
  EXPECT_TRUE(b.events.empty());
  EXPECT_EQ(a.retries, 0u);
}

TEST(ClusterSim, FailStopRequestsAllCompleteViaRetry) {
  // Replica 1 dies mid-trace. The dispatcher keeps feeding it until the
  // heartbeat monitor declares it dead; everything stranded there (queued,
  // mid-decode, or dispatched into the detection window) must be harvested
  // and complete elsewhere, with the retry delay visible in the metrics.
  const auto trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  ClusterConfig cfg;
  cfg.health.heartbeat_interval = Duration::millis(2);
  cfg.health.heartbeat_timeout = Duration::millis(6);
  cfg.retry_timeout = Duration::millis(2);
  auto specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  specs[1].fault.fail_at = Duration::millis(30);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     specs, cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  const ClusterReport rep = cluster.run(trace, *dispatcher);

  // Nothing lost: the fleet union is exactly the trace, once each.
  ASSERT_EQ(rep.requests.size(), trace.size());
  std::set<std::uint64_t> ids;
  for (const auto& m : rep.requests) ids.insert(m.id);
  EXPECT_EQ(ids.size(), trace.size());

  ASSERT_EQ(rep.replicas.size(), 3u);
  const ReplicaReport& dead = rep.replicas[1];
  EXPECT_TRUE(dead.failed);
  EXPECT_DOUBLE_EQ(dead.alive_until.ms(), 30.0);
  // The dead replica's report covers only requests it completed in time...
  for (const auto& m : dead.serve.requests) {
    EXPECT_LE(m.completion, specs[1].fault.fail_at);
  }
  // ...and its clock froze at death.
  EXPECT_LE(dead.serve.makespan, specs[1].fault.fail_at);

  // Detection lags death by the heartbeat model; retries land after the
  // retry timeout and their completions carry the full failure cost.
  const Duration detect = failure_detection_time(specs[1].fault.fail_at, cfg.health);
  EXPECT_GT(detect, specs[1].fault.fail_at);
  EXPECT_GT(rep.retries, 0u);
  bool saw_fail = false, saw_detect = false;
  std::size_t retry_events = 0;
  for (const ClusterEvent& ev : rep.events) {
    switch (ev.kind) {
      case ClusterEvent::Kind::kFailStop:
        saw_fail = true;
        EXPECT_DOUBLE_EQ(ev.time.ms(), 30.0);
        break;
      case ClusterEvent::Kind::kFailureDetected:
        saw_detect = true;
        EXPECT_DOUBLE_EQ(ev.time.ns(), detect.ns());
        break;
      case ClusterEvent::Kind::kRetry:
        ++retry_events;
        EXPECT_DOUBLE_EQ(ev.time.ns(), (detect + cfg.retry_timeout).ns());
        EXPECT_NE(ev.replica, 1u);  // never back onto the dead replica
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_detect);
  EXPECT_EQ(retry_events, rep.retries);
  // Retried requests restarted elsewhere after detection + timeout, and the
  // fleet metrics measure them from their original arrival.
  std::size_t retried = 0;
  for (const auto& m : rep.requests) {
    if (m.attempt == 0) continue;
    ++retried;
    EXPECT_GT(m.first_token, detect + cfg.retry_timeout);
    // Fleet metrics are re-based to the ORIGINAL arrival (which necessarily
    // precedes the failure), not the retry instant (which follows it).
    EXPECT_LT(m.arrival, specs[1].fault.fail_at);
  }
  EXPECT_EQ(retried, rep.retries);
}

TEST(ClusterEvent, DescribeMatchesTheTimelineWording) {
  // One event per kind (both scale-down wordings, a plain and a resumed
  // retry or migration), against the timeline text the cluster has always
  // printed.
  ClusterReport rep;
  for (const char* name : {"replica0 (MD+LB)", "replica1 (MD+LB) [prefill]",
                           "replica2 (GPU+PM)"}) {
    ReplicaReport rr;
    rr.name = name;
    rep.replicas.push_back(rr);
  }
  using Kind = ClusterEvent::Kind;
  const std::vector<std::pair<ClusterEvent, std::string>> golden{
      {{.kind = Kind::kScaleUp, .replica = 2, .ready_at = Duration::millis(20)},
       "spawned replica2 (GPU+PM), ready at 20.000 ms"},
      {{.kind = Kind::kScaleDown, .replica = 1, .count = 4},
       "retired replica1 (MD+LB) [prefill] (4 request(s) left to drain)"},
      {{.kind = Kind::kScaleDown, .replica = 0, .count = 3, .migrated = true},
       "retired replica0 (MD+LB) (migrated 3 request(s))"},
      {{.kind = Kind::kFailStop, .replica = 1}, "replica1 died"},
      {{.kind = Kind::kFailureDetected, .replica = 1, .count = 7},
       "heartbeat stale; 7 stranded request(s) queued for retry"},
      {{.kind = Kind::kRetry, .replica = 2, .request = 21, .attempt = 1},
       "request 21 attempt 1 -> replica2"},
      {{.kind = Kind::kRetry, .replica = 0, .request = 9, .attempt = 2, .kv_tokens = 40,
        .resumed = true},
       "request 9 attempt 2 -> replica0 (resumed 40 tokens)"},
      {{.kind = Kind::kMigrate, .replica = 2, .request = 12, .attempt = 1},
       "request 12 attempt 1 -> replica2"},
      {{.kind = Kind::kMigrate, .replica = 0, .request = 5, .attempt = 3, .kv_tokens = 17,
        .resumed = true},
       "request 5 attempt 3 -> replica0 (resumed 17 tokens)"},
      {{.kind = Kind::kExpertRebalance, .replica = 2, .count = 4},
       "preloaded 4 hot expert(s) onto replica2"},
      {{.kind = Kind::kHandoff, .replica = 2, .request = 8, .kv_tokens = 33},
       "request 8 prefill complete -> replica2 (33 KV tokens)"},
  };
  for (const auto& [ev, text] : golden) {
    EXPECT_EQ(describe(ev, rep), text) << to_string(ev.kind);
  }
}

TEST(ClusterSim, FailStopAfterLastArrivalStillRecoversStrandedWork) {
  // The failure (and therefore its detection) can lie beyond the last
  // arrival: the cluster must still process the detection, retry, and
  // complete everything rather than hanging the stranded tail.
  const auto trace = closed_loop_trace(10, small_shape(), 9);
  ClusterConfig cfg;
  auto specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  specs[0].fault.fail_at = Duration::millis(4);  // mid-backlog, after t=0 arrivals
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     specs, cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin);
  const ClusterReport rep = cluster.run(trace, *dispatcher);
  ASSERT_EQ(rep.requests.size(), trace.size());
  EXPECT_TRUE(rep.replicas[0].failed);
  EXPECT_GT(rep.retries, 0u);
}

TEST(ClusterSim, SlowdownStretchesStepsAndEwmaFilterRoutesAround) {
  // Server-level: a 3x slow-down covering the whole run must dilate every
  // step span by exactly the factor relative to an identical fault-free
  // twin. A closed-loop trace makes admission time-independent, so the two
  // runs execute the same step sequence and steps correspond one to one.
  const auto trace = closed_loop_trace(8, small_shape(), 8);
  SchedulerConfig sched;
  sched.token_budget = 64;  // force several steps
  FaultSpec slow;
  slow.slow_from = Duration::zero();
  slow.slow_until = Duration::infinite();
  slow.slow_factor = 3.0;
  core::InferenceEngine ref_engine{core::SystemConfig::dac24(), tiny_model(),
                                   moe::SkewProfile::switch_like(),
                                   core::StrategyKind::kMondeLoadBalanced, 5};
  const ServeReport ref = ServerSim{ref_engine, sched}.run(trace);
  core::InferenceEngine slow_engine{core::SystemConfig::dac24(), tiny_model(),
                                    moe::SkewProfile::switch_like(),
                                    core::StrategyKind::kMondeLoadBalanced, 5};
  const ServeReport degraded =
      ServerSim{slow_engine, sched, Duration::zero(), slow}.run(trace);
  ASSERT_EQ(degraded.steps.size(), ref.steps.size());
  ASSERT_GT(ref.steps.size(), 1u);
  for (std::size_t i = 0; i < ref.steps.size(); ++i) {
    const double ref_span = (ref.steps[i].end - ref.steps[i].start).ns();
    const double slow_span = (degraded.steps[i].end - degraded.steps[i].start).ns();
    EXPECT_NEAR(slow_span, 3.0 * ref_span, 1e-3) << "step " << i;
  }
  EXPECT_NEAR(degraded.makespan.ns(), 3.0 * ref.makespan.ns(), 1.0);

  // Cluster-level: with the slow-EWMA filter armed, the degraded replica
  // receives fewer requests than with health-oblivious dispatch.
  const auto cluster_trace = poisson_trace(24, 120.0, small_shape(), 12);
  const auto dispatched_to_slow = [&](double slow_ewma_factor) {
    ClusterConfig cfg;
    cfg.health.slow_ewma_factor = slow_ewma_factor;
    auto specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
    specs[2].fault.slow_from = Duration::zero();
    specs[2].fault.slow_until = Duration::infinite();
    specs[2].fault.slow_factor = 8.0;
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(), specs, cfg};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin);
    const ClusterReport rep = cluster.run(cluster_trace, *dispatcher);
    return rep.replicas[2].dispatched;
  };
  const std::size_t oblivious = dispatched_to_slow(
      std::numeric_limits<double>::infinity());
  const std::size_t aware = dispatched_to_slow(2.0);
  EXPECT_LT(aware, oblivious);
}

TEST(ClusterSim, HeartbeatModelIsConsistent) {
  HealthConfig cfg;
  cfg.heartbeat_interval = Duration::millis(2);
  cfg.heartbeat_timeout = Duration::millis(6);
  // A live replica's heartbeat age never exceeds one interval.
  EXPECT_DOUBLE_EQ(
      last_ok_heartbeat(Duration::millis(7), Duration::infinite(), cfg).ms(), 6.0);
  // A replica dying at 9 ms last answered the 8 ms poll...
  EXPECT_DOUBLE_EQ(
      last_ok_heartbeat(Duration::millis(20), Duration::millis(9), cfg).ms(), 8.0);
  // ...a replica dying exactly on a poll instant missed that poll...
  EXPECT_DOUBLE_EQ(
      last_ok_heartbeat(Duration::millis(20), Duration::millis(8), cfg).ms(), 6.0);
  // ...and detection fires when the age crosses the timeout.
  EXPECT_DOUBLE_EQ(failure_detection_time(Duration::millis(9), cfg).ms(), 14.0);
  EXPECT_GE(failure_detection_time(Duration::millis(1), cfg), Duration::millis(1));
}

TEST(ClusterSim, RejectsBadConfigurations) {
  SchedulerConfig cfg;
  EXPECT_THROW((void)uniform_fleet(0, core::StrategyKind::kMondeAmove, cfg), Error);
  ClusterSim cluster = make_cluster(2);
  const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin);
  EXPECT_THROW((void)cluster.run({}, *dispatcher), Error);  // empty trace
}

// --- Prefix cache, partial-progress retry, and migration ----------------------

RequestShape prefix_shape(double fraction = 1.0) {
  RequestShape s = small_shape();
  s.prefix_groups = 2;
  s.shared_fraction = fraction;
  s.shared_prefix_len = 12;
  return s;
}

/// Cheap, near-instant state transfers so resume/migration timing effects
/// stay dominated by the saved compute, not the link.
PrefixCacheConfig enabled_cache() {
  PrefixCacheConfig cache;
  cache.enabled = true;
  cache.kv_bytes_per_token = Bytes{16};
  cache.migration_bw = Bandwidth::gbps(100.0);
  return cache;
}

TEST(ClusterSim, CacheDisabledConfigIsBitIdenticalToDefault) {
  // The acceptance pin, cluster level: a disabled cache -- whatever its
  // other knobs say, on a trace that carries shared-prefix ids -- must
  // reproduce the default (cache-less) cluster bit for bit.
  const auto trace = poisson_trace(14, 70.0, prefix_shape(0.75), 21);
  const auto run_with = [&](ClusterConfig cfg) {
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(),
                       uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced,
                                     SchedulerConfig{}),
                       cfg};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 11);
    return cluster.run(trace, *dispatcher);
  };
  ClusterConfig off;
  off.cache.enabled = false;
  off.cache.capacity_tokens = 1;       // junk knobs must never be read
  off.cache.survive_failstop = true;   // policy flags are inert when disabled
  off.cache.migrate_on_retire = true;
  const ClusterReport a = run_with(ClusterConfig{});
  const ClusterReport b = run_with(off);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_EQ(a.requests[i].id, b.requests[i].id);
    EXPECT_DOUBLE_EQ(a.requests[i].first_token.ns(), b.requests[i].first_token.ns());
    EXPECT_DOUBLE_EQ(a.requests[i].completion.ns(), b.requests[i].completion.ns());
  }
  EXPECT_DOUBLE_EQ(a.makespan.ns(), b.makespan.ns());
  EXPECT_EQ(b.cached_prefill_tokens, 0);
  EXPECT_EQ(b.migrations, 0u);
}

TEST(ClusterSim, SharedPrefixCacheSavesPrefillFleetWide) {
  // Closed-loop keeps every replica busy end to end, so the fleet makespan
  // directly reflects the prefill work the caches skipped.
  const auto trace = closed_loop_trace(20, prefix_shape(), 5);
  const auto run_with = [&](ClusterConfig cfg) {
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(),
                       uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                     SchedulerConfig{}),
                       cfg};
    // Round-robin keeps the request->replica assignment identical across
    // the two runs, so the comparison isolates the cache itself.
    const auto dispatcher = make_dispatcher(DispatchPolicy::kRoundRobin);
    return cluster.run(trace, *dispatcher);
  };
  ClusterConfig on;
  on.cache = enabled_cache();
  const ClusterReport off_rep = run_with(ClusterConfig{});
  const ClusterReport on_rep = run_with(on);
  EXPECT_GT(on_rep.cached_prefill_tokens, 0);
  EXPECT_EQ(off_rep.cached_prefill_tokens, 0);
  ASSERT_EQ(on_rep.requests.size(), trace.size());
  // Skipped prefill is simulated time the fleet genuinely never spends.
  EXPECT_LT(on_rep.makespan, off_rep.makespan);
  std::uint64_t hits = 0;
  for (const ReplicaReport& rr : on_rep.replicas) hits += rr.serve.cache.hits;
  EXPECT_GT(hits, 0u);
}

TEST(ClusterSim, SurvivingCacheResumesStrandedWorkAndCutsTheTail) {
  // Replica 1 of 3 dies mid-trace. Lost-cache mode retries from scratch;
  // surviving-cache mode resumes from the checkpoint (at a near-zero
  // modelled transfer cost), so every retried request finishes no later and
  // the E2E tail shrinks.
  const auto trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  const auto run_with = [&](bool survive) {
    ClusterConfig cfg;
    cfg.health.heartbeat_interval = Duration::millis(2);
    cfg.health.heartbeat_timeout = Duration::millis(6);
    cfg.retry_timeout = Duration::millis(2);
    cfg.cache = enabled_cache();
    cfg.cache.survive_failstop = survive;
    auto specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
    specs[1].fault.fail_at = Duration::millis(30);
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(), specs, cfg};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
    return cluster.run(trace, *dispatcher);
  };
  const ClusterReport lost = run_with(false);
  const ClusterReport kept = run_with(true);
  ASSERT_EQ(lost.requests.size(), trace.size());
  ASSERT_EQ(kept.requests.size(), trace.size());
  EXPECT_GT(lost.retries, 0u);
  EXPECT_EQ(kept.retries, lost.retries);  // identical pre-failure behavior

  std::map<std::uint64_t, const RequestMetrics*> lost_by_id;
  for (const RequestMetrics& m : lost.requests) lost_by_id.emplace(m.id, &m);
  bool any_resumed = false;
  for (const RequestMetrics& m : kept.requests) {
    if (m.attempt == 0) continue;
    const RequestMetrics& twin = *lost_by_id.at(m.id);
    EXPECT_GT(twin.attempt, 0u) << "retry sets must match";
    // In lost-cache mode every retry restarts from scratch...
    EXPECT_EQ(twin.resumed_tokens, 0);
    // ...while a surviving cache resumes whatever was checkpointed. A
    // resumed retry skips work, so it never finishes later (the tiny
    // transfer span is absorbed by the next step boundary).
    EXPECT_LE(m.completion.ns(), twin.completion.ns() + 1.0);
    if (m.resumed_tokens > 0 || m.saved_tokens > 0) any_resumed = true;
    if (m.resumed_tokens > 0) {
      // TTFT of a resumed request points at the ORIGINAL first token,
      // which predates the failure.
      EXPECT_LT(m.first_token, Duration::millis(30));
    }
  }
  EXPECT_TRUE(any_resumed);
  EXPECT_GT(kept.cached_prefill_tokens, 0);
  EXPECT_LT(kept.e2e_ms.p99, lost.e2e_ms.p99);
}

TEST(ClusterSim, ScaleDownMigrationMovesResidentStateAndReleasesCapacity) {
  // A front-loaded burst, then silence: the autoscaler wants to shrink the
  // fleet while work is still in flight. With migration enabled the retiree
  // stops at its step boundary and hands its unfinished requests (with
  // resident state) to the survivor instead of draining them itself.
  const auto trace = bursty_trace(16, 16, Duration::millis(1), small_shape(), 3);
  const auto run_with = [&](bool migrate) {
    ClusterConfig cfg;
    cfg.autoscale_period = Duration::millis(2);
    cfg.cache = enabled_cache();
    cfg.cache.migrate_on_retire = migrate;
    ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(),
                       moe::SkewProfile::switch_like(),
                       uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced,
                                     SchedulerConfig{}),
                       cfg};
    const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 17);
    AutoscaleConfig as;
    as.min_replicas = 1;
    as.max_replicas = 2;
    as.high_tokens_per_replica = 1 << 20;  // never scale up...
    as.low_tokens_per_replica = 1 << 19;   // ...always want to scale down
    const auto autoscaler = make_queue_pressure_autoscaler(as);
    return cluster.run(trace, *dispatcher, autoscaler.get());
  };
  const ClusterReport moved = run_with(true);
  const ClusterReport drained = run_with(false);
  ASSERT_EQ(moved.requests.size(), trace.size());
  ASSERT_EQ(drained.requests.size(), trace.size());
  EXPECT_GT(moved.migrations, 0u);
  EXPECT_EQ(drained.migrations, 0u);
  bool saw_migrate_event = false;
  for (const ClusterEvent& ev : moved.events) {
    saw_migrate_event = saw_migrate_event || ev.kind == ClusterEvent::Kind::kMigrate;
  }
  EXPECT_TRUE(saw_migrate_event);
  bool any_carried_state = false;
  for (const RequestMetrics& m : moved.requests) {
    if (m.attempt > 0 && (m.saved_tokens > 0 || m.resumed_tokens > 0)) {
      any_carried_state = true;
    }
  }
  EXPECT_TRUE(any_carried_state);
  // Migration releases the retiree at its step boundary instead of billing
  // its whole self-drain: the fleet pays fewer replica-seconds.
  EXPECT_LT(moved.replica_seconds, drained.replica_seconds);
  for (const ReplicaReport& rr : moved.replicas) {
    if (rr.retired) {
      EXPECT_LT(rr.alive_until, moved.makespan) << rr.name;
    }
  }
}

TEST(ClusterSim, EvacuatedReplicaLaterFailStopIsHarmless) {
  // The retiree is evacuated at the first autoscale tick; its injected
  // fail-stop fires much later, on an already-empty server. The heartbeat
  // monitor must tolerate the evacuated replica (there is nothing left to
  // harvest) instead of aborting the run.
  const auto trace = bursty_trace(16, 16, Duration::millis(1), small_shape(), 3);
  ClusterConfig cfg;
  cfg.autoscale_period = Duration::millis(2);
  cfg.cache = enabled_cache();
  cfg.cache.migrate_on_retire = true;
  // The weak replica 1 always owes more, so replica 0 -- the faulty one --
  // is deterministically the scale-down victim.
  SchedulerConfig weak;
  weak.token_budget = 32;
  weak.fixed_batch = 4;
  std::vector<ReplicaSpec> specs;
  specs.push_back({core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{}, 1, {}});
  specs.push_back({core::StrategyKind::kMondeLoadBalanced, weak, 2, {}});
  specs[0].fault.fail_at = Duration::millis(60);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     specs, cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 17);
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 2;
  as.high_tokens_per_replica = 1 << 20;
  as.low_tokens_per_replica = 1 << 19;  // always below: shrink when possible
  const auto autoscaler = make_queue_pressure_autoscaler(as);
  const ClusterReport rep = cluster.run(trace, *dispatcher, autoscaler.get());
  ASSERT_EQ(rep.requests.size(), trace.size());
  EXPECT_GT(rep.migrations, 0u);
  const ReplicaReport& victim = rep.replicas[0];
  EXPECT_TRUE(victim.retired);
  EXPECT_TRUE(victim.failed);  // died long after its work moved away
  // The death of an empty, evacuated replica strands nothing.
  std::size_t post_death_retries = 0;
  for (const ClusterEvent& ev : rep.events) {
    if (ev.kind == ClusterEvent::Kind::kRetry) ++post_death_retries;
  }
  EXPECT_EQ(post_death_retries, 0u);
}

TEST(ClusterSim, DoubleFailureRebasesMetricsAcrossAttempts) {
  // The retry replica itself dies: stranded requests go around twice
  // (attempt 2 lands on an autoscaled replacement), and fleet metrics stay
  // keyed to the original arrival through both failures.
  const auto trace = closed_loop_trace(8, small_shape(), 9);
  ClusterConfig cfg;
  cfg.health.heartbeat_interval = Duration::millis(1);
  cfg.health.heartbeat_timeout = Duration::millis(2);
  cfg.retry_timeout = Duration::millis(3);
  cfg.autoscale_period = Duration::millis(1);
  cfg.warmup = Duration::millis(1) / 2.0;
  auto specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  specs[0].fault.fail_at = Duration::millis(2);
  specs[1].fault.fail_at = Duration::millis(8);
  ClusterSim cluster{core::SystemConfig::dac24(), tiny_model(), moe::SkewProfile::switch_like(),
                     specs, cfg};
  const auto dispatcher = make_dispatcher(DispatchPolicy::kJoinShortestQueue, 7);
  AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = 4;
  as.high_tokens_per_replica = 1 << 20;  // replace dead capacity, nothing more
  as.low_tokens_per_replica = 1;
  const auto autoscaler = make_queue_pressure_autoscaler(as);
  const ClusterReport rep = cluster.run(trace, *dispatcher, autoscaler.get());

  ASSERT_EQ(rep.requests.size(), trace.size());
  const Duration second_detect =
      failure_detection_time(specs[1].fault.fail_at, cfg.health);
  std::size_t twice_retried = 0;
  for (const RequestMetrics& m : rep.requests) {
    if (m.attempt < 2) continue;
    ++twice_retried;
    // Re-based to the original (t = 0) arrival, so the E2E spans BOTH
    // failures and both retry timeouts.
    EXPECT_DOUBLE_EQ(m.arrival.ns(), 0.0);
    EXPECT_GT(m.completion, second_detect + cfg.retry_timeout);
    EXPECT_GT(m.e2e(), second_detect + cfg.retry_timeout);  // arrival re-based to 0
  }
  EXPECT_GT(twice_retried, 0u);
  std::size_t detections = 0;
  for (const ClusterEvent& ev : rep.events) {
    if (ev.kind == ClusterEvent::Kind::kFailureDetected) ++detections;
  }
  EXPECT_EQ(detections, 2u);
  EXPECT_TRUE(rep.replicas[0].failed);
  EXPECT_TRUE(rep.replicas[1].failed);
  ASSERT_GT(rep.replicas.size(), 2u);  // the autoscaler replaced capacity
}

}  // namespace
}  // namespace monde::serve
