// Refactor-seam pinning for the indexed event calendar: the calendar-driven
// ClusterSim::run loop must be bit-identical to the classic scan-everything
// loop (ClusterConfig::reference_loop) on the same seeds, across every
// behavior the cluster models -- plain dispatch, failure injection + retry,
// autoscaling, and KV-cache recovery/migration -- and at every thread count
// (the Parallel* tests diff 1/2/4/8 worker threads, which run the final
// drain, against the sequential reference). The loop's components
// (serve/calendar.hpp) are diffed against their reference variants on their
// own too: the arrival merger's order, the heap calendar against the scan,
// the maintained index against a full rebuild. Also covers event-log gating
// and phase timing (metrics identical with either off), the per-dispatch
// slow-EWMA filter, and the ServerSim version counter the calendar's lazy
// deletion trusts.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "serve/arrivals.hpp"
#include "serve/calendar.hpp"
#include "serve/cluster.hpp"
#include "serve_fixtures.hpp"

namespace monde::serve {
namespace {

// Scenario builders and the bit-identity comparator live in
// tests/serve_fixtures.hpp, shared with the disagg and random-diff suites.
using namespace fixtures;

TEST(CalendarDiff, PlainFleetAllPolicies) {
  for (const DispatchPolicy policy : all_dispatch_policies()) {
    Scenario sc;
    sc.trace = poisson_trace(24, 90.0, small_shape(), 21);
    sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
    sc.policy = policy;
    expect_loops_agree(sc);
  }
}

TEST(CalendarDiff, FaultInjectionWithRetries) {
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);  // dies mid-trace, strands work
  sc.specs[2].fault.slow_from = Duration::millis(10);  // and a degraded peer
  sc.specs[2].fault.slow_until = Duration::millis(60);
  sc.specs[2].fault.slow_factor = 3.0;
  sc.cfg.retry_timeout = Duration::millis(2);
  expect_loops_agree(sc);
}

TEST(CalendarDiff, TwoFailStopsCascade) {
  // Both replicas die; retries land on autoscaled replacement capacity --
  // exercises the fail cursor, detection cursor, and spawn path together.
  Scenario sc;
  sc.trace = poisson_trace(16, 120.0, small_shape(), 5);
  sc.specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.fail_at = Duration::millis(2);
  sc.specs[1].fault.fail_at = Duration::millis(8);
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.warmup = Duration::millis(1);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 1;  // spawn eagerly: capacity must
  sc.autoscale.low_tokens_per_replica = 0;   // always exist for the retries
  expect_loops_agree(sc);
}

TEST(CalendarDiff, AutoscaleUpAndDown) {
  Scenario sc;
  sc.trace = bursty_trace(36, 12, Duration::millis(40), small_shape(), 29);
  sc.specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.warmup = Duration::millis(3);
  sc.cfg.autoscale_period = Duration::millis(2);
  sc.policy = DispatchPolicy::kPowerOfTwoChoices;
  sc.dispatch_seed = 11;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;  // bursts force spawns...
  sc.autoscale.low_tokens_per_replica = 8;    // ...idle gaps force retirements
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixCacheSurvivalAndMigration) {
  RequestShape shape = small_shape();
  shape.prefix_groups = 2;  // shared prefixes feed the caches
  shape.shared_fraction = 0.75;
  shape.shared_prefix_len = 12;
  Scenario sc;
  sc.trace = poisson_trace(28, 100.0, shape, 17);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.fail_at = Duration::millis(25);  // retries resume from checkpoints
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.cfg.cache.survive_failstop = true;
  sc.cfg.cache.migrate_on_retire = true;  // retirements live-migrate
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(4);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 1 << 20;
  sc.autoscale.low_tokens_per_replica = 1 << 19;  // always prefer shrinking
  expect_loops_agree(sc);
}

std::vector<std::size_t> dispatched_per_replica(const ClusterReport& rep) {
  std::vector<std::size_t> out;
  for (const ReplicaReport& r : rep.replicas) out.push_back(r.dispatched);
  return out;
}

TEST(CalendarDiff, SlowEwmaFilterStaysIncremental) {
  // A finite slow_ewma_factor keeps the eligible index incremental and
  // filters it per dispatch: the calendar loop runs eligible_snapshots()'s
  // median cutoff over the maintained accepting set, and must match the
  // reference loop, which rebuilds every snapshot before the same filter.
  // Round-robin keeps feeding the degraded replica unless the filter drops
  // it, so the filter must change the per-replica dispatch counts here.
  Scenario sc;
  sc.trace = poisson_trace(20, 80.0, small_shape(), 33);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[2].fault.slow_from = Duration::zero();
  sc.specs[2].fault.slow_until = Duration::seconds(1);
  sc.specs[2].fault.slow_factor = 8.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  sc.policy = DispatchPolicy::kRoundRobin;
  expect_loops_agree(sc);

  Scenario unfiltered = sc;
  unfiltered.cfg.health.slow_ewma_factor = std::numeric_limits<double>::infinity();
  EXPECT_NE(dispatched_per_replica(run_scenario(sc, /*reference_loop=*/false)),
            dispatched_per_replica(run_scenario(unfiltered, /*reference_loop=*/false)));
}

TEST(CalendarDiff, SlowEwmaFilterWithFailuresAndAutoscale) {
  // The per-dispatch filter must also track membership churn in the
  // maintained index: replicas leaving on detection and retirement, joining
  // on spawn, and a degraded peer whose EWMA keeps crossing the moving cutoff.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), small_shape(), 19);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.specs[3].fault.slow_from = Duration::millis(5);
  sc.specs[3].fault.slow_until = Duration::millis(80);
  sc.specs[3].fault.slow_factor = 6.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_loops_agree(sc);
}

// --- Expert-aware serving (profiles, residency, rebalance, pruning) ---------

/// The expert configuration exercised by the diff scenarios: every moving
/// part on at once -- small caches, a rebalance tick, and the pruned
/// degraded mode -- so the calendar loop must reproduce all of it.
ExpertServingConfig diff_expert_config() {
  ExpertServingConfig e;
  e.enabled = true;
  e.cache_capacity = 6;
  e.rebalance_period = Duration::millis(10);
  e.rebalance_hot_experts = 3;
  e.prune_outstanding_tokens = 64;
  return e;
}

TEST(CalendarDiff, ExpertAffinityServingAgrees) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, small_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.expert = diff_expert_config();
  sc.policy = DispatchPolicy::kExpertAffinity;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, ExpertShardedServingAgrees) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, small_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.expert = diff_expert_config();
  sc.policy = DispatchPolicy::kExpertSharded;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, ExpertServingWithFailuresAndAutoscale) {
  // Residency + rebalance under membership churn: a fail-stop mid-trace and
  // an autoscaler spawning/retiring around it. Rebalance preloads must skip
  // dead/retired replicas identically in both loops.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), small_shape(), 19);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.cfg.expert = diff_expert_config();
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.policy = DispatchPolicy::kExpertAffinity;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 5;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_loops_agree(sc);
}

// A multi-tenant shared-prefix shape: most requests join one of a few
// Zipf-skewed groups, so the prefix caches fill and the prefix_sig
// snapshot field actually carries bits through the write-through paths.
RequestShape prefix_shape() {
  RequestShape shape = small_shape();
  shape.prefix_groups = 4;
  shape.shared_fraction = 0.8;
  shape.shared_prefix_len = 12;
  shape.prefix_zipf_s = 1.0;
  return shape;
}

TEST(CalendarDiff, PrefixHashRoutingAgrees) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, prefix_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixHash;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixAffinityRoutingAgrees) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, prefix_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixAffinity;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixRoutingWithFaultsAndAutoscale) {
  // Ring membership under churn: a fail-stop mid-trace plus autoscale
  // spawns/retirements -- the consistent-hash ring (and the prefix_sig
  // write-through on migration) must re-home identically in both loops.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), prefix_shape(), 19);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 2048;
  sc.cfg.cache.survive_failstop = true;
  sc.cfg.cache.migrate_on_retire = true;
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.policy = DispatchPolicy::kPrefixHash;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 5;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, PrefixAffinityWithDisaggPools) {
  // Affinity composes with disaggregation: the prefill pool is where the
  // prefix routing applies; handoffs land decode-phase work via the
  // least-outstanding fallback.
  Scenario sc;
  sc.trace = poisson_trace(28, 250.0, prefix_shape(), 23);
  sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.disagg.enabled = true;
  sc.cfg.disagg.prefill_replicas = 2;
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixAffinity;
  expect_loops_agree(sc);
}

TEST(CalendarDiff, ExpertDisabledConfigIsInert) {
  // A disabled expert config -- even with every other knob tuned -- must
  // leave the run bit-identical to a default-constructed one: the off
  // switch pins the expert-oblivious behavior.
  Scenario plain;
  plain.trace = poisson_trace(24, 90.0, small_shape(), 21);
  plain.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  plain.policy = DispatchPolicy::kLeastOutstandingTokens;
  Scenario tuned = plain;
  tuned.cfg.expert = diff_expert_config();
  tuned.cfg.expert.enabled = false;
  expect_reports_identical(run_scenario(plain, /*reference_loop=*/false),
                           run_scenario(tuned, /*reference_loop=*/false));
}

// --- Parallel drain: 1/2/4/8 threads vs the reference ------------------------

TEST(ParallelDiff, PlainFleetAllPolicies) {
  for (const DispatchPolicy policy : all_dispatch_policies()) {
    Scenario sc;
    sc.trace = poisson_trace(24, 90.0, small_shape(), 21);
    sc.specs = uniform_fleet(4, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
    sc.policy = policy;
    expect_threads_agree(sc);
  }
}

TEST(ParallelDiff, FaultInjectionWithRetries) {
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);
  sc.specs[2].fault.slow_from = Duration::millis(10);
  sc.specs[2].fault.slow_until = Duration::millis(60);
  sc.specs[2].fault.slow_factor = 3.0;
  sc.cfg.retry_timeout = Duration::millis(2);
  expect_threads_agree(sc);
}

TEST(ParallelDiff, AutoscaleUpAndDown) {
  Scenario sc;
  sc.trace = bursty_trace(36, 12, Duration::millis(40), small_shape(), 29);
  sc.specs = uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.warmup = Duration::millis(3);
  sc.cfg.autoscale_period = Duration::millis(2);
  sc.policy = DispatchPolicy::kPowerOfTwoChoices;
  sc.dispatch_seed = 11;
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, PrefixCacheSurvivalAndMigration) {
  RequestShape shape = small_shape();
  shape.prefix_groups = 2;
  shape.shared_fraction = 0.75;
  shape.shared_prefix_len = 12;
  Scenario sc;
  sc.trace = poisson_trace(28, 100.0, shape, 17);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[0].fault.fail_at = Duration::millis(25);
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.cfg.cache.survive_failstop = true;
  sc.cfg.cache.migrate_on_retire = true;
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(4);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 1 << 20;
  sc.autoscale.low_tokens_per_replica = 1 << 19;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, ExpertServingAcrossThreads) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, small_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.expert = diff_expert_config();
  sc.policy = DispatchPolicy::kExpertAffinity;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, PrefixRoutingAcrossThreads) {
  Scenario sc;
  sc.trace = poisson_trace(32, 300.0, prefix_shape(), 21);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.cfg.cache.enabled = true;
  sc.cfg.cache.capacity_tokens = 4096;
  sc.policy = DispatchPolicy::kPrefixAffinity;
  expect_threads_agree(sc);
}

TEST(ParallelDiff, SlowEwmaFilterAcrossThreads) {
  // The per-dispatch slow-EWMA filter reads the EWMAs committed after each
  // event's advancement; with the drain on 2/4/8 threads the picks and the
  // final report must still match the sequential reference.
  Scenario sc;
  sc.trace = poisson_trace(20, 80.0, small_shape(), 33);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[2].fault.slow_from = Duration::zero();
  sc.specs[2].fault.slow_until = Duration::seconds(1);
  sc.specs[2].fault.slow_factor = 8.0;
  sc.cfg.health.slow_ewma_factor = 2.0;
  expect_threads_agree(sc);
}

// --- The loop's components (serve/calendar.hpp) ------------------------------

Request request_at(std::uint64_t id, double ms) {
  Request rq;
  rq.id = id;
  rq.arrival = Duration::millis(ms);
  rq.prompt_len = 8;
  rq.max_new_tokens = 2;
  return rq;
}

TEST(ArrivalMerger, MergesStreamAndRedispatchesInTimeIdOrder) {
  TraceArrivalStream stream{{request_at(1, 1), request_at(3, 1), request_at(5, 2)}};
  ArrivalMerger merger{stream};
  EXPECT_EQ(merger.next_time(), Duration::millis(1));
  merger.push(DispatchItem{Duration::millis(1), request_at(4, 0), /*migrated=*/true});
  merger.push(DispatchItem{Duration::millis(2), request_at(0, 0)});
  merger.push(DispatchItem{Duration::millis(1), request_at(2, 0), false, /*handoff=*/true});
  std::vector<std::pair<double, std::uint64_t>> order;
  std::vector<bool> migrated, handoff;
  while (!merger.empty()) {
    const DispatchItem it = merger.pop();
    order.emplace_back(it.time.ms(), it.rq.id);
    migrated.push_back(it.migrated);
    handoff.push_back(it.handoff);
  }
  // Equal times pop by id, whichever side (stream or re-dispatch) holds it.
  EXPECT_EQ(order, (std::vector<std::pair<double, std::uint64_t>>{
                       {1, 1}, {1, 2}, {1, 3}, {1, 4}, {2, 0}, {2, 5}}));
  EXPECT_EQ(migrated, (std::vector<bool>{false, false, false, true, false, false}));
  EXPECT_EQ(handoff, (std::vector<bool>{false, true, false, false, false, false}));
  EXPECT_EQ(merger.next_time(), Duration::infinite());
  // Only stream requests count as originals, keyed to their first arrival.
  EXPECT_EQ(merger.original_arrivals().size(), 3u);
  EXPECT_EQ(merger.original_arrivals().at(5), Duration::millis(2));
}

/// A stream that yields a fixed sequence without TraceArrivalStream's own
/// order check, so the merger's policing is what fires.
class ListStream final : public ArrivalStream {
 public:
  explicit ListStream(std::vector<Request> rqs) : rqs_{std::move(rqs)} {}
  std::optional<Request> next() override {
    if (pos_ == rqs_.size()) return std::nullopt;
    return rqs_[pos_++];
  }
  std::size_t size_hint() const override { return rqs_.size(); }

 private:
  std::vector<Request> rqs_;
  std::size_t pos_ = 0;
};

TEST(ArrivalMerger, RejectsEmptyDuplicateAndOutOfOrderStreams) {
  ListStream empty{{}};
  EXPECT_THROW(ArrivalMerger{empty}, Error);
  ListStream dup{{request_at(1, 1), request_at(1, 2)}};
  ArrivalMerger dup_merger{dup};
  EXPECT_THROW((void)dup_merger.pop(), Error);
  ListStream back{{request_at(2, 1), request_at(1, 1)}};
  ArrivalMerger back_merger{back};
  EXPECT_THROW((void)back_merger.pop(), Error);
}

TEST(EventCalendar, HeapMatchesReferenceScanOverRandomMutations) {
  constexpr std::size_t kReplicas = 6;
  const std::vector<FailStop> fail_stops{{Duration::millis(3), Duration::millis(7), 4},
                                         {Duration::millis(3), Duration::millis(7), 1},
                                         {Duration::millis(5), Duration::millis(6), 2}};
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto heap = std::make_unique<HeapCalendar>(fail_stops);
    const auto scan = std::make_unique<ScanCalendar>(fail_stops);
    // The model: each replica's latest push; an entry is live iff finite.
    std::vector<Duration> next(kReplicas, Duration::infinite());
    std::vector<std::uint64_t> version(kReplicas, 0);
    std::vector<bool> dead(kReplicas, false);  // fail-stop already collected
    Rng rng{seed};
    // Times on a coarse grid, so equal-time entries and t == entry time
    // (the strict-before bound) come up constantly.
    const auto grid_time = [&](Duration from) {
      return rng.next_below(5) == 0 ? Duration::infinite()
                                    : from + Duration::millis(static_cast<double>(rng.next_below(4)));
    };
    // A newer version makes every older entry stale; a same-version re-push
    // (a mutation site whose server did not change) duplicates the entry and
    // carries the same time, as ServerSim::version() guarantees.
    const auto push = [&](std::size_t i, Duration t, bool mutated) {
      if (mutated) {
        ++version[i];
        next[i] = t;
      }
      heap->push(next[i], version[i], i);
      scan->push(next[i], version[i], i);
    };
    for (std::size_t i = 0; i < kReplicas; ++i) push(i, grid_time(Duration::zero()), true);
    Duration now = Duration::zero();
    std::vector<std::size_t> heap_batch, scan_batch;
    for (int step = 0; step < 200; ++step) {
      switch (rng.next_below(4)) {
        case 0:  // a mutation outside any advance (enqueue, preload, ...)
        case 1: {
          const std::size_t i = rng.next_below(kReplicas);
          push(i, grid_time(now), rng.next_below(4) != 0);
          break;
        }
        case 2: {  // collect, then re-push every collected replica
          const Duration t = now + Duration::millis(static_cast<double>(rng.next_below(3)));
          heap->collect_before(t, heap_batch);
          scan->collect_before(t, scan_batch);
          std::vector<std::size_t> expect;
          for (std::size_t i = 0; i < kReplicas; ++i) {
            bool dies = false;
            for (const FailStop& f : fail_stops) dies = dies || (f.replica == i && f.fail_at <= t);
            if (next[i] < t || (dies && !dead[i])) expect.push_back(i);
            if (dies) dead[i] = true;
          }
          EXPECT_EQ(heap_batch, expect) << "t=" << t.ms();
          EXPECT_EQ(scan_batch.size(), kReplicas);  // the reference advances everyone
          now = t;
          // An advanced replica's next event lies at or after t.
          for (const std::size_t i : expect) push(i, grid_time(now), true);
          break;
        }
        default: {
          const bool live = std::any_of(next.begin(), next.end(),
                                        [](Duration d) { return d < Duration::infinite(); });
          EXPECT_EQ(heap->has_live_work(), live);
          EXPECT_EQ(scan->has_live_work(), live);
          EXPECT_EQ(heap->next_detection(), scan->next_detection());
          if (heap->next_detection().first <= now) {
            heap->pop_detection();
            scan->pop_detection();
          }
        }
      }
    }
  }
  // Detections come out in (time, replica) order on both variants.
  HeapCalendar heap{fail_stops};
  ScanCalendar scan{fail_stops};
  for (EventCalendar* cal : std::vector<EventCalendar*>{&heap, &scan}) {
    std::vector<std::size_t> order;
    for (; cal->next_detection().first < Duration::infinite(); cal->pop_detection()) {
      order.push_back(cal->next_detection().second);
    }
    EXPECT_EQ(order, (std::vector<std::size_t>{2, 1, 4}));
  }
}

TEST(AcceptingIndex, MaintainedMatchesFullRebuildOverRandomMutations) {
  HealthConfig health;
  for (const std::uint64_t seed : {7u, 8u, 9u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    // The model fleet: full snapshots plus each replica's plan.
    std::vector<ReplicaSnapshot> fleet;
    std::vector<Duration> start_at, fail_at;
    const auto snapshot_at = [&](std::size_t i, Duration now) {
      ReplicaSnapshot s = fleet[i];
      s.warming = start_at[i] > now;
      s.heartbeat_age_ms = (now - last_ok_heartbeat(now, fail_at[i], health)).ms();
      return s;
    };
    const auto index = std::make_unique<MaintainedIndex>(health);
    const auto rebuild = std::make_unique<RebuildIndex>(health, [&](Duration now) {
      std::vector<ReplicaSnapshot> all;
      for (std::size_t i = 0; i < fleet.size(); ++i) all.push_back(snapshot_at(i, now));
      return all;
    });
    Rng rng{seed};
    Duration now = Duration::zero();
    const auto spawn = [&] {
      const std::size_t i = fleet.size();
      ReplicaSnapshot s;
      s.replica = i;
      s.prefill_pool = rng.next_below(3) == 0;
      fleet.push_back(s);
      start_at.push_back(now + Duration::millis(static_cast<double>(rng.next_below(3))));
      fail_at.push_back(rng.next_below(3) == 0
                            ? now + Duration::millis(1.0 + static_cast<double>(rng.next_below(20)))
                            : Duration::infinite());
      index->add(snapshot_at(i, now), start_at[i], fail_at[i]);
      rebuild->add(snapshot_at(i, now), start_at[i], fail_at[i]);
    };
    const auto remove = [&](std::size_t i) {
      fleet[i].accepting = false;
      index->remove(i);
      rebuild->remove(i);
    };
    for (int i = 0; i < 4; ++i) spawn();
    for (int step = 0; step < 300; ++step) {
      const std::size_t i = rng.next_below(fleet.size());
      switch (rng.next_below(6)) {
        case 0:
          if (fleet.size() < 12) spawn();
          break;
        case 1:
          if (fleet[i].accepting) remove(i);  // a retirement
          break;
        case 2:
        case 3: {  // the server mutated: new load fields
          ReplicaSnapshot& s = fleet[i];
          s.in_flight = rng.next_below(9);
          s.outstanding_tokens = static_cast<std::int64_t>(rng.next_below(500));
          s.step_ewma_ms = static_cast<double>(rng.next_below(40)) / 4.0;
          s.expert_sig = rng.next_u64();
          s.prefix_sig = rng.next_u64();
          ReplicaSnapshot load;  // only the load fields travel
          load.replica = i;
          load.in_flight = s.in_flight;
          load.outstanding_tokens = s.outstanding_tokens;
          load.step_ewma_ms = s.step_ewma_ms;
          load.expert_sig = s.expert_sig;
          load.prefix_sig = s.prefix_sig;
          index->write_through(load);
          rebuild->write_through(load);
          break;
        }
        default: {  // a dispatch: detections at or before `now` come first
          now += Duration::micros(static_cast<double>(rng.next_below(1500)));
          bool any = false;
          for (std::size_t r = 0; r < fleet.size(); ++r) {
            if (fleet[r].accepting && fail_at[r] < Duration::infinite() &&
                failure_detection_time(fail_at[r], health) <= now) {
              remove(r);
            }
            any = any || fleet[r].accepting;
          }
          if (!any) {
            EXPECT_THROW((void)index->view(now), Error);
            EXPECT_THROW((void)rebuild->view(now), Error);
            spawn();
          }
          const std::vector<ReplicaSnapshot> got = index->view(now);
          const std::vector<ReplicaSnapshot>& want = rebuild->view(now);
          ASSERT_EQ(got.size(), want.size()) << "now=" << now.ms();
          for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].replica, want[k].replica);
            EXPECT_EQ(got[k].in_flight, want[k].in_flight);
            EXPECT_EQ(got[k].outstanding_tokens, want[k].outstanding_tokens);
            EXPECT_EQ(got[k].accepting, want[k].accepting);
            EXPECT_EQ(got[k].warming, want[k].warming);
            // Heartbeat ages are exact where they can move eligibility (an
            // undetected fail-stop); a healthy replica's age stays below one
            // interval either way (the documented time-varying caveat).
            if (fail_at[got[k].replica] < Duration::infinite()) {
              EXPECT_EQ(got[k].heartbeat_age_ms, want[k].heartbeat_age_ms);
            } else {
              EXPECT_LT(got[k].heartbeat_age_ms, health.heartbeat_interval.ms());
            }
            EXPECT_EQ(got[k].step_ewma_ms, want[k].step_ewma_ms);
            EXPECT_EQ(got[k].expert_sig, want[k].expert_sig);
            EXPECT_EQ(got[k].prefix_sig, want[k].prefix_sig);
            EXPECT_EQ(got[k].prefill_pool, want[k].prefill_pool);
          }
        }
      }
    }
  }
}

// --- Event-log gating (the perf-bugfix satellite) ---------------------------

TEST(CalendarDiff, EventLogOffLeavesMetricsIdentical) {
  Scenario sc;
  sc.trace = bursty_trace(24, 6, Duration::millis(25), small_shape(), 13);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(30);
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.warmup = Duration::millis(2);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 1;
  sc.autoscale.max_replicas = 4;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;

  const ClusterReport logged = run_scenario(sc, /*reference_loop=*/false);
  Scenario muted = sc;
  muted.cfg.event_log_enabled = false;
  const ClusterReport quiet = run_scenario(muted, /*reference_loop=*/false);

  EXPECT_GT(logged.events.size(), 0u);  // the scenario actually logs things
  EXPECT_TRUE(quiet.events.empty());
  EXPECT_EQ(logged.retries, quiet.retries);        // counters survive the gate
  EXPECT_EQ(logged.migrations, quiet.migrations);
  EXPECT_EQ(logged.peak_replicas, quiet.peak_replicas);
  // Everything except the log itself is identical.
  ClusterReport a = logged;
  ClusterReport b = quiet;
  a.events.clear();
  b.events.clear();
  expect_reports_identical(a, b);
}

// --- Phase timers (ClusterConfig::measure_phases) ---------------------------

TEST(CalendarDiff, PhaseTimersLeaveMetricsIdentical) {
  // The phase timers only read the host clock: a disaggregated run with a
  // fail-stop and autoscaling must serve identically with them on or off, at
  // 1 and 2 threads, and the timers must fill in only when asked to.
  Scenario sc;
  sc.trace = bursty_trace(28, 7, Duration::millis(25), small_shape(), 19);
  sc.specs = uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, SchedulerConfig{});
  sc.specs[1].fault.fail_at = Duration::millis(35);  // a decode replica dies
  sc.cfg.disagg.enabled = true;
  sc.cfg.disagg.prefill_replicas = 1;
  sc.cfg.retry_timeout = Duration::millis(2);
  sc.cfg.warmup = Duration::millis(2);
  sc.cfg.autoscale_period = Duration::millis(3);
  sc.autoscaled = true;
  sc.autoscale.min_replicas = 2;
  sc.autoscale.max_replicas = 6;
  sc.autoscale.high_tokens_per_replica = 96;
  sc.autoscale.low_tokens_per_replica = 8;

  const ClusterReport baseline = run_scenario(sc, /*reference_loop=*/false);
  EXPECT_GT(baseline.handoffs, 0u);  // the scenario exercises every path it names
  EXPECT_GT(baseline.retries, 0u);
  EXPECT_GT(baseline.replicas.size(), sc.specs.size());
  for (const std::size_t threads : {1u, 2u}) {
    for (const bool measure : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   (measure ? " timers on" : " timers off"));
      sc.threads = threads;
      sc.cfg.measure_phases = measure;
      const ClusterReport rep = run_scenario(sc, /*reference_loop=*/false);
      expect_reports_identical(rep, baseline);
      if (measure) {
        EXPECT_GT(rep.phase_advance_s, 0.0);
      } else {
        EXPECT_EQ(rep.phase_advance_s, 0.0);
        EXPECT_EQ(rep.phase_dispatch_s, 0.0);
        EXPECT_EQ(rep.phase_commit_s, 0.0);
      }
    }
  }
}

// --- ServerSim version counter (what lazy deletion trusts) ------------------

TEST(ServerVersion, BumpsOnMutationOnlyAndGuardsNextEvent) {
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  ServerSim server{engine, SchedulerConfig{}};
  const std::uint64_t v0 = server.version();
  EXPECT_EQ(server.next_event_time(), Duration::infinite());
  EXPECT_EQ(server.version(), v0);  // polling is not a mutation

  Request rq;
  rq.id = 0;
  rq.arrival = Duration::millis(1);
  rq.prompt_len = 16;
  rq.max_new_tokens = 4;
  server.enqueue(rq);
  const std::uint64_t v1 = server.version();
  EXPECT_GT(v1, v0);  // an enqueue is
  EXPECT_EQ(server.next_event_time(), Duration::millis(1));

  server.advance_to(Duration::millis(1));  // strict-before: a no-op
  EXPECT_EQ(server.version(), v1);
  EXPECT_EQ(server.next_event_time(), Duration::millis(1));

  server.advance_to(Duration::millis(2));  // runs at least the first step
  const std::uint64_t v2 = server.version();
  EXPECT_GT(v2, v1);
  // The cached next event matches a fresh computation and survives polling.
  const Duration next = server.next_event_time();
  EXPECT_EQ(server.next_event_time(), next);
  EXPECT_EQ(server.version(), v2);

  server.drain();
  EXPECT_GT(server.version(), v2);
  EXPECT_EQ(server.next_event_time(), Duration::infinite());
}

TEST(ServerVersion, FailStopBumpsAndPinsInfiniteNextEvent) {
  auto engine = core::InferenceEngine{core::SystemConfig::dac24(), tiny_model(),
                                      moe::SkewProfile::switch_like(),
                                      core::StrategyKind::kMondeLoadBalanced, 42};
  FaultSpec fault;
  fault.fail_at = Duration::millis(5);
  ServerSim server{engine, SchedulerConfig{}, Duration::zero(), fault};
  Request rq;
  rq.id = 0;
  rq.arrival = Duration::zero();
  rq.prompt_len = 16;
  rq.max_new_tokens = 64;  // long enough to still be running at the death
  server.enqueue(rq);
  const std::uint64_t armed = server.version();
  server.advance_to(Duration::millis(10));  // crosses fail_at: the server dies
  EXPECT_TRUE(server.failed());
  EXPECT_GT(server.version(), armed);
  EXPECT_EQ(server.next_event_time(), Duration::infinite());
  const std::uint64_t dead = server.version();
  (void)server.harvest_stranded();
  EXPECT_GT(server.version(), dead);  // harvest mutates too
}

}  // namespace
}  // namespace monde::serve
