// Prefix/KV-cache serving scenarios: shared-prefix reuse, partial-progress
// retry after a fail-stop, and scale-down live migration.
//
// Three sections, each comparing the cache-less baseline against the prefix
// cache (serve/kvcache.hpp):
//
//   1. shared prefixes -- a closed-loop trace whose requests share system
//      -prompt-style prefixes, served by one MD+LB fleet with the cache off
//      vs on: the cache skips the re-prefill of resident prefixes, which
//      shows up directly in the makespan-bound throughput.
//   2. fail-stop retry -- a replica dies mid-trace. Lost-cache mode retries
//      from scratch (the classic behavior); surviving-cache mode resumes
//      every stranded request from its last checkpointed step at a modelled
//      KV-transfer cost. The win is the E2E tail: p99 covers exactly the
//      retried requests. The bench FAILS (non-zero exit) if resume does not
//      beat restart -- CI runs the smoke configuration on every PR.
//   3. scale-down migration -- an autoscaler shrinks a fleet mid-drain;
//      with migration the retiree hands its unfinished requests (and their
//      resident state) to the survivor and releases its capacity at the
//      step boundary, instead of draining its own queue to the end.
//
//   ./bench/serve_prefix_cache                     full sweep
//   ./bench/serve_prefix_cache --smoke             tiny CI configuration
//   ./bench/serve_prefix_cache --smoke --json f    + deterministic metrics
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

int main(int argc, char** argv) {
  using namespace monde;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.smoke;
  bench::BenchMetrics metrics{"serve_prefix_cache"};

  bench::banner("prefix-cache serving",
                smoke ? "shared prefixes, resume-on-retry, migration (smoke)"
                      : "shared prefixes, resume-on-retry, scale-down migration");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  const moe::MoeModelConfig model = bench::serving_model(/*small=*/smoke);
  const moe::SkewProfile prof = bench::profile_for(model);

  const serve::RequestShape shape = bench::request_shape(16, smoke ? 48 : 160, 2, smoke ? 8 : 24);

  serve::SchedulerConfig sched;
  sched.token_budget = smoke ? 96 : 192;

  serve::PrefixCacheConfig cache;
  cache.enabled = true;
  cache.kv_bytes_per_token = Bytes::kib(smoke ? 4.0 : 16.0);
  cache.migration_bw = Bandwidth::gbps(32.0);

  // --- 1. Shared-prefix reuse ---------------------------------------------
  {
    std::printf("--- shared prefixes: %d%% of requests carry a group prefix ---\n",
                75);
    serve::RequestShape pshape = shape;
    pshape.prefix_groups = smoke ? 2 : 4;
    pshape.shared_fraction = 0.75;
    pshape.shared_prefix_len = smoke ? 12 : 14;
    const auto trace =
        serve::closed_loop_trace(smoke ? 24 : 96, pshape, /*seed=*/11);
    Table table{{"cache", "tok/s", "E2E p50 (ms)", "E2E p95 (ms)", "cached tokens",
                 "hit rate", "util"}};
    for (const bool enabled : {false, true}) {
      serve::ClusterConfig ccfg = bench::cluster_config(args);
      ccfg.cache = cache;
      ccfg.cache.enabled = enabled;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, sched), ccfg};
      const auto dispatcher = serve::make_dispatcher(serve::DispatchPolicy::kRoundRobin);
      const serve::ClusterReport rep = cluster.run(trace, *dispatcher);
      std::uint64_t hits = 0, lookups = 0;
      for (const serve::ReplicaReport& rr : rep.replicas) {
        hits += rr.serve.cache.hits;
        lookups += rr.serve.cache.lookups;
      }
      const double hit_rate =
          lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
      table.add_row({enabled ? "prefix cache" : "off", Table::num(rep.tokens_per_s, 1),
                     Table::num(rep.e2e_ms.p50, 2), Table::num(rep.e2e_ms.p95, 2),
                     std::to_string(rep.cached_prefill_tokens),
                     Table::num(100.0 * hit_rate, 1) + "%",
                     Table::num(100.0 * rep.fleet_utilization, 1) + "%"});
      const std::string key = enabled ? "prefix.on." : "prefix.off.";
      metrics.add(key + "tokens_per_s", rep.tokens_per_s);
      metrics.add(key + "e2e_p95_ms", rep.e2e_ms.p95);
      metrics.add(key + "utilization", rep.fleet_utilization);
      if (enabled) {
        metrics.add(key + "cached_tokens",
                    static_cast<double>(rep.cached_prefill_tokens));
        metrics.add(key + "hit_rate", hit_rate);
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // --- 2. Fail-stop retry: restart vs resume ------------------------------
  double restart_p99 = 0.0, resume_p99 = 0.0;
  {
    std::printf("--- fail-stop: replica 1 of 3 dies mid-trace; retries restart or resume ---\n");
    const auto trace = serve::bursty_trace(smoke ? 24 : 72, /*burst_size=*/6,
                                           Duration::millis(25.0), shape, /*seed=*/13);
    Table table{{"retry mode", "tok/s", "E2E p95 (ms)", "E2E p99 (ms)", "retries",
                 "resumed tokens"}};
    struct Mode {
      const char* name;
      const char* key;
      bool enabled;
      bool survive;
    };
    for (const Mode mode : {Mode{"restart (no cache)", "failstop.restart.", false, false},
                            Mode{"resume (ckpt cache)", "failstop.resume.", true, true}}) {
      serve::ClusterConfig ccfg = bench::cluster_config(args);
      ccfg.cache = cache;
      ccfg.cache.enabled = mode.enabled;
      ccfg.cache.survive_failstop = mode.survive;
      auto specs = serve::uniform_fleet(3, core::StrategyKind::kMondeLoadBalanced, sched);
      // Mid-trace, while a real backlog is in flight, so the stranded
      // requests are what the p99 tail measures.
      specs[1].fault.fail_at = Duration::millis(smoke ? 30.0 : 120.0);
      serve::ClusterSim cluster{sys, model, prof, specs, ccfg};
      const auto dispatcher =
          serve::make_dispatcher(serve::DispatchPolicy::kJoinShortestQueue);
      const serve::ClusterReport rep = cluster.run(trace, *dispatcher);
      std::int64_t resumed = 0;
      for (const serve::RequestMetrics& m : rep.requests) resumed += m.resumed_tokens;
      table.add_row({mode.name, Table::num(rep.tokens_per_s, 1),
                     Table::num(rep.e2e_ms.p95, 2), Table::num(rep.e2e_ms.p99, 2),
                     std::to_string(rep.retries), std::to_string(resumed)});
      metrics.add(std::string{mode.key} + "tokens_per_s", rep.tokens_per_s);
      metrics.add(std::string{mode.key} + "e2e_p99_ms", rep.e2e_ms.p99);
      metrics.add(std::string{mode.key} + "retries", static_cast<double>(rep.retries));
      if (mode.survive) {
        resume_p99 = rep.e2e_ms.p99;
        metrics.add(std::string{mode.key} + "resumed_tokens",
                    static_cast<double>(resumed));
      } else {
        restart_p99 = rep.e2e_ms.p99;
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // --- 3. Scale-down live migration ---------------------------------------
  {
    std::printf("--- scale-down: a front-loaded burst, then the autoscaler shrinks the fleet ---\n");
    const auto trace = serve::bursty_trace(smoke ? 16 : 48, smoke ? 16 : 24,
                                           Duration::millis(1.0), shape, /*seed=*/3);
    Table table{{"retirement", "tok/s", "E2E p95 (ms)", "replica-s", "migrations",
                 "fleet util"}};
    for (const bool migrate : {false, true}) {
      serve::ClusterConfig ccfg = bench::cluster_config(args);
      ccfg.autoscale_period = Duration::millis(2.0);
      ccfg.cache = cache;
      ccfg.cache.migrate_on_retire = migrate;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, sched), ccfg};
      const auto dispatcher =
          serve::make_dispatcher(serve::DispatchPolicy::kJoinShortestQueue);
      serve::AutoscaleConfig as;
      as.min_replicas = 1;
      as.max_replicas = 2;
      as.high_tokens_per_replica = 1 << 20;
      as.low_tokens_per_replica = 1 << 19;  // always below: shrink when possible
      const auto autoscaler = serve::make_queue_pressure_autoscaler(as);
      const serve::ClusterReport rep = cluster.run(trace, *dispatcher, autoscaler.get());
      table.add_row({migrate ? "live migration" : "self-drain",
                     Table::num(rep.tokens_per_s, 1), Table::num(rep.e2e_ms.p95, 2),
                     Table::num(rep.replica_seconds, 4), std::to_string(rep.migrations),
                     Table::num(100.0 * rep.fleet_utilization, 1) + "%"});
      const std::string key = migrate ? "migrate.on." : "migrate.off.";
      metrics.add(key + "replica_seconds", rep.replica_seconds);
      metrics.add(key + "e2e_p95_ms", rep.e2e_ms.p95);
      metrics.add(key + "utilization", rep.fleet_utilization);
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("Shared prefixes make the prefill bill proportional to the NOVEL tokens a\n"
              "request brings; surviving checkpoints turn a node loss from restart-from\n"
              "-scratch into a bounded transfer + catch-up; and live migration releases\n"
              "retired capacity at the step boundary instead of billing its self-drain.\n");

  metrics.write(args.json_path);

  // The acceptance gate this bench exists for: partial-progress retry must
  // beat restart-from-scratch on the failure tail.
  if (resume_p99 >= restart_p99) {
    std::printf("FAIL: resume p99 (%.2f ms) did not beat restart p99 (%.2f ms)\n",
                resume_p99, restart_p99);
    return 1;
  }
  std::printf("resume p99 %.2f ms < restart p99 %.2f ms (retry tail improved)\n",
              resume_p99, restart_p99);
  return 0;
}
