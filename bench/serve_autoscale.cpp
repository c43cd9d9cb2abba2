// Autoscaling policy comparison: static fleets vs queue-pressure elasticity.
//
// Replays one bursty trace through (a) static MD+LB fleets of several sizes
// and (b) an autoscaled fleet (min 1 replica, growing under queue
// pressure), at several modelled cold-start latencies. The interesting
// trade-off is cost vs tail latency: a static fleet sized for the burst
// peak wastes replica-seconds between bursts, while the autoscaler pays a
// warm-up penalty on every burst edge -- the longer the cold start, the
// more tail latency it gives back. A final section shows elasticity as
// failure recovery: a replica fail-stops mid-trace and the autoscaler
// replaces the lost capacity.
//
//   ./bench/serve_autoscale                    full sweep
//   ./bench/serve_autoscale --smoke            tiny CI configuration
//   ./bench/serve_autoscale --smoke --json f   + deterministic metrics JSON
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
  bench::BenchMetrics metrics{"serve_autoscale"};

  bench::banner("elastic cluster serving",
                smoke ? "autoscaling vs static fleets, smoke configuration"
                      : "autoscaling vs static fleets under bursty traffic");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  const moe::MoeModelConfig model = bench::serving_model(/*small=*/smoke);
  const moe::SkewProfile prof = bench::profile_for(model);

  const serve::RequestShape shape = bench::request_shape(16, smoke ? 48 : 160, 2, smoke ? 8 : 24);

  const int requests = smoke ? 16 : 72;
  const auto trace = serve::bursty_trace(requests, /*burst_size=*/8,
                                         Duration::millis(smoke ? 25.0 : 40.0), shape,
                                         /*seed=*/13);

  serve::SchedulerConfig sched;
  sched.token_budget = smoke ? 96 : 192;

  serve::ClusterConfig ccfg = bench::cluster_config(args);
  ccfg.autoscale_period = Duration::millis(smoke ? 4.0 : 5.0);

  serve::AutoscaleConfig as;
  as.min_replicas = 1;
  as.max_replicas = smoke ? 3 : 6;
  as.high_tokens_per_replica = smoke ? 96 : 192;
  as.low_tokens_per_replica = smoke ? 16 : 32;
  as.high_queue_delay_ms = 25.0;

  Table table{{"fleet", "tok/s", "TTFT p50 (ms)", "TTFT p95 (ms)", "E2E p95 (ms)",
               "peak", "replica-s", "fleet util"}};
  const auto add_row = [&](const std::string& name, const serve::ClusterReport& rep,
                           const std::string& metric_key) {
    table.add_row({name, Table::num(rep.tokens_per_s, 1), Table::num(rep.ttft_ms.p50, 2),
                   Table::num(rep.ttft_ms.p95, 2), Table::num(rep.e2e_ms.p95, 2),
                   std::to_string(rep.peak_replicas), Table::num(rep.replica_seconds, 3),
                   Table::num(100.0 * rep.fleet_utilization, 1) + "%"});
    metrics.add(metric_key + ".tokens_per_s", rep.tokens_per_s);
    metrics.add(metric_key + ".e2e_p95_ms", rep.e2e_ms.p95);
    metrics.add(metric_key + ".utilization", rep.fleet_utilization);
    metrics.add(metric_key + ".replica_seconds", rep.replica_seconds);
  };

  const std::vector<std::size_t> static_sizes =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4};
  for (const std::size_t n : static_sizes) {
    serve::ClusterSim cluster{
        sys, model, prof,
        serve::uniform_fleet(n, core::StrategyKind::kMondeLoadBalanced, sched), ccfg};
    const auto dispatcher = serve::make_dispatcher(serve::DispatchPolicy::kJoinShortestQueue);
    add_row("static x" + std::to_string(n), cluster.run(trace, *dispatcher),
            "static_x" + std::to_string(n));
  }

  const std::vector<double> warmups_ms =
      smoke ? std::vector<double>{5.0} : std::vector<double>{2.0, 10.0, 30.0};
  for (const double warmup_ms : warmups_ms) {
    serve::ClusterConfig cfg = ccfg;
    cfg.warmup = Duration::millis(warmup_ms);
    serve::ClusterSim cluster{
        sys, model, prof,
        serve::uniform_fleet(1, core::StrategyKind::kMondeLoadBalanced, sched), cfg};
    const auto dispatcher = serve::make_dispatcher(serve::DispatchPolicy::kJoinShortestQueue);
    const auto autoscaler = serve::make_queue_pressure_autoscaler(as);
    std::string label = "autoscaled (warmup ";
    label += Table::num(warmup_ms, 0);
    label += " ms)";
    add_row(label, cluster.run(trace, *dispatcher, autoscaler.get()),
            "autoscaled_warmup" + Table::num(warmup_ms, 0) + "ms");
  }
  std::printf("%s\n", table.str().c_str());

  // Elasticity as failure recovery: one of two replicas dies mid-trace.
  {
    std::printf("--- fail-stop recovery: replica 1 of 2 dies mid-trace ---\n");
    serve::FaultSpec fault;
    fault.fail_at = Duration::millis(smoke ? 30.0 : 70.0);
    Table ft{{"fleet", "tok/s", "TTFT p95 (ms)", "E2E p95 (ms)", "retries", "peak"}};
    for (const bool elastic : {false, true}) {
      auto specs = serve::uniform_fleet(2, core::StrategyKind::kMondeLoadBalanced, sched);
      specs[1].fault = fault;
      serve::ClusterSim cluster{sys, model, prof, specs, ccfg};
      const auto dispatcher =
          serve::make_dispatcher(serve::DispatchPolicy::kJoinShortestQueue);
      const auto autoscaler = serve::make_queue_pressure_autoscaler(as);
      const serve::ClusterReport rep =
          cluster.run(trace, *dispatcher, elastic ? autoscaler.get() : nullptr);
      ft.add_row({elastic ? "faulty + autoscaler" : "faulty, static",
                  Table::num(rep.tokens_per_s, 1), Table::num(rep.ttft_ms.p95, 2),
                  Table::num(rep.e2e_ms.p95, 2), std::to_string(rep.retries),
                  std::to_string(rep.peak_replicas)});
      const std::string key = elastic ? "failstop_elastic" : "failstop_static";
      metrics.add(key + ".tokens_per_s", rep.tokens_per_s);
      metrics.add(key + ".e2e_p95_ms", rep.e2e_ms.p95);
      metrics.add(key + ".retries", static_cast<double>(rep.retries));
    }
    std::printf("%s\n", ft.str().c_str());
  }

  std::printf("Static fleets trade replica-seconds for tail latency; the autoscaler\n"
              "buys back most of the idle cost and pays for it at burst edges, with\n"
              "the give-back growing in the modelled cold-start latency. Under a\n"
              "fail-stop every request still completes via heartbeat detection and\n"
              "retry, and the autoscaler refills the lost capacity.\n");
  metrics.write(args.json_path);
  return 0;
}
