// Dispatch-policy comparison for multi-replica cluster serving.
//
// Replays the same Poisson and bursty request traces through fleets of
// MoNDE (MD+LB) replica servers at several replica counts, once per
// dispatch policy, and reports fleet tokens/s, TTFT/E2E tail percentiles,
// and the busy-time imbalance factor. The load-aware policies (JSQ, least
// -outstanding-tokens, power-of-two) should separate from round-robin most
// under bursty traffic, where replicas hold uneven backlogs.
//
//   ./bench/serve_cluster_policies                    full sweep
//   ./bench/serve_cluster_policies --smoke            tiny CI configuration
//   ./bench/serve_cluster_policies --smoke --json f   + deterministic metrics
#include <algorithm>
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
  bench::BenchMetrics metrics{"serve_cluster_policies"};

  bench::banner("cluster serving",
                smoke ? "dispatch policies, smoke configuration"
                      : "dispatch policies under Poisson and bursty traffic");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  const moe::MoeModelConfig model = bench::serving_model(/*small=*/smoke);
  const moe::SkewProfile prof = bench::profile_for(model);

  const serve::RequestShape shape = bench::request_shape(16, smoke ? 48 : 192, 2, smoke ? 8 : 24);

  const int requests = smoke ? 12 : 64;
  const std::vector<std::size_t> replica_counts = smoke ? std::vector<std::size_t>{2}
                                                        : std::vector<std::size_t>{2, 4, 8};

  serve::SchedulerConfig cfg;
  cfg.token_budget = smoke ? 128 : 256;

  const serve::ClusterConfig ccfg = bench::cluster_config(args);

  struct TraceCase {
    std::string name;
    std::vector<serve::Request> trace;
  };
  const std::vector<TraceCase> cases{
      {"poisson", serve::poisson_trace(requests, smoke ? 60.0 : 120.0, shape, /*seed=*/7)},
      {"bursty", serve::bursty_trace(requests, /*burst_size=*/8,
                                     Duration::millis(smoke ? 20.0 : 25.0), shape,
                                     /*seed=*/13)},
  };

  for (const TraceCase& tc : cases) {
    std::printf("--- %s trace, homogeneous MD+LB fleet: %d requests ---\n", tc.name.c_str(),
                requests);
    Table table{{"replicas", "policy", "tok/s", "TTFT p50 (ms)", "TTFT p95 (ms)",
                 "E2E p95 (ms)", "imbalance"}};
    for (const std::size_t n : replica_counts) {
      for (const serve::DispatchPolicy policy : serve::all_dispatch_policies()) {
        serve::ClusterSim cluster{
            sys, model, prof,
            serve::uniform_fleet(n, core::StrategyKind::kMondeLoadBalanced, cfg), ccfg};
        const auto dispatcher = serve::make_dispatcher(policy, /*seed=*/17);
        const serve::ClusterReport rep = cluster.run(tc.trace, *dispatcher);
        table.add_row({std::to_string(n), rep.policy, Table::num(rep.tokens_per_s, 1),
                       Table::num(rep.ttft_ms.p50, 2), Table::num(rep.ttft_ms.p95, 2),
                       Table::num(rep.e2e_ms.p95, 2), Table::num(rep.imbalance, 2)});
        const std::string key = tc.name + ".r" + std::to_string(n) + "." + rep.policy;
        metrics.add(key + ".tokens_per_s", rep.tokens_per_s);
        metrics.add(key + ".e2e_p95_ms", rep.e2e_ms.p95);
      }
    }
    std::printf("%s\n", table.str().c_str());
  }

  // Where dispatch policy really matters: an asymmetric fleet. Three full
  // -budget MD+LB replicas plus one capacity-limited GPU+PM replica; round
  // -robin keeps feeding the weak replica its full share.
  {
    serve::SchedulerConfig weak = cfg;
    weak.token_budget = smoke ? 24 : 48;
    weak.fixed_batch = std::min<std::int64_t>(cfg.fixed_batch, weak.token_budget);
    std::vector<serve::ReplicaSpec> specs;
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 1, {}});
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 2, {}});
    specs.push_back({core::StrategyKind::kMondeLoadBalanced, cfg, 3, {}});
    specs.push_back({core::StrategyKind::kGpuPmove, weak, 4, {}});
    std::printf("--- bursty trace, heterogeneous fleet (3x MD+LB + 1 weak GPU+PM) ---\n");
    // Moderate load: the strong replicas drain between bursts, so the weak
    // replica's persistent backlog is what the queue snapshots expose.
    const auto hetero_trace = serve::bursty_trace(
        requests, /*burst_size=*/8, Duration::millis(smoke ? 20.0 : 60.0), shape,
        /*seed=*/13);
    Table table{{"policy", "tok/s", "TTFT p50 (ms)", "TTFT p95 (ms)", "E2E p95 (ms)",
                 "weak-replica share", "imbalance"}};
    for (const serve::DispatchPolicy policy : serve::all_dispatch_policies()) {
      serve::ClusterSim cluster{sys, model, prof, specs, ccfg};
      const auto dispatcher = serve::make_dispatcher(policy, /*seed=*/17);
      const serve::ClusterReport rep = cluster.run(hetero_trace, *dispatcher);
      const double share = static_cast<double>(rep.replicas.back().dispatched) /
                           static_cast<double>(rep.requests.size());
      table.add_row({rep.policy, Table::num(rep.tokens_per_s, 1),
                     Table::num(rep.ttft_ms.p50, 2), Table::num(rep.ttft_ms.p95, 2),
                     Table::num(rep.e2e_ms.p95, 2), Table::num(100.0 * share, 1) + "%",
                     Table::num(rep.imbalance, 2)});
      const std::string key = "hetero." + rep.policy;
      metrics.add(key + ".tokens_per_s", rep.tokens_per_s);
      metrics.add(key + ".ttft_p95_ms", rep.ttft_ms.p95);
      metrics.add(key + ".e2e_p95_ms", rep.e2e_ms.p95);
    }
    std::printf("%s\n", table.str().c_str());
  }

  std::printf("On a homogeneous fleet with evenly split bursts the four policies make\n"
              "near-identical choices. The asymmetric fleet is where load-awareness\n"
              "pays: round-robin keeps handing the weak replica its full share and its\n"
              "queue dominates the TTFT tail, while join-shortest-queue and least-\n"
              "outstanding-tokens route around the backlog -- power-of-two-choices gets\n"
              "most of that improvement probing only two replicas per request.\n");
  metrics.write(args.json_path);
  return 0;
}
