// Production-scale serving: 10k replicas, 1M streamed requests.
//
// The PR 6 refactor replaced the cluster's scan-every-replica event loop
// with an indexed event calendar and the materialized trace with a pull-
// based ArrivalStream. This bench is the scale proof: a fleet three orders
// of magnitude past the unit tests, driven end to end with O(1) arrival
// memory, plus a small same-seed comparison of the calendar loop against
// the retained reference loop -- the binary FAILS if their reports diverge
// in any compared field, and prints the measured wall-clock speedup.
//
// Wall-clock numbers go to stdout only; the --json metrics are simulated
// quantities and bit-stable run to run, so the budget gate can pin them.
//
//   ./bench/serve_scale --smoke            512 replicas, 50k requests (CI)
//   ./bench/serve_scale                    10k replicas, 1M requests (nightly)
//   ./bench/serve_scale --smoke --json f   + deterministic metrics
//   ./bench/serve_scale --threads 8        parallel final drain (bit-identical
//                                          results; only wall-clock moves)
//   ./bench/serve_scale --perf p.json      wall-clock record for the
//                                          perf-trend gate (check_perf_trend.py)
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "serve/arrivals.hpp"
#include "serve/cluster.hpp"

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Exact equality over everything the loops could plausibly diverge on.
bool reports_identical(const monde::serve::ClusterReport& a,
                       const monde::serve::ClusterReport& b) {
  using monde::serve::RequestMetrics;
  if (a.requests.size() != b.requests.size() || a.replicas.size() != b.replicas.size() ||
      a.makespan != b.makespan || a.generated_tokens != b.generated_tokens ||
      a.tokens_per_s != b.tokens_per_s || a.imbalance != b.imbalance ||
      a.fleet_utilization != b.fleet_utilization || a.retries != b.retries ||
      a.migrations != b.migrations || a.events.size() != b.events.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const RequestMetrics& x = a.requests[i];
    const RequestMetrics& y = b.requests[i];
    if (x.id != y.id || x.arrival != y.arrival || x.first_token != y.first_token ||
        x.completion != y.completion || x.generated != y.generated) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    if (a.replicas[i].dispatched != b.replicas[i].dispatched ||
        a.replicas[i].utilization != b.replicas[i].utilization) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace monde;
  const bench::BenchArgs args = bench::parse_bench_args(argc, argv);
  const bool smoke = args.smoke;
  bench::BenchMetrics metrics{smoke ? "serve_scale" : "serve_scale_full"};

  bench::banner("cluster at scale",
                smoke ? "512 replicas / 50k streamed requests (smoke)"
                      : "10k replicas / 1M streamed requests");

  const std::size_t replicas = smoke ? 512 : 10'000;
  const int requests = smoke ? 50'000 : 1'000'000;

  const core::SystemConfig sys = core::SystemConfig::dac24();
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, 16);
  model.encoder_blocks = 4;
  model.decoder_blocks = 4;
  model.moe_every = 2;
  const moe::SkewProfile prof = bench::profile_for(model);

  serve::RequestShape shape;
  shape.prompt_min = 16;
  shape.prompt_max = 48;
  shape.new_tokens_min = 2;
  shape.new_tokens_max = 8;

  serve::SchedulerConfig sched;
  sched.token_budget = 128;

  // Per-replica offered load is held constant across the two scales, so the
  // smoke run is a faithful miniature: the same queueing regime, 20x fewer
  // replicas. Dispatch is power-of-two-choices -- the O(1)-probes policy a
  // 10k-replica balancer would actually run.
  const double rate_per_s = 250.0 * static_cast<double>(replicas);

  serve::ClusterConfig ccfg;
  ccfg.event_log_enabled = false;  // nobody reads 1M requests' worth of detail strings
  ccfg.threads = args.threads;     // bit-identical results; only wall-clock moves
  // Phase split for the perf-trend dashboard: advancement (its final drain
  // runs on --threads) vs the dispatch and commit phases. Only the
  // --perf record reads it; simulated metrics are identical either way.
  ccfg.measure_phases = !args.perf_path.empty();

  {
    serve::ClusterSim cluster{
        sys, model, prof,
        serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched), ccfg};
    const auto dispatcher =
        serve::make_dispatcher(serve::DispatchPolicy::kPowerOfTwoChoices, /*seed=*/17);
    const auto stream = serve::poisson_stream(requests, rate_per_s, shape, /*seed=*/7);
    const auto t0 = std::chrono::steady_clock::now();
    const serve::ClusterReport rep = cluster.run(*stream, *dispatcher);
    const double wall = wall_seconds(t0);

    std::printf("%zu replicas, %d requests (Poisson %.0f req/s fleet-wide, %zu thread%s):\n",
                replicas, requests, rate_per_s, args.threads, args.threads == 1 ? "" : "s");
    std::printf("  simulated makespan   %.1f ms\n", rep.makespan.ms());
    std::printf("  fleet throughput     %.0f tok/s\n", rep.tokens_per_s);
    std::printf("  TTFT p50 / p95       %.2f / %.2f ms\n", rep.ttft_ms.p50, rep.ttft_ms.p95);
    std::printf("  E2E p95              %.2f ms\n", rep.e2e_ms.p95);
    std::printf("  fleet utilization    %.3f\n", rep.fleet_utilization);
    std::printf("  imbalance            %.3f\n", rep.imbalance);
    std::printf("  wall clock           %.1f s (%.0f requests/s simulated-through)\n", wall,
                static_cast<double>(requests) / wall);
    if (ccfg.measure_phases) {
      std::printf("  phase split          advance %.1f s / dispatch %.1f s / commit %.1f s\n",
                  rep.phase_advance_s, rep.phase_dispatch_s, rep.phase_commit_s);
    }
    std::printf("\n");

    metrics.add("scale.tokens_per_s", rep.tokens_per_s);
    metrics.add("scale.makespan_ms", rep.makespan.ms());
    metrics.add("scale.generated_tokens", static_cast<double>(rep.generated_tokens));
    metrics.add("scale.ttft_p50_ms", rep.ttft_ms.p50);
    metrics.add("scale.ttft_p95_ms", rep.ttft_ms.p95);
    metrics.add("scale.e2e_p95_ms", rep.e2e_ms.p95);
    metrics.add("scale.fleet_utilization", rep.fleet_utilization);
    metrics.add("scale.imbalance", rep.imbalance);
    bench::write_perf_record(args.perf_path, smoke ? "serve_scale" : "serve_scale_full",
                             args.threads, wall, rep.phase_advance_s, rep.phase_dispatch_s,
                             rep.phase_commit_s);
  }

  // Calendar-vs-reference differential at a scale the O(replicas)-per-event
  // reference loop can still stomach. Identity is also pinned by
  // tests/test_calendar_diff.cpp; here it guards the exact configuration the
  // scale run above uses -- including its thread count, so a --threads 4 CI
  // run diffs the calendar loop's PARALLEL drain against the sequential
  // reference --
  // and yields the honest speedup number.
  {
    const std::size_t dr = smoke ? 64 : 128;
    const int dn = smoke ? 2'000 : 5'000;
    const double drate = 250.0 * static_cast<double>(dr);
    serve::ClusterReport reps[2];
    double walls[2] = {};
    for (const bool reference : {false, true}) {
      serve::ClusterConfig dcfg = ccfg;
      dcfg.reference_loop = reference;
      dcfg.threads = reference ? 1 : args.threads;
      serve::ClusterSim cluster{
          sys, model, prof,
          serve::uniform_fleet(dr, core::StrategyKind::kMondeLoadBalanced, sched), dcfg};
      const auto dispatcher =
          serve::make_dispatcher(serve::DispatchPolicy::kPowerOfTwoChoices, /*seed=*/17);
      const auto stream = serve::poisson_stream(dn, drate, shape, /*seed=*/7);
      const auto t0 = std::chrono::steady_clock::now();
      reps[reference ? 1 : 0] = cluster.run(*stream, *dispatcher);
      walls[reference ? 1 : 0] = wall_seconds(t0);
    }
    const bool identical = reports_identical(reps[0], reps[1]);
    std::printf("loop differential (%zu replicas, %d requests):\n", dr, dn);
    std::printf("  calendar loop        %.2f s\n", walls[0]);
    std::printf("  reference loop       %.2f s\n", walls[1]);
    std::printf("  speedup              %.1fx\n", walls[1] / walls[0]);
    std::printf("  reports identical    %s\n\n", identical ? "yes" : "NO -- DIVERGENCE");
    metrics.add("loopdiff.identical", identical ? 1.0 : 0.0);
    if (!identical) {
      std::printf("FAIL: calendar loop diverged from the reference loop\n");
      return 1;
    }
  }

  metrics.write(args.json_path);
  return 0;
}
