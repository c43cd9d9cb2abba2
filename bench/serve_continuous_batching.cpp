// Continuous vs fixed batching under a Poisson arrival trace.
//
// Serving-side counterpart of the paper's single-run evaluation: the same
// request trace is replayed under the classic fixed-batch policy and under
// continuous batching, for each expert-execution strategy. Reports aggregate
// tokens/s plus TTFT / end-to-end latency percentiles per configuration.
//
//   ./bench/serve_continuous_batching
#include <cstdio>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "serve/arrivals.hpp"
#include "serve/server.hpp"

int main() {
  using namespace monde;

  bench::banner("serving", "continuous vs fixed batching, Poisson open-loop trace");

  const core::SystemConfig sys = core::SystemConfig::dac24();
  const moe::MoeModelConfig model = bench::serving_model(/*small=*/false);
  const moe::SkewProfile prof = bench::profile_for(model);

  const serve::RequestShape shape = bench::request_shape(64, 256, 8, 32);
  const auto trace = serve::poisson_trace(32, /*rate_per_s=*/12.0, shape, /*seed=*/7);

  serve::SchedulerConfig cfg;
  cfg.token_budget = 512;
  cfg.fixed_batch = 8;

  std::printf("trace: %zu requests, prompts %lld-%lld tokens, %lld-%lld new tokens\n\n",
              trace.size(), static_cast<long long>(shape.prompt_min),
              static_cast<long long>(shape.prompt_max),
              static_cast<long long>(shape.new_tokens_min),
              static_cast<long long>(shape.new_tokens_max));

  Table table{{"strategy", "batching", "tok/s", "TTFT p50 (ms)", "TTFT p99 (ms)",
               "E2E p50 (ms)", "E2E p99 (ms)"}};
  bench::EngineFactory factory;
  for (const auto kind : {core::StrategyKind::kGpuPmove, core::StrategyKind::kMondeAmove,
                          core::StrategyKind::kMondeLoadBalanced}) {
    for (const auto mode : {serve::BatchingMode::kFixed, serve::BatchingMode::kContinuous}) {
      cfg.mode = mode;
      core::InferenceEngine engine = factory.make(sys, model, prof, kind, /*seed=*/42);
      serve::ServerSim sim{engine, cfg};
      const serve::ServeReport rep = sim.run(trace);
      table.add_row({rep.strategy, rep.mode, Table::num(rep.tokens_per_s, 1),
                     Table::num(rep.ttft_ms.p50, 2), Table::num(rep.ttft_ms.p99, 2),
                     Table::num(rep.e2e_ms.p50, 2), Table::num(rep.e2e_ms.p99, 2)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Continuous batching removes both fixed-batch penalties: the wait for a\n"
              "batch to fill (TTFT) and the padded decode slots after short requests\n"
              "finish (tokens/s). The gap is largest under bursty queueing.\n");
  factory.report_memo_stats();
  return 0;
}
