// Google-benchmark microbenchmarks of the simulator's hot components:
// DRAM cycle simulation, NDP expert simulation (cold + memoized), routing,
// and instruction encode/decode.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "dram/dram_system.hpp"
#include "interconnect/instruction.hpp"
#include "moe/workload.hpp"
#include "ndp/ndp_core.hpp"

namespace {

using namespace monde;

/// Simulated-cycles-per-second of the DRAM model under a streaming load.
void BM_DramStreamingTick(benchmark::State& state) {
  const dram::Spec spec = dram::Spec::monde_lpddr5x_8533();
  dram::DramSystem sys{spec};
  const auto block = static_cast<std::uint64_t>(spec.org.access_bytes);
  const std::uint64_t capacity = spec.org.total_capacity().count();
  std::uint64_t next = 0;
  for (auto _ : state) {
    for (std::uint64_t addr = (next * block) % capacity; sys.can_accept(addr);
         addr = (next * block) % capacity) {
      sys.enqueue({addr, dram::Request::Type::kRead, next});
      ++next;
    }
    sys.tick();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sys.cycle()));
  state.counters["achieved_GBps"] = sys.achieved_bandwidth().as_gbps();
}
BENCHMARK(BM_DramStreamingTick);

/// Cold (uncached) cycle-level expert simulation.
void BM_NdpExpertSimCold(benchmark::State& state) {
  const auto tokens = state.range(0);
  for (auto _ : state) {
    ndp::NdpCoreSim sim{ndp::NdpSpec::monde_dac24(), dram::Spec::monde_lpddr5x_8533()};
    benchmark::DoNotOptimize(
        sim.simulate_expert({tokens, 1024, 4096}, compute::DataType::kBf16));
  }
}
BENCHMARK(BM_NdpExpertSimCold)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Memoized expert lookup (the steady-state cost inside the engine).
void BM_NdpExpertSimMemoized(benchmark::State& state) {
  ndp::NdpCoreSim sim{ndp::NdpSpec::monde_dac24(), dram::Spec::monde_lpddr5x_8533()};
  (void)sim.simulate_expert({4, 1024, 4096}, compute::DataType::kBf16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.simulate_expert({4, 1024, 4096}, compute::DataType::kBf16));
  }
}
BENCHMARK(BM_NdpExpertSimMemoized);

/// Top-2 routing of a full encoder batch over 128 experts.
void BM_RouterEncoderBatch(benchmark::State& state) {
  const moe::GatingModel gating{128, 2, moe::SkewProfile::nllb_like(), 42};
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gating.route(2048, rng));
  }
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_RouterEncoderBatch);

/// 64-B NDP instruction encode+decode round trip.
void BM_InstructionRoundTrip(benchmark::State& state) {
  interconnect::NdpInstruction inst;
  inst.opcode = interconnect::Opcode::kGemmRelu;
  inst.act_in = {0x1000, 4096};
  inst.weight = {0x2000000, 1 << 25};
  inst.act_out = {0x3000, 4096};
  inst.token_count = 17;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interconnect::decode(interconnect::encode(inst)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstructionRoundTrip);

}  // namespace

BENCHMARK_MAIN();
