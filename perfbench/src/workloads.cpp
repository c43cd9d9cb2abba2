#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "common/taskpool.hpp"
#include "compute/gpu.hpp"
#include "core/engine.hpp"
#include "dram/dram_system.hpp"
#include "moe/gating.hpp"
#include "ndp/layout.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace core = monde::core;
namespace moe = monde::moe;
namespace ndp = monde::ndp;
namespace serve = monde::serve;
using monde::Duration;

namespace {

// Set-up probes after every timed iteration: set-up is short, so its median
// needs many samples, spread over the whole run. Taking them after an
// iteration starts each probe from the same warmed heap; the first
// construction in a fresh process runs about twice as long, and probes
// before and after the first iteration differ by 15-20%, which made the
// median of a two-iteration run jump between the two.
constexpr int kSetupProbes = 8;

// Figure 6's configuration (bench/fig6_end_to_end_throughput.cpp).
constexpr std::int64_t kFig6SeqLen = 512;
constexpr std::int64_t kFig6DecoderSteps = 16;
constexpr std::uint64_t kFig6PaperSeed = 42;  // that bench's engine seed
constexpr core::StrategyKind kFig6Kinds[4] = {
    core::StrategyKind::kGpuPmove, core::StrategyKind::kMondeAmove,
    core::StrategyKind::kMondeLoadBalanced, core::StrategyKind::kIdealGpu};

/// splitmix64: decorrelated per-purpose seeds from the one --seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile(v, 500);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

moe::SkewProfile profile_for(const moe::MoeModelConfig& model) {
  return model.top_k >= 2 ? moe::SkewProfile::nllb_like() : moe::SkewProfile::switch_like();
}

/// The small serving model of bench/serve_scale and the serving benches.
moe::MoeModelConfig serving_model() {
  moe::MoeModelConfig model = moe::MoeModelConfig::switch_variant(512, 16);
  model.encoder_blocks = 4;
  model.decoder_blocks = 4;
  model.moe_every = 2;
  return model;
}

std::shared_ptr<ndp::NdpCoreSim> fresh_sim(const core::SystemConfig& sys) {
  return std::make_shared<ndp::NdpCoreSim>(sys.ndp, sys.monde_mem);
}

/// Tokens/s of one Figure 6 engine run: a fresh engine with that bench's
/// routing seed, one encoder pass or kFig6DecoderSteps decoder steps.
double fig6_throughput(const moe::MoeModelConfig& model, bool decoder, std::int64_t batch,
                       core::StrategyKind kind, const std::shared_ptr<ndp::NdpCoreSim>& sim) {
  core::InferenceEngine eng{core::SystemConfig::dac24(), model, profile_for(model), kind,
                            kFig6PaperSeed, sim};
  const core::RunReport report =
      decoder ? eng.run_decoder(batch, kFig6DecoderSteps) : eng.run_encoder(batch, kFig6SeqLen);
  return report.throughput_tokens_per_s();
}

/// The grid's B=1 rows with only the two strategies paper_ratio_err reads
/// (GPU+PM and MD+LB), for workloads that do not run the grid.
std::vector<Fig6Row> fig6_ratio_rows(const std::shared_ptr<ndp::NdpCoreSim>& sim) {
  std::vector<Fig6Row> rows;
  for (const bool decoder : {false, true}) {
    for (const moe::MoeModelConfig& model :
         {moe::MoeModelConfig::switch_large_128(), moe::MoeModelConfig::nllb_moe_128()}) {
      Fig6Row row;
      row.decoder = decoder;
      row.model = model.name;
      row.batch = 1;
      row.tput[0] = fig6_throughput(model, decoder, 1, core::StrategyKind::kGpuPmove, sim);
      row.tput[2] = fig6_throughput(model, decoder, 1, core::StrategyKind::kMondeLoadBalanced, sim);
      rows.push_back(row);
    }
  }
  return rows;
}

// --- Accounting across the iterations of one run ---------------------------

/// Whether a run that started at `t0` and finished `done` iterations goes
/// on. Untraced runs iterate until `seconds` have passed. Traced runs, which
/// replay layers afterwards, stop before one more iteration would overshoot.
/// Either way at least one iteration runs.
bool keep_going(Clock::time_point t0, double seconds, std::size_t done, bool traced) {
  const double elapsed = seconds_since(t0);
  if (!traced) return elapsed < seconds;
  return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

struct Tally {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;

  /// One iteration: `ops` operations, `bad` of them failing the output
  /// check. A failed check fails every operation of the iteration, and a
  /// digest that differs from the first iteration's fails the run.
  void add(std::uint64_t ops, std::uint64_t bad, std::uint64_t d) {
    attempted += ops;
    if (bad > 0) {
      correct = false;
      failed += ops;
    }
    if (!digest) {
      digest = d;
    } else if (*digest != d) {
      correct = false;
    }
  }
};

// --- Per-layer metric assembly ---------------------------------------------

class LayerTable {
 public:
  explicit LayerTable(const Recorder& rec) : rec_{rec} {}

  /// Median (and, with `tail_name`, the rule's tail) of a timing series.
  void timing(const std::string& series, const std::string& p50_name, const std::string& unit,
              const std::string& tail_name = "") {
    const Summary s = summarize(rec_.samples(series));
    rows_.push_back({p50_name, unit, s.p50, s.n, "p50"});
    if (!tail_name.empty()) {
      rows_.push_back({tail_name, unit, s.tail, s.n, permille_label(s.tail_permille)});
    }
  }

  /// A count, ratio or per-iteration total.
  void value(const std::string& name, const std::string& unit, double v) {
    rows_.push_back({name, unit, v, 0, "value"});
  }

  [[nodiscard]] const std::vector<LayerRow>& rows() const { return rows_; }

 private:
  const Recorder& rec_;
  std::vector<LayerRow> rows_;
};

// --- Replays below the cluster ----------------------------------------------

/// Results of replayed pure functions land here so they are not optimized away.
volatile double g_sink = 0.0;

/// Step shapes a ServerSim replay executed: prompt tokens prefilled and
/// decode slots per step.
struct StepShape {
  std::int64_t prefill = 0;
  std::int64_t decode = 0;
};

/// Drive one ServerSim through `trace`, one step per advance_to() call, the
/// way the cluster drives a replica. Times server.advance_us and
/// server.enqueue_ns; returns the steps it ran.
std::vector<StepShape> replay_server(core::InferenceEngine& eng, const serve::SchedulerConfig& sched,
                                     const serve::PrefixCacheConfig& cache,
                                     const std::vector<serve::Request>& trace, Recorder& rec) {
  serve::ServerSim server{eng, sched, Duration::zero(), {}, cache};
  const auto step_until = [&](Duration limit) {
    while (server.next_event_time() < limit) {
      const std::uint64_t before = server.version();
      {
        const Timed t{&rec, "server.advance_us", 1e-3};
        server.advance_to(server.next_event_time() + Duration::nanos(1.0));
      }
      if (server.version() == before) break;
    }
  };
  for (const serve::Request& rq : trace) {
    step_until(rq.arrival);
    const Timed t{&rec, "server.enqueue_ns"};
    server.enqueue(rq);
  }
  step_until(Duration::infinite());
  server.drain();
  std::vector<StepShape> steps;
  for (const serve::StepRecord& s : server.steps()) {
    steps.push_back({s.prefill_tokens, s.decode_tokens});
  }
  rec.count("server.steps", static_cast<double>(steps.size()));
  return steps;
}

/// The engine's step primitives at the replayed step shapes. Returns the
/// per-step routed works it drew (moe.layer_work_us) for the strategy
/// replay, and counts recorded intervals per step.
std::vector<moe::MoeLayerWork> replay_engine(core::InferenceEngine& eng,
                                             const std::vector<StepShape>& steps,
                                             std::int64_t cross_len, Recorder& rec) {
  core::EngineState st = eng.make_state();
  std::vector<moe::MoeLayerWork> works;
  std::uint64_t next_id = 0;
  for (const StepShape& s : steps) {
    if (s.prefill > 0) {
      const Timed t{&rec, "engine.prefill_us", 1e-3};
      eng.prefill(st, 1, s.prefill);
    }
    if (s.decode <= 0) continue;
    std::vector<core::DecodeSlot> slots(static_cast<std::size_t>(s.decode));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].request_id = next_id++;
      slots[i].step = static_cast<std::int64_t>(i % 8);
      slots[i].cross_len = cross_len;
    }
    std::vector<moe::MoeLayerWork> merged;
    {
      const Timed t{&rec, "moe.layer_work_us", 1e-3};
      std::vector<std::vector<moe::MoeLayerWork>> draws;
      draws.reserve(slots.size());
      for (const core::DecodeSlot& slot : slots) {
        draws.push_back(eng.workload().decoder_step_for(slot.request_id, slot.step));
      }
      merged = moe::WorkloadGenerator::merge_layer_works(draws);
    }
    {
      const Timed t{&rec, "engine.decode_step_us", 1e-3};
      eng.decode_step(st, slots, merged);
    }
    works.insert(works.end(), merged.begin(), merged.end());
  }
  rec.count("engine.steps", static_cast<double>(steps.size()));
  rec.count("engine.intervals", static_cast<double>(st.sched.timeline().intervals().size()));
  return works;
}

const char* strategy_series(core::StrategyKind kind) {
  switch (kind) {
    case core::StrategyKind::kGpuPmove: return "strategy.gpu_pm.run_layer_us";
    case core::StrategyKind::kMondeAmove: return "strategy.md_am.run_layer_us";
    default: return "strategy.md_lb.run_layer_us";
  }
}

/// Strategy::run_layer of GPU+PM, MD+AM and MD+LB over `works`.
void replay_strategies(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
                       const std::vector<moe::MoeLayerWork>& works,
                       const std::shared_ptr<ndp::NdpCoreSim>& sim, Recorder& rec) {
  constexpr std::size_t kMaxLayers = 8'000;
  for (const core::StrategyKind kind :
       {core::StrategyKind::kGpuPmove, core::StrategyKind::kMondeAmove,
        core::StrategyKind::kMondeLoadBalanced}) {
    core::InferenceEngine eng{sys, model, profile_for(model), kind, kFig6PaperSeed, sim};
    core::EngineState st = eng.make_state();
    Duration ready = Duration::zero();
    for (std::size_t i = 0; i < std::min(works.size(), kMaxLayers); ++i) {
      const moe::MoeLayerWork& w = works[i];
      const Timed t{&rec, strategy_series(kind), 1e-3};
      ready = eng.strategy().run_layer(w, st.sched, st.hw, ready).end;
    }
  }
}

/// StreamSchedule::place with engine-style labels, timed in batches of 64.
void replay_timeline(std::size_t places, Recorder& rec) {
  monde::sim::StreamSchedule sched;
  std::vector<monde::sim::StreamId> streams;
  for (const char* s : {"GPU", "PCIe-G2M", "PCIe-M2G", "Host", "MoNDE-0", "CPU", "GPU-1"}) {
    streams.push_back(sched.add_stream(s));
  }
  std::vector<std::string> labels;
  for (int e = 0; e < 16; ++e) labels.push_back("PMove expert " + std::to_string(e));
  constexpr std::size_t kBatch = 64;
  Duration t = Duration::zero();
  for (std::size_t done = 0; done < places; done += kBatch) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::size_t k = done + i;
      t = sched.place(streams[k % streams.size()], t, Duration::nanos(100.0),
                      std::string{labels[k % labels.size()]}, std::string{"pmove"})
              .start;
    }
    rec.sample("timeline.place_ns",
               std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kBatch);
  }
}

/// GpuModel::expert_time over the routed token counts, batches of 64.
void replay_gpu(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
                const std::vector<moe::MoeLayerWork>& works, Recorder& rec) {
  const monde::compute::GpuModel gpu{sys.gpu};
  std::vector<std::int64_t> tokens;
  for (const moe::MoeLayerWork& w : works) {
    for (const std::uint64_t n : w.tokens_per_expert) {
      if (n > 0) tokens.push_back(static_cast<std::int64_t>(n));
    }
    if (tokens.size() >= 64 * 2000) break;
  }
  constexpr std::size_t kBatch = 64;
  for (std::size_t done = 0; done + kBatch <= tokens.size(); done += kBatch) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) {
      g_sink = gpu.expert_time({tokens[done + i], model.dmodel, model.dff}, model.dtype).ns();
    }
    rec.sample("gpu.expert_time_ns",
               std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kBatch);
  }
}

/// GatingModel::route at the layer token counts, host ns per routed token.
void replay_route(const moe::MoeModelConfig& model, const std::vector<std::int64_t>& layer_tokens,
                  Recorder& rec) {
  const moe::GatingModel gating{model.num_experts, model.top_k, profile_for(model), 1234};
  monde::Rng rng{99};
  for (const std::int64_t tokens : layer_tokens) {
    const auto t0 = Clock::now();
    g_sink = static_cast<double>(gating.route(tokens, rng).front());
    rec.sample("moe.route_ns_per_token",
               std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                   static_cast<double>(tokens));
  }
}

/// A cold NdpCoreSim at the model's expert shapes (cycle-level up to its
/// token limit), then the same shapes again from its memo.
void replay_ndp(const core::SystemConfig& sys, const moe::MoeModelConfig& model, Recorder& rec) {
  const auto sim = fresh_sim(sys);
  const std::int64_t shapes[] = {1, 2, 3, 4, 6, 8, 12, 16};
  for (const std::int64_t t : shapes) {
    const Timed span{&rec, "ndp.expert_cold_ms", 1e-6};
    (void)sim->simulate_expert({t, model.dmodel, model.dff}, model.dtype);
  }
  constexpr int kBatch = 32;
  for (int round = 0; round < 50; ++round) {
    for (const std::int64_t t : shapes) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) {
        (void)sim->simulate_expert({t, model.dmodel, model.dff}, model.dtype);
      }
      rec.sample("ndp.expert_memo_ns",
                 std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kBatch);
    }
  }
}

/// Stream one expert's weights through a DramSystem of the MoNDE memory.
void replay_dram(const core::SystemConfig& sys, const moe::MoeModelConfig& model, Recorder& rec) {
  for (int rep = 0; rep < 5; ++rep) {
    monde::dram::DramSystem dram{sys.monde_mem};
    const ndp::PartitionLayout weights{sys.monde_mem, dram.mapper(), ndp::Partition::kWeights};
    const std::uint64_t blocks =
        std::min(weights.blocks_for(model.expert_bytes()), weights.block_count());
    const auto t0 = Clock::now();
    std::uint64_t next = 0;
    while (next < blocks) {
      while (next < blocks && dram.can_accept(weights.block_address(next))) {
        monde::dram::Request req;
        req.addr = weights.block_address(next);
        req.id = next++;
        dram.enqueue(std::move(req));
      }
      if (next < blocks) dram.advance();
    }
    dram.run_until_idle();
    const double host_s = seconds_since(t0);
    rec.sample("dram.cycles_per_host_s", static_cast<double>(dram.cycle()) / host_s);
    rec.sample("dram.achieved_gbps", dram.achieved_bandwidth().as_gbps());
  }
}

/// TaskPool::run fan-out cost at batch 1 and batch 4 with empty tasks.
void replay_taskpool(std::size_t threads, Recorder& rec) {
  monde::common::TaskPool pool{threads};
  std::atomic<std::size_t> ran{0};
  const std::function<void(std::size_t)> task = [&](std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  };
  for (int i = 0; i < 2000; ++i) {
    const Timed t{&rec, "taskpool.run1_us", 1e-3};
    pool.run(1, task);
  }
  for (int i = 0; i < 2000; ++i) {
    const Timed t{&rec, "taskpool.run4_us", 1e-3};
    pool.run(4, task);
  }
}

/// The queue-pressure autoscaler on a deterministic swing of signals, for
/// workloads whose fleet runs no autoscaler.
void replay_autoscaler(std::size_t replicas, Recorder& rec) {
  serve::AutoscaleConfig cfg;
  cfg.min_replicas = 1;
  cfg.max_replicas = replicas * 2;
  auto inner = serve::make_queue_pressure_autoscaler(cfg);
  TimedAutoscaler scaler{*inner, &rec};
  std::size_t size = replicas;
  for (int tick = 0; tick < 2000; ++tick) {
    serve::AutoscaleSignals s;
    s.now = Duration::millis(5.0 * tick);
    s.ready_replicas = size;
    s.in_flight = size * static_cast<std::size_t>(1 + tick % 7);
    s.outstanding_tokens = static_cast<std::int64_t>(size) * (16 + 64 * (tick % 9));
    size = std::max<std::size_t>(1, scaler.target_size(s));
  }
}

/// Whole-run engine entry points at a workload's shapes, on a warm sim.
void replay_engine_runs(core::InferenceEngine& eng, std::int64_t prompt, std::int64_t batch,
                        std::int64_t steps, Recorder& rec) {
  for (int i = 0; i < 20; ++i) {
    {
      const Timed t{&rec, "engine.run_encoder_ms", 1e-6};
      (void)eng.run_encoder(batch, prompt);
    }
    const Timed t{&rec, "engine.run_decoder_ms", 1e-6};
    (void)eng.run_decoder(batch, steps, prompt);
  }
}

/// The layers below the cluster, replayed at one engine shape: a ServerSim
/// over `trace`, then the engine, strategies, timeline, GPU, gating, NDP,
/// DRAM and TaskPool layers at the step shapes it produced.
void replay_below_cluster(const core::SystemConfig& sys, const moe::MoeModelConfig& model,
                          const serve::SchedulerConfig& sched,
                          const serve::PrefixCacheConfig& cache,
                          const std::vector<serve::Request>& trace,
                          const std::shared_ptr<ndp::NdpCoreSim>& sim, std::size_t threads,
                          Recorder& rec) {
  const std::uint64_t hits0 = sim->memo_hits();
  const std::uint64_t misses0 = sim->memo_misses();
  std::vector<StepShape> steps;
  {
    core::InferenceEngine eng{sys, model, profile_for(model),
                              core::StrategyKind::kMondeLoadBalanced, kFig6PaperSeed, sim};
    steps = replay_server(eng, sched, cache, trace, rec);
  }
  rec.count("replay.ndp.hits", static_cast<double>(sim->memo_hits() - hits0));
  rec.count("replay.ndp.misses", static_cast<double>(sim->memo_misses() - misses0));

  std::int64_t prompt_sum = 0;
  for (const serve::Request& rq : trace) prompt_sum += rq.prompt_len;
  const std::int64_t mean_prompt =
      std::max<std::int64_t>(1, prompt_sum / static_cast<std::int64_t>(trace.size()));
  core::InferenceEngine eng{sys, model, profile_for(model),
                            core::StrategyKind::kMondeLoadBalanced, kFig6PaperSeed, sim};
  const std::vector<moe::MoeLayerWork> works = replay_engine(eng, steps, mean_prompt, rec);
  replay_strategies(sys, model, works, sim, rec);

  // As many places as the engine records in 1,000 steps.
  const double per_step =
      rec.counter("engine.intervals") / std::max(1.0, rec.counter("engine.steps"));
  replay_timeline(static_cast<std::size_t>(std::min(200'000.0, per_step * 1000.0)) + 64, rec);
  replay_gpu(sys, model, works, rec);
  std::vector<std::int64_t> layer_tokens;
  for (const StepShape& s : steps) {
    if (s.prefill > 0) layer_tokens.push_back(s.prefill);
    if (s.decode > 0) layer_tokens.push_back(s.decode);
  }
  replay_route(model, layer_tokens, rec);
  replay_ndp(sys, model, rec);
  replay_dram(sys, model, rec);
  replay_taskpool(threads, rec);
}

// --- Fleet workloads ---------------------------------------------------------

/// One fail-stop (the last replica, a decode replica under disaggregation)
/// 30% into the arrival window, and a 2x slow-down of the middle replica
/// over 20-50% of it; every other replica is healthy.
void place_faults(FleetSpec& s) {
  const Duration window = Duration::seconds(s.requests / s.rate_per_s);
  for (serve::ReplicaSpec& r : s.specs) r.fault = {};
  serve::FaultSpec& dies = s.specs.back().fault;
  dies.fail_at = window * 0.3;
  serve::FaultSpec& slow = s.specs[s.specs.size() / 2].fault;
  slow.slow_from = window * 0.2;
  slow.slow_until = window * 0.5;
  slow.slow_factor = 2.0;
}

std::vector<serve::Request> replica_trace(const FleetSpec& spec, int requests) {
  const double per_replica = spec.rate_per_s / static_cast<double>(spec.specs.size());
  const auto stream =
      serve::poisson_stream(requests, per_replica, spec.shape, mix_seed(spec.stream_seed, 3));
  return serve::materialize(*stream);
}

void fleet_layers(const FleetRun& traced, std::size_t traced_iters, Recorder& rec,
                  LayerTable& table) {
  const double iters = static_cast<double>(std::max<std::size_t>(1, traced_iters));
  const serve::ClusterReport& rep = traced.report;
  table.value("cluster.advance_s", "s", rep.phase_advance_s);
  table.value("cluster.dispatch_s", "s", rep.phase_dispatch_s);
  table.value("cluster.commit_s", "s", rep.phase_commit_s);
  table.value("cluster.events", "count", static_cast<double>(rep.events.size()));
  table.value("dispatch.picks", "count",
              static_cast<double>(rec.samples("dispatch.pick_ns").size()) / iters);
  table.timing("dispatch.pick_ns", "dispatch.pick_ns_p50", "ns", "dispatch.pick_ns_p99");
  table.value("dispatch.view_mean", "count", summarize(rec.samples("dispatch.view")).mean);
  table.value("arrivals.pulls", "count",
              static_cast<double>(rec.samples("arrivals.next_ns").size()) / iters);
  table.timing("arrivals.next_ns", "arrivals.next_ns_p50", "ns");
  // Prompt tokens the prefix cache served, over all prompt tokens. Under
  // disaggregation only the prefill pool (the replicas that handed off)
  // counts: a decode replica "serves" every handed-off prompt from the
  // shipped KV, which is the handoff, not a cache hit.
  const bool disagg = rep.handoffs > 0;
  std::int64_t prompt_tokens = 0;
  std::int64_t cached_tokens = 0;
  for (const serve::RequestMetrics& m : rep.requests) prompt_tokens += m.prompt_len;
  for (const serve::ReplicaReport& r : rep.replicas) {
    if (!disagg || r.serve.handoffs > 0) cached_tokens += r.serve.cache.saved_tokens;
  }
  table.value("kvcache.cached_token_share", "ratio",
              prompt_tokens > 0
                  ? static_cast<double>(cached_tokens) / static_cast<double>(prompt_tokens)
                  : 0.0);
  table.value("expert.hit_rate", "ratio", rep.expert_hit_rate);
  table.value("cluster.handoffs", "count", static_cast<double>(rep.handoffs));
  table.value("cluster.retries", "count", static_cast<double>(rep.retries));
  table.value("cluster.peak_replicas", "count", static_cast<double>(rep.peak_replicas));
}

/// `ndp_hits`/`ndp_misses`: memo lookups of the workload's own simulator.
void below_cluster_layers(Recorder& rec, LayerTable& table, double ndp_hits,
                          double ndp_misses) {
  table.value("server.steps", "count", rec.counter("server.steps"));
  table.timing("server.advance_us", "server.advance_us_p50", "us", "server.advance_us_p99");
  table.timing("server.enqueue_ns", "server.enqueue_ns_p50", "ns");
  table.timing("engine.decode_step_us", "engine.decode_step_us_p50", "us",
               "engine.decode_step_us_p99");
  table.timing("engine.prefill_us", "engine.prefill_us_p50", "us");
  table.value("engine.intervals_per_step", "count",
              rec.counter("engine.intervals") / std::max(1.0, rec.counter("engine.steps")));
  table.timing("strategy.md_lb.run_layer_us", "strategy.md_lb.run_layer_us_p50", "us",
               "strategy.md_lb.run_layer_us_p99");
  table.timing("strategy.md_am.run_layer_us", "strategy.md_am.run_layer_us_p50", "us");
  table.timing("strategy.gpu_pm.run_layer_us", "strategy.gpu_pm.run_layer_us_p50", "us");
  table.timing("timeline.place_ns", "timeline.place_ns_p50", "ns");
  table.timing("gpu.expert_time_ns", "gpu.expert_time_ns_p50", "ns");
  table.timing("moe.route_ns_per_token", "moe.route_ns_per_token", "ns");
  table.timing("moe.layer_work_us", "moe.layer_work_us_p50", "us");
  const double lookups = ndp_hits + ndp_misses;
  table.value("ndp.cold_sims", "count", ndp_misses);
  table.value("ndp.memo_hit_rate", "ratio", lookups > 0 ? ndp_hits / lookups : 0.0);
  table.timing("ndp.expert_cold_ms", "ndp.expert_cold_ms_p50", "ms");
  table.timing("ndp.expert_memo_ns", "ndp.expert_memo_ns_p50", "ns");
  table.timing("dram.cycles_per_host_s", "dram.cycles_per_host_s", "1/s");
  table.timing("dram.achieved_gbps", "dram.achieved_gbps", "GB/s");
  table.timing("engine.run_encoder_ms", "engine.run_encoder_ms_p50", "ms");
  table.timing("engine.run_decoder_ms", "engine.run_decoder_ms_p50", "ms");
  table.timing("taskpool.run1_us", "taskpool.run1_us_p50", "us");
  table.timing("taskpool.run4_us", "taskpool.run4_us_p50", "us");
  table.value("autoscale.ticks", "count", rec.counter("autoscale.ticks"));
  table.timing("autoscale.decide_ns", "autoscale.decide_ns_p50", "ns");
}

Outcome run_fleet_workload(const Options& opts) {
  const FleetSpec spec = fleet_spec(opts.workload, opts.seed);
  const std::size_t threads = spec.cfg.threads;
  Outcome out;
  Tally tally;
  const auto account = [&](const FleetRun& r) {
    tally.add(r.arrived.size(), fleet_failures(r.arrived, r.report), fleet_digest(r.report));
  };

  std::vector<double> setups;
  Recorder rec;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::optional<FleetRun> traced;
  const auto t0 = Clock::now();
  double rss_mb = 0.0;
  do {
    FleetRun r = run_fleet(spec, threads, nullptr);
    plain_walls.push_back(r.wall_s);
    account(r);
    // Peak RSS through the first iteration only, so it does not depend on
    // how many iterations fit in the run.
    if (plain_walls.size() == 1) rss_mb = peak_rss_mb();
    if (opts.trace) {
      FleetRun tr = run_fleet(spec, threads, &rec);
      traced_walls.push_back(tr.wall_s);
      account(tr);
      traced = std::move(tr);
    }
    for (int i = 0; i < kSetupProbes; ++i) setups.push_back(probe_fleet_setup(spec, threads));
  } while (keep_going(t0, opts.seconds, plain_walls.size(), opts.trace));

  // Bit-identity across thread counts, checked from outside: a parallel
  // workload must give the same digest at 1 and at 4 threads.
  if (spec.cfg.threads > 1) {
    for (const std::size_t t : {std::size_t{1}, std::size_t{4}}) {
      if (t != threads) account(run_fleet(spec, t, nullptr));
    }
  }

  out.correct = tally.correct;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.digest = hex64(tally.digest.value_or(0));
  out.walls = plain_walls;
  out.traced_walls = traced_walls;

  if (!opts.trace) {
    out.metrics.push_back({"wall_s", median(plain_walls), "s"});
    out.metrics.push_back({"setup_s", median(setups), "s"});
    out.metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
    out.metrics.push_back(
        {"paper_ratio_err", paper_ratio_err_pct(fig6_ratio_rows(fresh_sim(spec.sys))), "%"});
    return out;
  }

  LayerTable table{rec};
  fleet_layers(*traced, traced_walls.size(), rec, table);
  const auto sim = fresh_sim(spec.sys);
  const std::vector<serve::Request> trace = replica_trace(spec, spec.replay_requests);
  replay_below_cluster(spec.sys, spec.model, spec.specs.front().sched, spec.cfg.cache, trace,
                       sim, threads, rec);
  {
    core::InferenceEngine eng{spec.sys, spec.model, spec.prof,
                              core::StrategyKind::kMondeLoadBalanced, kFig6PaperSeed, sim};
    replay_engine_runs(eng, (spec.shape.prompt_min + spec.shape.prompt_max) / 2, 1,
                       (spec.shape.new_tokens_min + spec.shape.new_tokens_max) / 2, rec);
  }
  if (!spec.autoscale) replay_autoscaler(spec.specs.size(), rec);
  rec.count("autoscale.ticks",
            static_cast<double>(rec.samples("autoscale.decide_ns").size()) /
                (spec.autoscale ? static_cast<double>(traced_walls.size()) : 1.0));
  below_cluster_layers(rec, table, rec.counter("replay.ndp.hits"),
                       rec.counter("replay.ndp.misses"));
  const double plain = median(plain_walls);
  table.value("trace.overhead_pct", "%", (median(traced_walls) - plain) / plain * 100.0);
  out.layers = table.rows();
  out.chrome_trace = rec.chrome_trace(opts.workload);
  return out;
}

// --- Figure 6 ---------------------------------------------------------------

double probe_fig6_setup() {
  const auto t0 = Clock::now();
  const core::SystemConfig sys = core::SystemConfig::dac24();
  const auto sim = fresh_sim(sys);
  const moe::MoeModelConfig model = moe::MoeModelConfig::switch_large_128();
  std::vector<std::unique_ptr<core::InferenceEngine>> engines;
  for (const core::StrategyKind kind : kFig6Kinds) {
    engines.push_back(
        std::make_unique<core::InferenceEngine>(sys, model, profile_for(model), kind,
                                                kFig6PaperSeed, sim));
  }
  return seconds_since(t0);
}

Outcome run_fig6_workload(const Options& opts) {
  const std::uint64_t order_seed = mix_seed(opts.seed, 11);
  const core::SystemConfig sys = core::SystemConfig::dac24();
  Outcome out;
  Tally tally;
  std::vector<double> setups;

  Recorder rec;
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  std::shared_ptr<ndp::NdpCoreSim> warm;
  std::vector<Fig6Row> last;
  double rss_mb = 0.0;
  const auto t0 = Clock::now();
  do {
    for (const bool traced : {false, true}) {
      if (traced && !opts.trace) continue;
      auto sim = fresh_sim(sys);  // every grid starts from a cold simulator
      const auto g0 = Clock::now();
      const std::vector<Fig6Row> grid =
          run_fig6(order_seed, {1, 4}, sim, traced ? &rec : nullptr);
      (traced ? traced_walls : plain_walls).push_back(seconds_since(g0));
      if (!traced && plain_walls.size() == 1) rss_mb = peak_rss_mb();
      tally.add(grid.size() * 4, fig6_failures(grid), fig6_digest(grid));
      if (traced) {
        rec.count("grid.ndp.hits", static_cast<double>(sim->memo_hits()));
        rec.count("grid.ndp.misses", static_cast<double>(sim->memo_misses()));
      }
      warm = std::move(sim);
      last = grid;
    }
    for (int i = 0; i < kSetupProbes; ++i) setups.push_back(probe_fig6_setup());
  } while (keep_going(t0, opts.seconds, plain_walls.size(), opts.trace));

  out.correct = tally.correct;
  out.attempted = tally.attempted;
  out.failed = tally.failed;
  out.digest = hex64(tally.digest.value_or(0));
  out.walls = plain_walls;
  out.traced_walls = traced_walls;

  if (!opts.trace) {
    out.metrics.push_back({"wall_s", median(plain_walls), "s"});
    out.metrics.push_back({"setup_s", median(setups), "s"});
    out.metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
    out.metrics.push_back({"paper_ratio_err", paper_ratio_err_pct(last), "%"});
    return out;
  }

  LayerTable table{rec};
  // The cluster layers have no Figure 6 shape: measure them on a reference
  // fleet (fleet_scale shrunk to 16 replicas) so every layer reports.
  const FleetSpec ref = shrink(fleet_spec("fleet_scale", opts.seed), 16, 1000);
  const FleetRun ref_run = run_fleet(ref, 1, &rec);
  out.attempted += ref_run.arrived.size();
  if (fleet_failures(ref_run.arrived, ref_run.report) > 0) {
    out.correct = false;
    out.failed += ref_run.arrived.size();
  }
  fleet_layers(ref_run, 1, rec, table);

  // Layers below the cluster at the Figure 6 shape: Switch-Large-128 MD+LB
  // serving 512-token prompts with 16-token decodes, four at a time.
  const moe::MoeModelConfig model = moe::MoeModelConfig::switch_large_128();
  serve::SchedulerConfig sched;
  sched.token_budget = 4 * kFig6SeqLen;
  serve::RequestShape shape;
  shape.prompt_min = shape.prompt_max = kFig6SeqLen;
  shape.new_tokens_min = shape.new_tokens_max = kFig6DecoderSteps;
  const auto stream = serve::closed_loop_stream(256, shape, kFig6PaperSeed);
  replay_below_cluster(sys, model, sched, {}, serve::materialize(*stream), warm, 1, rec);
  // The grid's own strategies at its encoder and decoder shapes.
  {
    moe::WorkloadGenerator gen{model, profile_for(model), kFig6PaperSeed};
    std::vector<moe::MoeLayerWork> works;
    for (const std::int64_t b : {std::int64_t{1}, std::int64_t{4}}) {
      const moe::EncoderPass pass = gen.encoder_pass(b, kFig6SeqLen);
      works.insert(works.end(), pass.moe_layers.begin(), pass.moe_layers.end());
      for (const moe::DecoderStep& s : gen.decoder_steps(b, kFig6DecoderSteps)) {
        works.insert(works.end(), s.moe_layers.begin(), s.moe_layers.end());
      }
    }
    replay_strategies(sys, model, works, warm, rec);
  }
  replay_autoscaler(16, rec);
  rec.count("autoscale.ticks", static_cast<double>(rec.samples("autoscale.decide_ns").size()));
  const double grids = static_cast<double>(traced_walls.size());
  below_cluster_layers(rec, table, rec.counter("grid.ndp.hits") / grids,
                       rec.counter("grid.ndp.misses") / grids);
  const double plain = median(plain_walls);
  table.value("trace.overhead_pct", "%", (median(traced_walls) - plain) / plain * 100.0);
  out.layers = table.rows();
  out.chrome_trace = rec.chrome_trace(opts.workload);
  return out;
}

}  // namespace

// --- Public pieces -------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"fleet_scale", "fleet_features",
                                                  "paper_fig6"};
  return kNames;
}

FleetSpec fleet_spec(const std::string& name, std::uint64_t seed) {
  FleetSpec s;
  s.name = name;
  s.sys = core::SystemConfig::dac24();
  s.model = serving_model();
  s.prof = profile_for(s.model);
  s.stream_seed = mix_seed(seed, 1);
  serve::SchedulerConfig sched;
  sched.token_budget = 128;

  if (name == "fleet_scale") {
    // bench/serve_scale --smoke's shape: 512 MD+LB replicas at 250 req/s
    // each behind power-of-two choices, short requests, nothing optional.
    const std::size_t replicas = 512;
    s.specs = serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched);
    s.shape.prompt_min = 16;
    s.shape.prompt_max = 48;
    s.shape.new_tokens_min = 2;
    s.shape.new_tokens_max = 8;
    s.requests = 10'000;
    s.replay_requests = 2'000;
    s.rate_per_s = 250.0 * static_cast<double>(replicas);
    s.policy = serve::DispatchPolicy::kPowerOfTwoChoices;
    s.cfg.event_log_enabled = false;
    s.cfg.threads = 1;
    return s;
  }
  if (name == "fleet_features") {
    // Every serving path at once on a mid-size fleet near its capacity.
    const std::size_t replicas = 32;
    s.specs = serve::uniform_fleet(replicas, core::StrategyKind::kMondeLoadBalanced, sched);
    s.shape.prompt_min = 96;
    s.shape.prompt_max = 160;
    s.shape.new_tokens_min = 16;
    s.shape.new_tokens_max = 48;
    s.shape.prefix_groups = static_cast<int>(replicas) * 3;
    s.shape.shared_fraction = 0.9;
    s.shape.shared_prefix_len = 64;
    s.shape.prefix_zipf_s = 0.8;
    s.requests = 3'000;
    s.replay_requests = 200;
    s.rate_per_s = 32.0 * static_cast<double>(replicas);
    s.policy = serve::DispatchPolicy::kPrefixAffinity;

    s.cfg.disagg.enabled = true;
    s.cfg.disagg.prefill_replicas = replicas / 4;
    s.cfg.cache.enabled = true;
    s.cfg.cache.capacity_tokens = 1024;
    s.cfg.cache.survive_failstop = true;
    s.cfg.cache.migrate_on_retire = true;
    s.cfg.expert.enabled = true;
    s.cfg.expert.rebalance_period = Duration::millis(10);
    s.faults = true;
    place_faults(s);
    serve::AutoscaleConfig as;
    as.min_replicas = replicas;
    as.max_replicas = replicas + replicas / 4;
    as.high_tokens_per_replica = 2048;
    as.low_tokens_per_replica = 64;
    as.cooldown = Duration::millis(20);
    s.autoscale = as;
    s.cfg.event_log_enabled = true;
    // Two workers, not all four cores: on a 4-vCPU VM whose host also runs
    // other guests, 4 threads made one iteration's wall-clock vary twice as
    // much (CV 0.17 vs 0.08 over 14 interleaved pairs) for a 5% gain.
    s.cfg.threads = 2;
    return s;
  }
  throw std::invalid_argument("unknown fleet workload '" + name + "'");
}

FleetSpec shrink(FleetSpec spec, std::size_t replicas, int requests) {
  const double per_replica = spec.rate_per_s / static_cast<double>(spec.specs.size());
  std::vector<serve::ReplicaSpec> specs(spec.specs.begin(),
                                        spec.specs.begin() + static_cast<long>(replicas));
  const double scale = static_cast<double>(replicas) / static_cast<double>(spec.specs.size());
  spec.specs = std::move(specs);
  spec.requests = requests;
  spec.rate_per_s = per_replica * static_cast<double>(replicas);
  if (spec.cfg.disagg.enabled) {
    spec.cfg.disagg.prefill_replicas =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     static_cast<double>(spec.cfg.disagg.prefill_replicas) * scale));
  }
  if (spec.shape.prefix_groups > 0) spec.shape.prefix_groups = static_cast<int>(replicas) * 3;
  if (spec.autoscale) {
    spec.autoscale->min_replicas = replicas;
    spec.autoscale->max_replicas = replicas + std::max<std::size_t>(2, replicas / 4);
  }
  if (spec.faults) place_faults(spec);
  return spec;
}

FleetRun run_fleet(const FleetSpec& spec, std::size_t threads, Recorder* rec, bool wrap) {
  FleetRun out;
  serve::ClusterConfig cfg = spec.cfg;
  cfg.threads = threads;
  cfg.measure_phases = rec != nullptr;
  const auto t0 = Clock::now();
  serve::ClusterSim cluster{spec.sys, spec.model, spec.prof, spec.specs, cfg};
  auto dispatcher = serve::make_dispatcher(spec.policy, spec.dispatch_seed);
  auto stream = serve::poisson_stream(spec.requests, spec.rate_per_s, spec.shape, spec.stream_seed);
  std::unique_ptr<serve::Autoscaler> scaler;
  if (spec.autoscale) scaler = serve::make_queue_pressure_autoscaler(*spec.autoscale);

  TimedDispatcher timed_dispatch{*dispatcher, rec};
  TimedArrivalStream timed_stream{*stream, rec};
  std::optional<TimedAutoscaler> timed_scaler;
  if (scaler) timed_scaler.emplace(*scaler, rec);

  // Unwrapped, the stream is materialized first so the check still knows
  // what arrived; the cluster's vector overload is bit-identical to the
  // streaming one.
  std::vector<serve::Request> trace;
  if (!wrap) {
    trace = serve::materialize(*stream);
    for (const serve::Request& rq : trace) out.arrived.push_back({rq.id, rq.arrival});
  }
  const auto r0 = Clock::now();
  {
    const Timed span{rec, "cluster.run_s", 1e-9};
    if (wrap) {
      out.report = cluster.run(timed_stream, timed_dispatch,
                               timed_scaler ? &*timed_scaler : nullptr);
    } else {
      out.report = cluster.run(std::move(trace), *dispatcher, scaler.get());
    }
  }
  out.wall_s = seconds_since(r0);
  if (wrap) {
    out.arrived = timed_stream.arrived();
    out.setup_s = std::chrono::duration<double>(*timed_stream.first_pull() - t0).count();
  }
  return out;
}

double probe_fleet_setup(const FleetSpec& spec, std::size_t threads) {
  serve::ClusterConfig cfg = spec.cfg;
  cfg.threads = threads;
  const auto t0 = Clock::now();
  serve::ClusterSim cluster{spec.sys, spec.model, spec.prof, spec.specs, cfg};
  auto dispatcher = serve::make_dispatcher(spec.policy, spec.dispatch_seed);
  auto stream = serve::poisson_stream(spec.requests, spec.rate_per_s, spec.shape, spec.stream_seed);
  std::unique_ptr<serve::Autoscaler> scaler;
  if (spec.autoscale) scaler = serve::make_queue_pressure_autoscaler(*spec.autoscale);
  TimedArrivalStream probe{*stream, nullptr, /*probe=*/true};
  try {
    (void)cluster.run(probe, *dispatcher, scaler.get());
  } catch (const SetupDone&) {
  }
  if (!probe.first_pull()) throw std::runtime_error("fleet run never pulled an arrival");
  return std::chrono::duration<double>(*probe.first_pull() - t0).count();
}

std::vector<Fig6Row> run_fig6(std::uint64_t order_seed, const std::vector<std::int64_t>& batches,
                              const std::shared_ptr<ndp::NdpCoreSim>& sim, Recorder* rec) {
  const moe::MoeModelConfig models[] = {moe::MoeModelConfig::switch_large_128(),
                                        moe::MoeModelConfig::nllb_moe_128()};
  std::vector<Fig6Row> grid;
  for (const bool decoder : {false, true}) {
    for (const moe::MoeModelConfig& model : models) {
      for (const std::int64_t batch : batches) {
        Fig6Row row;
        row.decoder = decoder;
        row.model = model.name;
        row.batch = batch;
        grid.push_back(row);
      }
    }
  }
  // Every (row, strategy) engine run, in an order shuffled by `order_seed`.
  std::vector<std::size_t> runs(grid.size() * 4);
  for (std::size_t i = 0; i < runs.size(); ++i) runs[i] = i;
  monde::Rng rng{order_seed};
  for (std::size_t i = runs.size(); i > 1; --i) {
    std::swap(runs[i - 1], runs[rng.next_u64() % i]);
  }
  for (const std::size_t run : runs) {
    Fig6Row& row = grid[run / 4];
    const std::size_t k = run % 4;
    const moe::MoeModelConfig& model = models[row.model == models[0].name ? 0 : 1];
    const Timed t{rec, row.decoder ? "engine.run_decoder_ms" : "engine.run_encoder_ms", 1e-6};
    row.tput[k] = fig6_throughput(model, row.decoder, row.batch, kFig6Kinds[k], sim);
  }
  return grid;
}

std::size_t fig6_failures(const std::vector<Fig6Row>& grid) {
  std::size_t failed = 0;
  for (const Fig6Row& row : grid) {
    std::size_t bad = 0;
    for (const double t : row.tput) {
      if (!std::isfinite(t) || t <= 0.0) ++bad;
    }
    if (!(row.tput[2] >= row.tput[0])) bad = 4;  // MD+LB must not lose to GPU+PM
    failed += bad;
  }
  return failed;
}

std::uint64_t fig6_digest(const std::vector<Fig6Row>& grid) {
  Digest d;
  for (const Fig6Row& row : grid) {
    for (const double t : row.tput) d.add_f64(t);
  }
  return d.value();
}

double paper_ratio_err_pct(const std::vector<Fig6Row>& grid) {
  // Figure 6's MD+LB over GPU+PM at B=1: encoder, then decoder; SL-128, then N-MoE.
  const double paper[2][2] = {{3.1, 6.7}, {1.1, 1.9}};
  double sum = 0.0;
  int n = 0;
  for (const Fig6Row& row : grid) {
    if (row.batch != 1) continue;
    const int model = row.model == moe::MoeModelConfig::switch_large_128().name ? 0 : 1;
    sum += std::abs(row.tput[2] / row.tput[0] / paper[row.decoder ? 1 : 0][model] - 1.0);
    ++n;
  }
  if (n != 4) throw std::logic_error("paper_ratio_err needs the grid's four B=1 rows");
  return sum / n * 100.0;
}

Outcome run(const Options& opts) {
  if (opts.workload == "paper_fig6") return run_fig6_workload(opts);
  return run_fleet_workload(opts);
}

}  // namespace perfbench
