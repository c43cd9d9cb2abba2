#include <algorithm>

#include "common/error.hpp"
#include "core/load_balancer.hpp"
#include "core/strategy.hpp"

namespace monde::core {

namespace {

/// Lazy "<what> E<e> (<tok> tok)" trace label, formatted only when the
/// schedule records.
auto expert_label(const char* what, std::size_t e, std::uint64_t tok) {
  return [=] {
    return std::string{what} + " E" + std::to_string(e) + " (" + std::to_string(tok) + " tok)";
  };
}

}  // namespace

HwStreams HwStreams::create(sim::StreamSchedule& sched, const SystemConfig& sys) {
  HwStreams hw;
  hw.gpu = sched.add_stream("GPU");
  hw.gpu2 = sys.num_gpus > 1 ? sched.add_stream("GPU-1") : hw.gpu;
  hw.pcie_g2m = sched.add_stream("PCIe-G2M");
  hw.pcie_m2g = sched.add_stream("PCIe-M2G");
  hw.host = sched.add_stream("Host");
  hw.cpu = sched.add_stream("CPU");
  for (int d = 0; d < sys.num_monde_devices; ++d) {
    hw.ndp.push_back(sched.add_stream("MoNDE-" + std::to_string(d)));
  }
  return hw;
}

void StrategyContext::validate() const {
  MONDE_REQUIRE(sys && model && gpu && cpu && xformer, "incomplete strategy context");
  MONDE_REQUIRE(devices.size() == static_cast<std::size_t>(sys->num_monde_devices),
                "device list size mismatch");
}

Strategy::Strategy(StrategyContext ctx) : ctx_{std::move(ctx)} {
  ctx_.validate();
  // Optional GPU expert cache for the PMove-side paths (extension).
  const std::uint64_t cache_bytes = ctx_.sys->gpu_expert_cache_bytes.count();
  if (cache_bytes > 0) {
    const std::uint64_t per_expert = ctx_.model->expert_bytes().count();
    expert_cache_ = std::make_unique<ExpertCache>(
        static_cast<std::size_t>(cache_bytes / per_expert));
  }
}

std::string to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kIdealGpu: return "Ideal";
    case StrategyKind::kGpuPmove: return "GPU+PM";
    case StrategyKind::kMondeAmove: return "MD+AM";
    case StrategyKind::kMondeLoadBalanced: return "MD+LB";
    case StrategyKind::kCpuAmove: return "CPU+AM";
    case StrategyKind::kMultiGpu: return "2GPU";
  }
  return "?";
}

const Strategy::RankedExperts& Strategy::rank(const moe::MoeLayerWork& work) {
  ranked_.clear();
  for (std::size_t e = 0; e < work.tokens_per_expert.size(); ++e) {
    if (const std::uint64_t tok = work.tokens_per_expert[e]; tok > 0) ranked_.emplace_back(e, tok);
  }
  std::sort(ranked_.begin(), ranked_.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  return ranked_;
}

Duration Strategy::place_gating(std::int64_t tokens, sim::StreamSchedule& sched,
                                const HwStreams& hw, Duration ready,
                                MoeLayerResult& result) const {
  const Duration t =
      ctx_.xformer->gating_time(tokens, ctx_.model->num_experts, ctx_.model->dmodel);
  const auto iv = sched.place(hw.gpu, ready, t, "gating", "gating");
  result.gating += t;
  return iv.end;
}

Duration Strategy::place_combine(std::int64_t tokens, sim::StreamSchedule& sched,
                                 const HwStreams& hw, Duration ready,
                                 MoeLayerResult& result) const {
  const Duration t = ctx_.xformer->combine_time(tokens, ctx_.model->dmodel);
  const auto iv = sched.place(hw.gpu, ready, t, "combine", "combine");
  result.combine += t;
  return iv.end;
}

Duration Strategy::place_gpu_experts(ExpertSpan experts, Weights weights, int layer_id,
                                     sim::StreamSchedule& sched, const HwStreams& hw,
                                     Duration ready, sim::StreamId gpu_stream,
                                     MoeLayerResult& result) {
  Duration last_end = ready;
  const Bytes bytes = ctx_.model->expert_bytes();
  for (const auto& [e, tok] : experts) {
    // Fetched weights stream host/CXL memory -> GPU on the M->G direction;
    // the GEMM launches as soon as its parameters land and the host has
    // dispatched the kernel (Figure 5, GPU+PM row). Cache-resident experts
    // skip the transfer.
    Duration weights_ready = ready;
    if (weights != Weights::kResident) {
      const ExpertId eid{layer_id, static_cast<int>(e)};
      const bool commit = weights == Weights::kPmove;
      if (expert_cache_ && (commit ? expert_cache_->access(eid) : expert_cache_->contains(eid))) {
        ++result.cache_hits;
      } else {
        weights_ready = sched.place(hw.pcie_m2g, ready, ctx_.sys->pcie.transfer_time(bytes),
                                    expert_label("PMove", e, tok), "pmove")
                            .end;
        result.pmove_bytes += bytes;
        if (expert_cache_ && commit) expert_cache_->insert(eid);
      }
    }
    const auto disp = sched.place(hw.host, ready, ctx_.sys->gpu_expert_dispatch,
                                  expert_label("dispatch", e, tok), "driver");
    const auto cp =
        sched.place(gpu_stream, max(weights_ready, disp.end),
                    ctx_.gpu->expert_time(ctx_.expert_shape(static_cast<std::int64_t>(tok)),
                                          ctx_.dtype()),
                    expert_label("expert", e, tok), "gemm");
    last_end = max(last_end, cp.end);
    ++result.experts_gpu;
  }
  return last_end;
}

Duration Strategy::place_ndp_batch(ExpertSpan experts, sim::StreamSchedule& sched,
                                   const HwStreams& hw, Duration ready,
                                   MoeLayerResult& result) const {
  const std::size_t n = ctx_.devices.size();
  MONDE_REQUIRE(n > 0, "strategy needs MoNDE devices");
  MONDE_REQUIRE(n <= hw.ndp.size(), "more MoNDE devices than NDP streams");
  // The host driver prepares each expert offload (input slicing, two 64-B
  // NDP instructions over CXL, completion arming) while the activation DMA
  // is in flight; dispatches serialize on the host thread and gate each
  // kernel's start -- the framework-bound regime the paper's profiled
  // workflow exhibits for many-cold-expert layers.
  const Duration per_dispatch =
      ctx_.sys->offload_dispatch_overhead + ctx_.sys->cxl.message_time(Bytes{64}) * 2.0;
  Duration all_end = ready;
  for (std::size_t d = 0; d < n && d < experts.size(); ++d) {
    // Device d runs experts d, d+n, d+2n, ... of the load-ordered list.
    // AMove input: all routed activations for its experts in one DMA (G->M).
    std::uint64_t routed = 0;
    for (std::size_t i = d; i < experts.size(); i += n) routed += experts[i].second;
    const Bytes in_bytes = ctx_.activation_bytes(routed);
    const auto am =
        sched.place(hw.pcie_g2m, ready, ctx_.sys->pcie.transfer_time(in_bytes),
                    [d] { return "AMove-in dev" + std::to_string(d); }, "amove");
    result.amove_bytes += in_bytes;

    Duration kernel_ready = am.end;
    for (std::size_t i = d; i < experts.size(); i += n) {
      const auto [e, tok] = experts[i];
      const auto disp = sched.place(hw.host, ready, per_dispatch,
                                    expert_label("offload", e, tok), "driver");
      const auto kr = ctx_.devices[d]->expert_latency(
          ctx_.expert_shape(static_cast<std::int64_t>(tok)), ctx_.dtype());
      // Kernel occupancy = simulated GEMM time + per-expert device overhead
      // (staging, decode, skew fill/drain, done handshake).
      const auto kv = sched.place(hw.ndp[d], max(kernel_ready, disp.end),
                                  kr.latency + ctx_.sys->ndp_expert_overhead,
                                  expert_label("NDP expert", e, tok), "ndp");
      kernel_ready = kv.end;
      // Host observes the done register, then retrieves this expert's
      // output (M->G direction, shared with PMove traffic).
      const Bytes out_bytes = ctx_.activation_bytes(tok);
      const auto out = sched.place(hw.pcie_m2g, kv.end + ctx_.sys->done_poll,
                                   ctx_.sys->pcie.transfer_time(out_bytes),
                                   expert_label("AMove-out", e, tok), "amove");
      result.amove_bytes += out_bytes;
      all_end = max(all_end, out.end);
      ++result.experts_ndp;
    }
  }
  return all_end;
}

// --- Ideal and GPU+PM -----------------------------------------------------------

namespace {

/// Every activated expert on the primary GPU: weights resident (Ideal,
/// infinite GPU memory) or fetched on demand over PCIe (GPU+PM).
class GpuOnly final : public Strategy {
 public:
  GpuOnly(StrategyContext ctx, StrategyKind kind) : Strategy{std::move(ctx)}, kind_{kind} {}
  [[nodiscard]] std::string name() const override { return to_string(kind_); }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);
    const Duration experts_end = place_gpu_experts(
        rank(work), kind_ == StrategyKind::kIdealGpu ? Weights::kResident : Weights::kPmove,
        work.layer_id, sched, hw, gate_end, hw.gpu, r);
    r.end = place_combine(work.total_tokens, sched, hw, experts_end, r);
    return r;
  }

 private:
  StrategyKind kind_;
};

// --- MD+AM -------------------------------------------------------------------

class MondeAmove final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "MD+AM"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);
    const Duration experts_end = place_ndp_batch(rank(work), sched, hw, gate_end, r);
    r.end = place_combine(work.total_tokens, sched, hw, experts_end, r);
    return r;
  }
};

// --- CPU+AM ------------------------------------------------------------------

class CpuAmove final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "CPU+AM"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);

    const RankedExperts& experts = rank(work);
    std::uint64_t routed = 0;
    for (const auto& [e, tok] : experts) routed += tok;
    const Bytes in_bytes = ctx_.activation_bytes(routed);
    const auto am = sched.place(hw.pcie_g2m, gate_end,
                                ctx_.sys->pcie.transfer_time(in_bytes), "AMove-in CPU",
                                "amove");
    r.amove_bytes += in_bytes;

    Duration t = am.end;
    Duration last_out = am.end;
    for (const auto& [e, tok] : experts) {
      const auto disp = sched.place(hw.host, gate_end, ctx_.sys->offload_dispatch_overhead,
                                    expert_label("offload", e, tok), "driver");
      const auto cp =
          sched.place(hw.cpu, max(t, disp.end),
                      ctx_.cpu->expert_time(ctx_.expert_shape(static_cast<std::int64_t>(tok)),
                                            ctx_.dtype()),
                      expert_label("CPU expert", e, tok), "cpu");
      t = cp.end;
      const Bytes out_bytes = ctx_.activation_bytes(tok);
      const auto out = sched.place(hw.pcie_m2g, cp.end,
                                   ctx_.sys->pcie.transfer_time(out_bytes),
                                   expert_label("AMove-out", e, tok), "amove");
      r.amove_bytes += out_bytes;
      last_out = max(last_out, out.end);
      ++r.experts_cpu;
    }
    r.end = place_combine(work.total_tokens, sched, hw, last_out, r);
    return r;
  }
};

// --- 2-GPU expert parallelism --------------------------------------------------

class MultiGpu final : public Strategy {
 public:
  explicit MultiGpu(StrategyContext ctx) : Strategy{std::move(ctx)} {
    MONDE_REQUIRE(ctx_.sys->num_gpus >= 2, "MultiGpu strategy needs num_gpus >= 2");
  }
  [[nodiscard]] std::string name() const override { return "2GPU"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override {
    MoeLayerResult r;
    r.start = ready;
    const Duration gate_end = place_gating(work.total_tokens, sched, hw, ready, r);

    // Static expert parallelism: even experts on GPU-0, odd on GPU-1; all
    // weights are resident (the multi-GPU baseline assumes capacity).
    RankedExperts local, remote;
    std::uint64_t remote_tokens = 0;
    for (const auto& [e, tok] : rank(work)) {
      (e % 2 == 0 ? local : remote).emplace_back(e, tok);
      if (e % 2 != 0) remote_tokens += tok;
    }

    // All-to-all dispatch: tokens for GPU-1's experts cross the link before
    // GPU-1 can start on them.
    const Bytes dispatch = ctx_.activation_bytes(remote_tokens);
    if (remote_tokens > 0) {
      const auto tr = sched.place(hw.pcie_g2m, gate_end,
                                  ctx_.sys->pcie.transfer_time(dispatch), "a2a dispatch",
                                  "amove");
      sched.block_until(hw.gpu2, tr.end);
      r.amove_bytes += dispatch;
    }
    const Duration local_end = place_gpu_experts(local, Weights::kResident, work.layer_id,
                                                 sched, hw, gate_end, hw.gpu, r);
    Duration remote_end = place_gpu_experts(remote, Weights::kResident, work.layer_id, sched,
                                            hw, gate_end, hw.gpu2, r);
    if (remote_tokens > 0) {
      const auto back = sched.place(hw.pcie_m2g, remote_end,
                                    ctx_.sys->pcie.transfer_time(dispatch), "a2a return",
                                    "amove");
      remote_end = back.end;
      r.amove_bytes += dispatch;
    }
    r.end = place_combine(work.total_tokens, sched, hw, max(local_end, remote_end), r);
    return r;
  }
};

}  // namespace

// --- MD+LB ---------------------------------------------------------------------

MondeLoadBalanced::MondeLoadBalanced(StrategyContext ctx) : Strategy{std::move(ctx)} {
  MONDE_REQUIRE(!ctx_.devices.empty(), "MD+LB needs at least one MoNDE device");
  scratch_hw_ = HwStreams::create(scratch_, *ctx_.sys);
}

double MondeLoadBalanced::h_raw(std::size_t activated) const {
  const double activ = static_cast<double>(activated);
  const double bw_pcie =
      (profiled_pcie_.as_bytes_per_sec() > 0.0 ? profiled_pcie_
                                               : ctx_.sys->pcie.effective_bandwidth())
          .as_bytes_per_sec();
  const double bw_md = (profiled_monde_.as_bytes_per_sec() > 0.0
                            ? profiled_monde_ * static_cast<double>(ctx_.devices.size())
                            : ctx_.sys->monde_aggregate_bandwidth())
                           .as_bytes_per_sec();
  return bw_pcie / (bw_md + bw_pcie) * activ;
}

int MondeLoadBalanced::h_for(std::size_t activated, double alpha) const {
  const double h = alpha * h_raw(activated);
  return static_cast<int>(std::clamp(std::llround(h), 0LL, static_cast<long long>(activated)));
}

double MondeLoadBalanced::h_raw_equation6(const moe::MoeLayerWork& work) const {
  return h_raw(static_cast<std::size_t>(work.activated_experts()));
}

int MondeLoadBalanced::h_from_equation6(const moe::MoeLayerWork& work, double alpha) const {
  return h_for(static_cast<std::size_t>(work.activated_experts()), alpha);
}

void MondeLoadBalanced::set_profiled_bandwidths(Bandwidth pcie, Bandwidth monde) {
  profiled_pcie_ = pcie;
  profiled_monde_ = monde;
}

MoeLayerResult MondeLoadBalanced::schedule_layer(int layer_id, std::int64_t total_tokens,
                                                 ExpertSpan experts, int h, Weights weights,
                                                 sim::StreamSchedule& sched,
                                                 const HwStreams& hw, Duration ready) {
  MoeLayerResult r;
  r.start = ready;
  r.h_value = h;
  const Duration gate_end = place_gating(total_tokens, sched, hw, ready, r);
  const std::size_t hot = std::min(static_cast<std::size_t>(std::max(h, 0)), experts.size());

  // The GPU workflow (PMove + GPU GEMMs) on the top-H experts and the MoNDE
  // workflow (AMove + NDP) on the cold rest run concurrently (Equation 3);
  // both begin once gating resolves.
  const Duration gpu_end = place_gpu_experts(experts.first(hot), weights, layer_id, sched, hw,
                                             gate_end, hw.gpu, r);
  const Duration ndp_end = place_ndp_batch(experts.subspan(hot), sched, hw, gate_end, r);
  r.end = place_combine(total_tokens, sched, hw, max(gpu_end, ndp_end), r);
  return r;
}

Duration MondeLoadBalanced::dry_run(int layer_id, std::int64_t total_tokens, ExpertSpan experts,
                                    int h) {
  scratch_.reset();
  return schedule_layer(layer_id, total_tokens, experts, h, Weights::kPmoveDryRun, scratch_,
                        scratch_hw_, Duration::zero())
      .latency();
}

Duration MondeLoadBalanced::evaluate_layer_with_h(const moe::MoeLayerWork& work, int h) {
  return dry_run(work.layer_id, work.total_tokens, rank(work), h);
}

void MondeLoadBalanced::remember(const moe::MoeLayerWork& work, const RankedExperts& experts) {
  RankedLayer* slot;
  if (window_size_ < kTuneWindow) {
    slot = &window_[(window_head_ + window_size_++) % kTuneWindow];
  } else {
    slot = &window_[window_head_];
    window_head_ = (window_head_ + 1) % kTuneWindow;
  }
  slot->layer_id = work.layer_id;
  slot->total_tokens = work.total_tokens;
  slot->experts.assign(experts.begin(), experts.end());
}

void MondeLoadBalanced::retune() {
  // Local search mirroring the paper: evaluate H offsets around the current
  // alpha's choice on recent layers; adopt the alpha that realizes the best
  // average latency. Offsets map back to alpha via the mean Equation-6 H.
  static constexpr int kOffsets[] = {-4, -2, -1, 0, 1, 2, 4, 8, 16, 32};
  double best_alpha = alpha_;
  Duration best = Duration::infinite();
  for (const int off : kOffsets) {
    Duration total = Duration::zero();
    double alpha_sum = 0.0;
    for (std::size_t i = 0; i < window_size_; ++i) {
      const RankedLayer& l = window_[(window_head_ + i) % kTuneWindow];
      const std::size_t activated = l.experts.size();
      const int h = std::max(0, h_for(activated, alpha_) + off);
      total += dry_run(l.layer_id, l.total_tokens, l.experts, h);
      // Invert through the *unrounded* Equation-6 value so the adopted
      // alpha reproduces exactly this H after rounding.
      const double h0 = h_raw(activated);
      alpha_sum += h0 > 0.0 ? static_cast<double>(h) / h0 : alpha_;
    }
    if (total < best) {
      best = total;
      best_alpha = std::max(0.05, alpha_sum / static_cast<double>(window_size_));
    }
  }
  alpha_ = best_alpha;
}

MoeLayerResult MondeLoadBalanced::run_layer(const moe::MoeLayerWork& work,
                                            sim::StreamSchedule& sched, const HwStreams& hw,
                                            Duration ready) {
  const RankedExperts& experts = rank(work);
  int h = fixed_h_;
  if (h < 0) {
    // The paper tunes alpha by "periodically running profiled inference on
    // a small set of past input batches". Mirror that: on a cold start,
    // profile the current layer before committing (alpha = 1 can be
    // pathologically wrong when the hottest experts are strongly
    // compute-bound -- the exact case alpha exists for); retune every early
    // layer, then back off to the periodic schedule.
    if (window_size_ == 0) remember(work, experts);
    if (layers_seen_ < kTunePeriod || layers_seen_ % kTunePeriod == 0) retune();
    ++layers_seen_;
    remember(work, experts);
    h = h_for(experts.size(), alpha_);
  }
  last_h_ = h;
  return schedule_layer(work.layer_id, work.total_tokens, experts, h, Weights::kPmove, sched,
                        hw, ready);
}

std::unique_ptr<Strategy> make_strategy(StrategyKind kind, StrategyContext ctx) {
  switch (kind) {
    case StrategyKind::kIdealGpu:
    case StrategyKind::kGpuPmove: return std::make_unique<GpuOnly>(std::move(ctx), kind);
    case StrategyKind::kMondeAmove: return std::make_unique<MondeAmove>(std::move(ctx));
    case StrategyKind::kMondeLoadBalanced:
      return std::make_unique<MondeLoadBalanced>(std::move(ctx));
    case StrategyKind::kCpuAmove: return std::make_unique<CpuAmove>(std::move(ctx));
    case StrategyKind::kMultiGpu: return std::make_unique<MultiGpu>(std::move(ctx));
  }
  throw Error("unknown strategy kind");
}

}  // namespace monde::core
