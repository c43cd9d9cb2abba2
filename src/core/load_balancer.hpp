// GPU-MoNDE load balancing (paper Section 3.3, Equations 3-6).
//
// After gating, the top-H most compute-intensive (hottest) experts run on
// the GPU via PMove while the cold remainder runs near-data via AMove; the
// two workflows overlap. H follows Equation 6:
//
//   H = alpha * BW_PCIe / (BW_MD + BW_PCIe) * E_activ
//
// which balances the bandwidth-bound PMove time against the bandwidth-bound
// NDP streaming time (Equation 4). The scaling factor alpha corrects for
// cases where the NDP-side experts are compute-intensive (intuition 2 of
// the paper breaks); it is auto-tuned by periodically re-evaluating recent
// layers under candidate values and keeping the local optimum, mirroring
// the paper's profiling-based tuner. The tuner keeps the last kTuneWindow
// layers, each ranked once when it ran, and re-prices them on every layer of
// the first kTunePeriod, then on every kTunePeriod-th layer. Its dry runs
// read the GPU expert cache's residency without changing it. Pinning H
// (set_fixed_h) stops the tuner: no dry runs, no window updates, no alpha
// change.
#pragma once

#include <array>

#include "core/strategy.hpp"

namespace monde::core {

/// The MD+LB strategy. Also exposes dry-run evaluation used by the tuner
/// and by the H-sweep ablation bench.
class MondeLoadBalanced final : public Strategy {
 public:
  explicit MondeLoadBalanced(StrategyContext ctx);

  [[nodiscard]] std::string name() const override { return "MD+LB"; }

  MoeLayerResult run_layer(const moe::MoeLayerWork& work, sim::StreamSchedule& sched,
                           const HwStreams& hw, Duration ready) override;

  /// Equation 6 with the current (or given) alpha, clamped to [0, E_activ].
  [[nodiscard]] int h_from_equation6(const moe::MoeLayerWork& work, double alpha) const;

  /// Unrounded Equation-6 value at alpha = 1 (used to invert H -> alpha).
  [[nodiscard]] double h_raw_equation6(const moe::MoeLayerWork& work) const;

  /// Dry-run: latency of the layer under a fixed H on idle streams (a
  /// non-recording scratch schedule, reset before every run).
  [[nodiscard]] Duration evaluate_layer_with_h(const moe::MoeLayerWork& work, int h);

  /// Pin H (disables Equation 6 and tuning); pass -1 to restore auto mode.
  void set_fixed_h(int h) { fixed_h_ = h; }

  /// Replace the datasheet bandwidths in Equation 6 with profiled values
  /// (paper Section 3.3: "this can be replaced by profiled bandwidths").
  /// Typical source: NdpKernelResult::achieved_bandwidth and a measured
  /// PCIe rate. Pass zero-bandwidth values to revert to the specification.
  void set_profiled_bandwidths(Bandwidth pcie, Bandwidth monde);

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] int last_h() const { return last_h_; }

 private:
  /// Layers between tuner runs, after the first kTunePeriod layers (all tuned).
  static constexpr int kTunePeriod = 4;
  /// Recent layers the tuner re-prices.
  static constexpr std::size_t kTuneWindow = 4;

  /// What a dry run needs of a past layer.
  struct RankedLayer {
    int layer_id = 0;
    std::int64_t total_tokens = 0;
    RankedExperts experts;
  };

  MoeLayerResult schedule_layer(int layer_id, std::int64_t total_tokens, ExpertSpan experts,
                                int h, Weights weights, sim::StreamSchedule& sched,
                                const HwStreams& hw, Duration ready);
  Duration dry_run(int layer_id, std::int64_t total_tokens, ExpertSpan experts, int h);
  [[nodiscard]] double h_raw(std::size_t activated) const;
  [[nodiscard]] int h_for(std::size_t activated, double alpha) const;
  void remember(const moe::MoeLayerWork& work, const RankedExperts& experts);
  void retune();

  double alpha_ = 1.0;
  int fixed_h_ = -1;
  int last_h_ = -1;
  int layers_seen_ = 0;
  std::array<RankedLayer, kTuneWindow> window_;  ///< ring, oldest at window_head_
  std::size_t window_head_ = 0;
  std::size_t window_size_ = 0;
  Bandwidth profiled_pcie_;   ///< zero = use specification
  Bandwidth profiled_monde_;  ///< zero = use specification
  sim::StreamSchedule scratch_{/*record=*/false};  ///< evaluate_layer_with_h's dry-run streams
  HwStreams scratch_hw_;
};

}  // namespace monde::core
