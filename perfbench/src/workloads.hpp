// The benchmark's three workloads and the runs that measure them.
//
//   fleet_scale     512 MD+LB replicas, power-of-two-choices dispatch,
//                   short requests, no optional serving feature, 1 thread.
//   fleet_features  a mid-size fleet with every serving path on (disagg
//                   pools, scarce prefix cache with Zipf tenants, prefix-
//                   affinity dispatch, expert residency with rebalancing,
//                   one fail-stop, one slow-down, autoscaling, event log),
//                   2 threads, with digest checks at 1 and 4.
//   paper_fig6      the Figure 6 grid: two models, encoder and decoder,
//                   B in {1, 4}, four strategies, one cold NdpCoreSim.
//
// An untraced run (trace = false) gives the end-to-end metrics; a traced run
// gives the per-layer metrics. README.md beside this directory lists every
// metric and what it should move.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ndp/ndp_core.hpp"
#include "probe.hpp"
#include "serve/cluster.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the traced run's flat per-layer table.
struct LayerRow {
  std::string metric;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< 0 for counts and ratios
  std::string stat;         ///< "p50", the rule's tail label, or "count"
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< traced runs write their span and table files here
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string digest;  ///< simulated-output digest, equal in every iteration
  std::vector<double> walls;         ///< wall_s of every untraced iteration
  std::vector<double> traced_walls;  ///< wall_s of every traced iteration
  std::vector<Metric> metrics;
  std::vector<LayerRow> layers;  ///< traced run only
  std::string chrome_trace;      ///< traced run only: the kept spans
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload as Options says; throws on an unknown workload.
[[nodiscard]] Outcome run(const Options& opts);

// --- Pieces exposed for the self-tests ---------------------------------------

/// Everything that defines a fleet workload's inputs.
struct FleetSpec {
  std::string name;
  monde::core::SystemConfig sys;
  monde::moe::MoeModelConfig model;
  monde::moe::SkewProfile prof;
  std::vector<monde::serve::ReplicaSpec> specs;
  monde::serve::ClusterConfig cfg;
  monde::serve::RequestShape shape;
  int requests = 0;
  double rate_per_s = 0.0;
  monde::serve::DispatchPolicy policy = monde::serve::DispatchPolicy::kPowerOfTwoChoices;
  std::uint64_t dispatch_seed = 17;
  std::optional<monde::serve::AutoscaleConfig> autoscale;
  bool faults = false;  ///< one fail-stop and one slow-down window
  std::uint64_t stream_seed = 7;
  /// Requests of the one-replica replay that measures the layers below the
  /// cluster (sized to a few thousand server steps).
  int replay_requests = 0;
};

/// The fleet workload `name` ("fleet_scale" or "fleet_features") with its
/// arrival stream drawn from `seed`.
[[nodiscard]] FleetSpec fleet_spec(const std::string& name, std::uint64_t seed);

/// The same workload shrunk to `replicas` replicas and `requests` requests
/// at the same per-replica load (self-tests and reference-shape replays).
[[nodiscard]] FleetSpec shrink(FleetSpec spec, std::size_t replicas, int requests);

struct FleetRun {
  monde::serve::ClusterReport report;
  std::vector<Arrived> arrived;
  double setup_s = 0.0;  ///< construction until the first arrival pull
  double wall_s = 0.0;   ///< the ClusterSim::run call
};

/// One fleet run. With `rec` the dispatcher, arrival stream and autoscaler
/// are timed into it and the cluster measures its phases; with
/// `wrap = false` they are handed to the cluster unwrapped (the self-test
/// that wrappers change nothing compares the two).
[[nodiscard]] FleetRun run_fleet(const FleetSpec& spec, std::size_t threads, Recorder* rec,
                                 bool wrap = true);

/// Construct the fleet and stop at its first arrival pull; host seconds.
[[nodiscard]] double probe_fleet_setup(const FleetSpec& spec, std::size_t threads);

/// One Figure 6 row: throughputs of GPU+PM, MD+AM, MD+LB and Ideal.
struct Fig6Row {
  bool decoder = false;
  std::string model;
  std::int64_t batch = 0;
  double tput[4] = {};
};

/// The Figure 6 grid at `batches` on `sim`, with Figure 6's own routing
/// seed: 2 phases x 2 models x batches rows of 4 strategies. `order_seed`
/// shuffles the order of the engine runs, which decides which run pays each
/// cold NDP simulation; the results do not depend on it. With `rec`, each
/// engine run is timed as engine.run_encoder_ms / run_decoder_ms.
[[nodiscard]] std::vector<Fig6Row> run_fig6(std::uint64_t order_seed,
                                            const std::vector<std::int64_t>& batches,
                                            const std::shared_ptr<monde::ndp::NdpCoreSim>& sim,
                                            Recorder* rec);

/// Engine runs of the grid that fail its output check: every throughput
/// finite and positive, and MD+LB >= GPU+PM in every row (a row that breaks
/// the ordering fails all four of its runs).
[[nodiscard]] std::size_t fig6_failures(const std::vector<Fig6Row>& grid);

[[nodiscard]] std::uint64_t fig6_digest(const std::vector<Fig6Row>& grid);

/// Mean absolute relative error, in percent, of the four B=1 MD+LB over
/// GPU+PM ratios of `grid` against the paper's (3.1x, 6.7x, 1.1x, 1.9x).
[[nodiscard]] double paper_ratio_err_pct(const std::vector<Fig6Row>& grid);

}  // namespace perfbench
