// Measurement kit of the repository benchmark: host-time samples, spans,
// the percentile rule, output digests, and timing wrappers around the
// interfaces ClusterSim calls (Dispatcher, ArrivalStream, Autoscaler).
//
// Everything here measures from outside the simulator: a wrapper forwards
// each call to the wrapped object unchanged and records the host time the
// call took. Host time is std::chrono::steady_clock; simulated time never
// enters a timing sample.
//
// A Recorder is single-threaded. ClusterSim calls its dispatcher, arrival
// stream and autoscaler from the thread that called run(), so the wrappers
// may share one recorder with that thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/arrivals.hpp"
#include "serve/autoscale.hpp"
#include "serve/cluster.hpp"
#include "serve/dispatch.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Percentile rule --------------------------------------------------------

/// The tail reported beside a median: the highest percentile of the ladder
/// 99.9 / 99 / 95 / 90 / 75 that still has at least ten samples beyond it,
/// in per-mille (999, 990, 950, 900, 750). With fewer than 40 samples no
/// rung qualifies and the rule falls back to the median (500).
[[nodiscard]] int tail_permille(std::size_t n);

/// Nearest-rank quantile of `sorted` (ascending, non-empty) at `permille`.
[[nodiscard]] double quantile(const std::vector<double>& sorted, int permille);

/// "p99.9", "p99", "p95", ... for a per-mille rank.
[[nodiscard]] std::string permille_label(int permille);

/// Median, rule-chosen tail, and sample count of one timing series.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  int tail_permille = 500;
  double mean = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

// --- Recorder ----------------------------------------------------------------

/// One timed call: [start, end] in nanoseconds since the recorder's epoch,
/// and the index of the span that was open when it started (-1 = none).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Host-time samples and spans, keyed by series name. Spans are kept in
/// memory up to `span_cap` (later ones still feed the samples) and written
/// once, at exit, as Chrome-trace JSON.
class Recorder {
 public:
  explicit Recorder(std::size_t span_cap = 200'000);

  /// Open a span named `name` (a string literal: only the pointer is kept).
  /// Returns its handle for close().
  [[nodiscard]] std::int32_t open(const char* name);

  /// Close span `handle`; its duration (in `scale` units per nanosecond,
  /// e.g. 1e-3 for microseconds) becomes a sample of series `name`.
  void close(std::int32_t handle, const char* name, double scale);

  /// Add a raw sample to a series without a span.
  void sample(const std::string& series, double value) { samples_[series].push_back(value); }

  /// Add to a named counter.
  void count(const std::string& counter, double by = 1.0) { counters_[counter] += by; }

  [[nodiscard]] const std::vector<double>& samples(const std::string& series) const;
  [[nodiscard]] double counter(const std::string& counter) const;

  [[nodiscard]] std::size_t spans_kept() const { return spans_.size(); }
  [[nodiscard]] std::size_t spans_dropped() const { return dropped_; }

  /// Chrome-trace JSON ("X" complete events, microsecond timestamps) that
  /// Perfetto and chrome://tracing load. Each event carries its workload
  /// and parent span index in `args`.
  [[nodiscard]] std::string chrome_trace(const std::string& workload) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  Clock::time_point epoch_;
  std::size_t span_cap_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;  ///< stack of open span handles (-2 = dropped)
  std::vector<std::int64_t> open_start_;
  std::size_t dropped_ = 0;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> counters_;
};

/// RAII span: times one call into a layer. With a null recorder it does
/// nothing, which is how the untraced runs stay free of tracing cost.
class Timed {
 public:
  Timed(Recorder* rec, const char* name, double scale = 1.0)
      : rec_{rec}, name_{name}, scale_{scale}, handle_{rec ? rec->open(name) : -1} {}
  ~Timed() {
    if (rec_ != nullptr) rec_->close(handle_, name_, scale_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Recorder* rec_;
  const char* name_;
  double scale_;
  std::int32_t handle_;
};

// --- Digests -----------------------------------------------------------------

/// FNV-1a over exact bit patterns, so two runs compare bit for bit.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_f64(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a fleet run: every RequestMetrics field, bit for bit, plus the
/// makespan and the generated-token count.
[[nodiscard]] std::uint64_t fleet_digest(const monde::serve::ClusterReport& rep);

// --- Output checks -----------------------------------------------------------

/// What arrived: (id, arrival) of every request the stream yielded.
struct Arrived {
  std::uint64_t id = 0;
  monde::Duration arrival = monde::Duration::zero();
};

/// Failed requests of a fleet run: every arrived request must complete
/// exactly once, with arrival <= first_token <= completion and its arrival
/// re-based to the stream's. Returns the number of arrived requests that
/// violate this (or `arrived.size()` when the report holds requests that
/// never arrived, since then no request can be trusted).
[[nodiscard]] std::size_t fleet_failures(const std::vector<Arrived>& arrived,
                                         const monde::serve::ClusterReport& rep);

// --- Timing wrappers ---------------------------------------------------------

/// Forwards every call to `inner` and records its host time as
/// `dispatch.pick_ns`, plus the view size it was handed.
class TimedDispatcher final : public monde::serve::Dispatcher {
 public:
  TimedDispatcher(monde::serve::Dispatcher& inner, Recorder* rec) : inner_{inner}, rec_{rec} {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t pick(
      const std::vector<monde::serve::ReplicaSnapshot>& snapshots) override;
  [[nodiscard]] std::size_t pick(const std::vector<monde::serve::ReplicaSnapshot>& snapshots,
                                 const monde::serve::Request& rq) override;

 private:
  monde::serve::Dispatcher& inner_;
  Recorder* rec_;
};

/// Thrown by a TimedArrivalStream in set-up-probe mode at the first pull:
/// the cluster has finished setting up and is about to simulate.
struct SetupDone {};

/// Forwards every pull to `inner`, records its host time as
/// `arrivals.next_ns`, and keeps (id, arrival) of every request for the
/// output check. Marks the host instant of the first pull -- the start of
/// simulation -- and, in probe mode, stops the run there.
class TimedArrivalStream final : public monde::serve::ArrivalStream {
 public:
  TimedArrivalStream(monde::serve::ArrivalStream& inner, Recorder* rec, bool probe = false)
      : inner_{inner}, rec_{rec}, probe_{probe} {}

  [[nodiscard]] std::optional<monde::serve::Request> next() override;
  [[nodiscard]] std::size_t size_hint() const override { return inner_.size_hint(); }

  [[nodiscard]] const std::vector<Arrived>& arrived() const { return arrived_; }
  [[nodiscard]] std::optional<Clock::time_point> first_pull() const { return first_pull_; }

 private:
  monde::serve::ArrivalStream& inner_;
  Recorder* rec_;
  bool probe_;
  std::vector<Arrived> arrived_;
  std::optional<Clock::time_point> first_pull_;
};

/// Forwards every decision to `inner` and records its host time as
/// `autoscale.decide_ns`.
class TimedAutoscaler final : public monde::serve::Autoscaler {
 public:
  TimedAutoscaler(monde::serve::Autoscaler& inner, Recorder* rec) : inner_{inner}, rec_{rec} {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::size_t target_size(const monde::serve::AutoscaleSignals& s) override;

 private:
  monde::serve::Autoscaler& inner_;
  Recorder* rec_;
};

// --- Metric names --------------------------------------------------------------

/// True when `name` is a valid metric name: 1-64 characters of
/// [A-Za-z0-9_.-], starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

}  // namespace perfbench
