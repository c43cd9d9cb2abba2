// Execution timelines over named hardware streams.
//
// The MoE workflow model (Figure 5 of the paper) schedules tasks onto
// parallel hardware streams: the GPU compute stream, the two PCIe directions,
// each MoNDE device, and the host. `StreamSchedule` performs deterministic
// list scheduling -- a task starts at max(stream free time, dependency ready
// times) -- and `Timeline` records the placed intervals for validation,
// queries, and Chrome-trace export.
//
// Recording is a property of the schedule. A default-constructed schedule
// records every placed task (the whole-run, figure and example paths read
// the trace); `StreamSchedule{false}` keeps only stream free times and the
// makespan, for hot paths that never read it (serving replicas, the MD+LB
// tuner's dry runs). Placement results are identical either way.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"

namespace monde::sim {

/// Identifies a hardware stream within a StreamSchedule.
struct StreamId {
  std::size_t index = 0;
  constexpr auto operator<=>(const StreamId&) const = default;
};

/// A scheduled busy interval on one stream.
struct Interval {
  StreamId stream;
  Duration start;
  Duration end;
  std::string label;     ///< e.g. "PMove expert 17"
  std::string category;  ///< e.g. "pmove", "amove", "gemm", "gating"
};

/// Where a placed task landed on its stream.
struct Span {
  Duration start;
  Duration end;
};

/// A recorded set of intervals (append-only).
class Timeline {
 public:
  void record(Interval iv);

  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }

  /// Latest end time over all intervals (zero when empty).
  [[nodiscard]] Duration end_time() const;

  /// Sum of interval lengths on one stream.
  [[nodiscard]] Duration busy_time(StreamId stream) const;

  /// Verifies no two intervals on the same stream overlap. Returns an empty
  /// string when valid, else a description of the first violation.
  [[nodiscard]] std::string validate() const;

  /// Chrome-trace ("chrome://tracing" / Perfetto) JSON. `stream_names[i]`
  /// labels stream i as a thread.
  [[nodiscard]] std::string to_chrome_trace(const std::vector<std::string>& stream_names) const;

  /// Render an ASCII Gantt chart (one row per stream), `width` columns wide.
  [[nodiscard]] std::string to_ascii_gantt(const std::vector<std::string>& stream_names,
                                           std::size_t width = 100) const;

  /// Merge another timeline's intervals into this one.
  void merge(const Timeline& other);

 private:
  std::vector<Interval> intervals_;
};

/// A collection of named streams with deterministic earliest-fit placement.
class StreamSchedule {
 public:
  /// A recording schedule.
  StreamSchedule() = default;
  /// `record` = false: place() appends nothing to the timeline and lazy
  /// labels are never built; free times and the makespan are still kept.
  explicit StreamSchedule(bool record) : record_{record} {}

  [[nodiscard]] bool recording() const { return record_; }

  /// Register a stream; returns its id. Names are for traces only.
  StreamId add_stream(std::string name);

  [[nodiscard]] std::size_t stream_count() const { return names_.size(); }
  [[nodiscard]] const std::vector<std::string>& stream_names() const { return names_; }

  /// Time at which the stream becomes free.
  [[nodiscard]] Duration free_at(StreamId stream) const;

  /// Place a task: start = max(earliest, stream free), end = start+length.
  /// A recording schedule appends the interval to its timeline; zero-length
  /// tasks advance nothing but are still recorded (useful for markers).
  Span place(StreamId stream, Duration earliest, Duration length, std::string_view label,
             std::string_view category) {
    return place(stream, earliest, length, [label] { return std::string{label}; }, category);
  }

  /// As above, with a label built by `label()` only when recording, so hot
  /// paths format no string.
  template <std::invocable MakeLabel>
  Span place(StreamId stream, Duration earliest, Duration length, MakeLabel&& label,
             std::string_view category) {
    const Span s = occupy(stream, earliest, length);
    if (record_) {
      timeline_.record({stream, s.start, s.end, std::string(label()), std::string{category}});
    }
    return s;
  }

  /// Advance a stream's free time without recording (e.g. blocking waits).
  void block_until(StreamId stream, Duration when);

  /// Free every stream at zero and zero the makespan, keeping the streams;
  /// a recording schedule also drops its intervals.
  void reset();

  [[nodiscard]] const Timeline& timeline() const { return timeline_; }
  [[nodiscard]] Timeline& timeline() { return timeline_; }

  /// Completion time of the whole schedule so far: the latest end of any
  /// placed task (zero before the first).
  [[nodiscard]] Duration makespan() const { return makespan_; }

 private:
  /// Checks and books [start, end) on `stream`.
  Span occupy(StreamId stream, Duration earliest, Duration length);

  bool record_ = true;
  std::vector<std::string> names_;
  std::vector<Duration> free_;
  Duration makespan_ = Duration::zero();
  Timeline timeline_;
};

}  // namespace monde::sim
