// The three building blocks of ClusterSim::run's event loop (cluster.hpp):
// an ArrivalMerger (what is dispatched next), an EventCalendar (which
// replicas must advance before a cluster event) and an AcceptingIndex (what
// a dispatch picks from). The calendar and the index each have a production
// variant (HeapCalendar, MaintainedIndex) and a naive reference variant
// (ScanCalendar, RebuildIndex), chosen once per run from
// ClusterConfig::reference_loop and bit-identical in everything the loop
// observes (tests/test_calendar_diff.cpp pins them component by component
// and end to end). Every component takes plain values -- times, versions,
// replica indices, snapshots -- so each is unit-testable without an engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/arrivals.hpp"
#include "serve/dispatch.hpp"
#include "serve/fault.hpp"

namespace monde::serve {

/// One request the cluster dispatches: an original arrival or a re-dispatch.
struct DispatchItem {
  Duration time;
  Request rq;
  bool migrated = false;  ///< re-dispatch came from a retirement, not a failure
  bool handoff = false;   ///< prefill-complete handoff bound for the decode pool

  /// Later in (time, id) order.
  bool operator>(const DispatchItem& o) const {
    return time != o.time ? time > o.time : rq.id > o.rq.id;
  }
};

/// The arrival stream's head merged with the re-dispatch queue (failure
/// retries, scale-down migrations, prefill -> decode handoffs) in (time, id)
/// order, so per-replica enqueues stay (arrival, id)-ordered with O(retries)
/// memory. Polices duplicate ids and out-of-order streams.
class ArrivalMerger {
 public:
  /// Pulls the first request; throws if the stream is empty.
  explicit ArrivalMerger(ArrivalStream& arrivals) : arrivals_{arrivals} {
    original_arrival_.reserve(arrivals.size_hint());
    head_ = arrivals.next();
    MONDE_REQUIRE(head_.has_value(), "cannot serve an empty trace");
    note_original(*head_);
  }

  [[nodiscard]] bool empty() const { return !head_.has_value() && pending_.empty(); }

  /// Time of the next item, infinite when empty.
  [[nodiscard]] Duration next_time() const {
    const Duration t = head_.has_value() ? head_->arrival : Duration::infinite();
    return pending_.empty() ? t : monde::min(t, pending_.top().time);
  }

  void push(DispatchItem item) { pending_.push(std::move(item)); }

  /// Removes and returns the next item in (time, id) order. Requires !empty().
  DispatchItem pop() {
    const bool from_stream =
        head_.has_value() &&
        (pending_.empty() || head_->arrival < pending_.top().time ||
         (head_->arrival == pending_.top().time && head_->id < pending_.top().rq.id));
    if (!from_stream) {
      DispatchItem it = pending_.top();
      pending_.pop();
      return it;
    }
    DispatchItem it{head_->arrival, std::move(*head_)};
    head_ = arrivals_.next();
    if (head_.has_value()) {
      MONDE_REQUIRE(!arrival_order(*head_, it.rq),
                    "arrival stream is out of (arrival, id) order at request " << head_->id);
      note_original(*head_);
    }
    return it;
  }

  /// Every id the stream yielded, with its original arrival.
  [[nodiscard]] const std::unordered_map<std::uint64_t, Duration>& original_arrivals() const {
    return original_arrival_;
  }

 private:
  void note_original(const Request& rq) {
    MONDE_REQUIRE(original_arrival_.emplace(rq.id, rq.arrival).second,
                  "duplicate request id " << rq.id << " in trace");
  }

  ArrivalStream& arrivals_;
  std::optional<Request> head_;
  std::priority_queue<DispatchItem, std::vector<DispatchItem>, std::greater<>> pending_;
  std::unordered_map<std::uint64_t, Duration> original_arrival_;
};

/// A boot replica's fail-stop plan as the calendar sees it (autoscaled
/// replicas spawn fault-free).
struct FailStop {
  Duration fail_at;    ///< instant of death
  Duration detect_at;  ///< heartbeat detection instant
  std::size_t replica;
};

/// Per-replica server events. The loop reports every server mutation with
/// push(); a push supersedes every earlier one for that replica.
class EventCalendar {
 public:
  virtual ~EventCalendar() = default;
  /// Replica `replica` is now at `version` with its next event at `time`
  /// (infinite = idle until an enqueue).
  virtual void push(Duration time, std::uint64_t version, std::size_t replica) = 0;
  /// Replaces `batch` with the replicas to advance to `t`, ascending and
  /// unique: at least every replica whose fail-stop lies at or before `t`
  /// plus every replica whose next event lies strictly before `t`. Each one
  /// must be pushed again once advanced.
  virtual void collect_before(Duration t, std::vector<std::size_t>& batch) = 0;
  /// Whether some replica has a finite next event.
  [[nodiscard]] virtual bool has_live_work() = 0;
  /// The earliest detection not yet popped, lowest replica on ties;
  /// {infinite, 0} when none is left.
  [[nodiscard]] virtual std::pair<Duration, std::size_t> next_detection() const = 0;
  virtual void pop_detection() = 0;
};

/// Min-heap of (time, replica, version) entries; an entry is dead once a
/// later push for its replica carried a newer version (lazy deletion). A
/// replica with no live entry before t has nothing to do there, so one
/// collect is exhaustive. Fail-stop plans are two sorted cursors.
class HeapCalendar final : public EventCalendar {
 public:
  explicit HeapCalendar(const std::vector<FailStop>& fail_stops) {
    for (const FailStop& f : fail_stops) {
      fail_order_.emplace_back(f.fail_at, f.replica);
      detect_order_.emplace_back(f.detect_at, f.replica);
    }
    std::sort(fail_order_.begin(), fail_order_.end());
    std::sort(detect_order_.begin(), detect_order_.end());
  }

  void push(Duration time, std::uint64_t version, std::size_t replica) override {
    if (replica >= latest_.size()) latest_.resize(replica + 1, 0);
    latest_[replica] = version;
    if (time != Duration::infinite()) heap_.push(Entry{time, replica, version});
  }

  void collect_before(Duration t, std::vector<std::size_t>& batch) override {
    batch.clear();
    // A replica dying at or before t is advanced even if it looks event-less:
    // advance_to() freezes it at its fail-stop instant.
    for (; fail_cursor_ < fail_order_.size() && fail_order_[fail_cursor_].first <= t;
         ++fail_cursor_) {
      batch.push_back(fail_order_[fail_cursor_].second);
    }
    for (settle(); !heap_.empty() && heap_.top().time < t; settle()) {
      batch.push_back(heap_.top().replica);
      heap_.pop();
    }
    // A failing replica may also hold an entry before t; list it once.
    std::sort(batch.begin(), batch.end());
    batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  }

  bool has_live_work() override {
    settle();
    return !heap_.empty();
  }

  std::pair<Duration, std::size_t> next_detection() const override {
    if (detect_cursor_ >= detect_order_.size()) return {Duration::infinite(), 0};
    return detect_order_[detect_cursor_];
  }

  void pop_detection() override { ++detect_cursor_; }

 private:
  struct Entry {
    Duration time;
    std::size_t replica;
    std::uint64_t version;
    auto operator<=>(const Entry&) const = default;
  };

  void settle() {
    while (!heap_.empty() && heap_.top().version != latest_[heap_.top().replica]) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<std::uint64_t> latest_;  ///< replica -> version of its latest push
  std::vector<std::pair<Duration, std::size_t>> fail_order_, detect_order_;
  std::size_t fail_cursor_ = 0, detect_cursor_ = 0;
};

/// The reference calendar: every replica it has heard of advances at every
/// event, and live work and detections are found by scanning.
class ScanCalendar final : public EventCalendar {
 public:
  explicit ScanCalendar(const std::vector<FailStop>& fail_stops) {
    for (const FailStop& f : fail_stops) detections_.emplace_back(f.detect_at, f.replica);
  }

  void push(Duration time, std::uint64_t /*version*/, std::size_t replica) override {
    if (replica >= next_event_.size()) next_event_.resize(replica + 1, Duration::infinite());
    next_event_[replica] = time;
  }

  void collect_before(Duration /*t*/, std::vector<std::size_t>& batch) override {
    batch.resize(next_event_.size());
    std::iota(batch.begin(), batch.end(), std::size_t{0});
  }

  bool has_live_work() override {
    return std::any_of(next_event_.begin(), next_event_.end(),
                       [](Duration t) { return t < Duration::infinite(); });
  }

  std::pair<Duration, std::size_t> next_detection() const override {
    if (detections_.empty()) return {Duration::infinite(), 0};
    return *std::min_element(detections_.begin(), detections_.end());
  }

  void pop_detection() override {
    detections_.erase(std::min_element(detections_.begin(), detections_.end()));
  }

 private:
  std::vector<Duration> next_event_;                          ///< replica -> latest push
  std::vector<std::pair<Duration, std::size_t>> detections_;  ///< (detect_at, replica)
};

/// The accepting replicas' snapshots, in ascending replica order.
class AcceptingIndex {
 public:
  virtual ~AcceptingIndex() = default;
  /// Replica `snap.replica` starts accepting. `start_at` (end of its cold
  /// start) and `fail_at` (its fail-stop, infinite for none) drive the
  /// snapshot fields that change without a mutation: `warming` and
  /// `heartbeat_age_ms`.
  virtual void add(const ReplicaSnapshot& snap, Duration start_at, Duration fail_at) = 0;
  /// The replica stops accepting for good (detected or retired).
  virtual void remove(std::size_t replica) = 0;
  /// The replica's server mutated: take the load fields of `snap`
  /// (in_flight, outstanding_tokens, step_ewma_ms, expert_sig, prefix_sig).
  virtual void write_through(const ReplicaSnapshot& snap) = 0;
  /// The accepting set as the dispatcher sees it at `now`; throws when it is
  /// empty. Valid until the next call on the index.
  [[nodiscard]] virtual const std::vector<ReplicaSnapshot>& view(Duration now) = 0;
};

/// `eligible_` holds the accepting replicas in ascending replica order; the
/// fields that change without a mutation (warming, the heartbeat age of an
/// undetected fail-stop) are refreshed per view from `time_sensitive_`.
/// Eligibility cannot silently change between mutations: the loop processes
/// detections before any dispatch at or past them, and a healthy replica's
/// heartbeat age never exceeds one interval (<= timeout).
class MaintainedIndex final : public AcceptingIndex {
 public:
  explicit MaintainedIndex(const HealthConfig& health) : health_{health} {}

  void add(const ReplicaSnapshot& snap, Duration start_at, Duration fail_at) override {
    if (snap.replica >= epos_.size()) epos_.resize(snap.replica + 1, kNoSlot);
    epos_[snap.replica] = eligible_.size();
    eligible_.push_back(snap);
    if (snap.warming || fail_at < Duration::infinite()) {
      time_sensitive_.push_back({snap.replica, start_at, fail_at});
    }
  }

  void remove(std::size_t replica) override {
    const std::size_t at = slot(replica);
    if (at == kNoSlot) return;
    eligible_.erase(eligible_.begin() + static_cast<std::ptrdiff_t>(at));
    epos_[replica] = kNoSlot;
    for (std::size_t p = at; p < eligible_.size(); ++p) epos_[eligible_[p].replica] = p;
  }

  void write_through(const ReplicaSnapshot& snap) override {
    const std::size_t at = slot(snap.replica);
    if (at == kNoSlot) return;
    ReplicaSnapshot& s = eligible_[at];
    s.in_flight = snap.in_flight;
    s.outstanding_tokens = snap.outstanding_tokens;
    s.step_ewma_ms = snap.step_ewma_ms;
    s.expert_sig = snap.expert_sig;
    s.prefix_sig = snap.prefix_sig;
  }

  const std::vector<ReplicaSnapshot>& view(Duration now) override {
    std::size_t keep = 0;
    for (const TimeSensitive& ts : time_sensitive_) {
      const std::size_t at = slot(ts.replica);
      if (at == kNoSlot) continue;  // left the index for good
      ReplicaSnapshot& s = eligible_[at];
      s.warming = ts.start_at > now;
      s.heartbeat_age_ms = (now - last_ok_heartbeat(now, ts.fail_at, health_)).ms();
      // Done once warm, unless a fail-stop can still age the heartbeat.
      if (s.warming || ts.fail_at < Duration::infinite()) time_sensitive_[keep++] = ts;
    }
    time_sensitive_.resize(keep);
    MONDE_REQUIRE(!eligible_.empty(),
                  "no replica is accepting requests (every replica failed or retired)");
    return eligible_;
  }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  struct TimeSensitive {
    std::size_t replica;
    Duration start_at, fail_at;
  };

  [[nodiscard]] std::size_t slot(std::size_t replica) const {
    return replica < epos_.size() ? epos_[replica] : kNoSlot;
  }

  HealthConfig health_;
  std::vector<ReplicaSnapshot> eligible_;
  std::vector<std::size_t> epos_;  ///< replica -> slot in `eligible_`
  std::vector<TimeSensitive> time_sensitive_;
};

/// The reference index: ignores add/remove/write_through, and every view
/// rebuilds every snapshot through `rebuild` (all replicas at an instant)
/// and cuts the unaccepting and stale-heartbeat ones with
/// eligible_snapshots() -- exactly what the maintained index holds, with
/// exact time-varying fields for every replica.
class RebuildIndex final : public AcceptingIndex {
 public:
  RebuildIndex(const HealthConfig& health,
               std::function<std::vector<ReplicaSnapshot>(Duration)> rebuild)
      : stale_ms_{health.heartbeat_timeout.ms()}, rebuild_{std::move(rebuild)} {}

  void add(const ReplicaSnapshot&, Duration, Duration) override {}
  void remove(std::size_t) override {}
  void write_through(const ReplicaSnapshot&) override {}

  const std::vector<ReplicaSnapshot>& view(Duration now) override {
    view_ = eligible_snapshots(rebuild_(now), std::numeric_limits<double>::infinity(), stale_ms_);
    return view_;
  }

 private:
  double stale_ms_;
  std::function<std::vector<ReplicaSnapshot>(Duration)> rebuild_;
  std::vector<ReplicaSnapshot> view_;
};

}  // namespace monde::serve
