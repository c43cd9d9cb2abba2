#include "probe.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace serve = monde::serve;

// --- Percentile rule --------------------------------------------------------

int tail_permille(std::size_t n) {
  for (const int q : {999, 990, 950, 900, 750}) {
    // Samples strictly beyond the nearest-rank q-quantile: n - ceil(n*q/1000).
    const std::size_t rank = (n * static_cast<std::size_t>(q) + 999) / 1000;
    if (n - rank >= 10) return q;
  }
  return 500;
}

double quantile(const std::vector<double>& sorted, int permille) {
  const std::size_t n = sorted.size();
  std::size_t rank = (n * static_cast<std::size_t>(permille) + 999) / 1000;  // 1-based
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

std::string permille_label(int permille) {
  char buf[16];
  if (permille % 10 == 0) {
    std::snprintf(buf, sizeof(buf), "p%d", permille / 10);
  } else {
    std::snprintf(buf, sizeof(buf), "p%d.%d", permille / 10, permille % 10);
  }
  return buf;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = quantile(samples, 500);
  s.tail_permille = tail_permille(s.n);
  s.tail = quantile(samples, s.tail_permille);
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean = sum / static_cast<double>(s.n);
  return s;
}

// --- Recorder ----------------------------------------------------------------

Recorder::Recorder(std::size_t span_cap) : epoch_{Clock::now()}, span_cap_{span_cap} {}

std::int64_t Recorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

std::int32_t Recorder::open(const char* name) {
  std::int32_t handle = -2;
  if (spans_.size() < span_cap_) {
    handle = static_cast<std::int32_t>(spans_.size());
    Span sp;
    sp.name = name;
    sp.parent = -1;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (*it >= 0) {
        sp.parent = *it;
        break;
      }
    }
    spans_.push_back(sp);
  } else {
    ++dropped_;
  }
  open_.push_back(handle);
  const std::int64_t t = now_ns();
  open_start_.push_back(t);
  if (handle >= 0) spans_[static_cast<std::size_t>(handle)].start_ns = t;
  return handle;
}

void Recorder::close(std::int32_t handle, const char* name, double scale) {
  const std::int64_t t = now_ns();
  const std::int64_t start = open_start_.back();
  open_.pop_back();
  open_start_.pop_back();
  if (handle >= 0) spans_[static_cast<std::size_t>(handle)].end_ns = t;
  samples_[name].push_back(static_cast<double>(t - start) * scale);
}

const std::vector<double>& Recorder::samples(const std::string& series) const {
  static const std::vector<double> kEmpty;
  const auto it = samples_.find(series);
  return it == samples_.end() ? kEmpty : it->second;
}

double Recorder::counter(const std::string& counter) const {
  const auto it = counters_.find(counter);
  return it == counters_.end() ? 0.0 : it->second;
}

std::string Recorder::chrome_trace(const std::string& workload) const {
  std::string out;
  out.reserve(spans_.size() * 120 + 64);
  out += "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"workload\": \"",
                  i == 0 ? "" : ",\n", sp.name, static_cast<double>(sp.start_ns) * 1e-3,
                  static_cast<double>(sp.end_ns - sp.start_ns) * 1e-3);
    out += buf;
    out += workload;
    std::snprintf(buf, sizeof(buf), "\", \"span\": %zu, \"parent\": %d}}", i, sp.parent);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// --- Digests -----------------------------------------------------------------

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_f64(double v) { add_u64(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t fleet_digest(const serve::ClusterReport& rep) {
  Digest d;
  d.add_u64(rep.requests.size());
  for (const serve::RequestMetrics& m : rep.requests) {
    d.add_u64(m.id);
    d.add_u64(m.attempt);
    d.add_u64(static_cast<std::uint64_t>(m.prompt_len));
    d.add_u64(static_cast<std::uint64_t>(m.generated));
    d.add_u64(static_cast<std::uint64_t>(m.saved_tokens));
    d.add_u64(static_cast<std::uint64_t>(m.resumed_tokens));
    d.add_f64(m.arrival.ns());
    d.add_f64(m.admitted.ns());
    d.add_f64(m.first_token.ns());
    d.add_f64(m.completion.ns());
  }
  d.add_f64(rep.makespan.ns());
  d.add_u64(rep.generated_tokens);
  return d.value();
}

// --- Output checks -----------------------------------------------------------

std::size_t fleet_failures(const std::vector<Arrived>& arrived, const serve::ClusterReport& rep) {
  std::unordered_map<std::uint64_t, std::size_t> seen;  // id -> completions
  seen.reserve(arrived.size());
  std::unordered_map<std::uint64_t, monde::Duration> arrival_of;
  arrival_of.reserve(arrived.size());
  for (const Arrived& a : arrived) {
    arrival_of.emplace(a.id, a.arrival);
    seen.emplace(a.id, 0);
  }
  std::size_t failed = 0;
  for (const serve::RequestMetrics& m : rep.requests) {
    const auto it = seen.find(m.id);
    if (it == seen.end()) return arrived.size();  // a request nobody sent
    ++it->second;
    const bool ordered = m.arrival <= m.first_token && m.first_token <= m.completion &&
                         std::isfinite(m.completion.ns());
    if (!ordered || m.arrival != arrival_of.at(m.id) || m.generated <= 0) ++failed;
  }
  for (const auto& [id, n] : seen) {
    if (n != 1) ++failed;  // never completed, or completed twice
  }
  return std::min(failed, arrived.size());
}

// --- Timing wrappers ---------------------------------------------------------

std::size_t TimedDispatcher::pick(const std::vector<serve::ReplicaSnapshot>& snapshots) {
  if (rec_ != nullptr) rec_->sample("dispatch.view", static_cast<double>(snapshots.size()));
  const Timed t{rec_, "dispatch.pick_ns"};
  return inner_.pick(snapshots);
}

std::size_t TimedDispatcher::pick(const std::vector<serve::ReplicaSnapshot>& snapshots,
                                  const serve::Request& rq) {
  if (rec_ != nullptr) rec_->sample("dispatch.view", static_cast<double>(snapshots.size()));
  const Timed t{rec_, "dispatch.pick_ns"};
  return inner_.pick(snapshots, rq);
}

std::optional<serve::Request> TimedArrivalStream::next() {
  if (!first_pull_) {
    first_pull_ = Clock::now();
    if (probe_) throw SetupDone{};
  }
  std::optional<serve::Request> rq;
  {
    const Timed t{rec_, "arrivals.next_ns"};
    rq = inner_.next();
  }
  if (rq) arrived_.push_back({rq->id, rq->arrival});
  return rq;
}

std::size_t TimedAutoscaler::target_size(const serve::AutoscaleSignals& s) {
  const Timed t{rec_, "autoscale.decide_ns"};
  return inner_.target_size(s);
}

// --- Metric names --------------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
