#include "serve/dispatch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "moe/expert_profile.hpp"
#include "serve/kvcache.hpp"

namespace monde::serve {
namespace {

/// Index of the snapshot minimizing `load`, lowest replica index on ties.
template <typename LoadFn>
std::size_t argmin_load(const std::vector<ReplicaSnapshot>& snapshots, LoadFn load) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    if (load(snapshots[i]) < load(snapshots[best])) best = i;
  }
  return best;
}

/// Two distinct uniform probes into [0, n) for n >= 2, in ascending order.
/// The draws are fixed: the first from [0, n), the second from the n - 1
/// remaining indices.
std::pair<std::size_t, std::size_t> two_probes(std::size_t n, Rng& rng) {
  std::size_t a = static_cast<std::size_t>(rng.next_below(n));
  std::size_t b = static_cast<std::size_t>(rng.next_below(n - 1));
  if (b >= a) ++b;
  if (a > b) std::swap(a, b);
  return {a, b};
}

class RoundRobinDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "round-robin"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    return next_++ % snapshots.size();
  }

 private:
  std::size_t next_ = 0;
};

class JoinShortestQueueDispatcher final : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "join-shortest-queue"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    return argmin_load(snapshots, [](const ReplicaSnapshot& s) { return s.in_flight; });
  }
};

class LeastOutstandingTokensDispatcher : public Dispatcher {
 public:
  [[nodiscard]] std::string name() const override { return "least-outstanding-tokens"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    return argmin_load(snapshots,
                       [](const ReplicaSnapshot& s) { return s.outstanding_tokens; });
  }
};

class PowerOfTwoChoicesDispatcher final : public Dispatcher {
 public:
  explicit PowerOfTwoChoicesDispatcher(std::uint64_t seed) : rng_{seed} {}

  [[nodiscard]] std::string name() const override { return "power-of-two"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (snapshots.size() == 1) return 0;
    // Keep the shorter queue of two probes (lower index wins ties so the
    // choice is deterministic).
    const auto [a, b] = two_probes(snapshots.size(), rng_);
    return snapshots[b].in_flight < snapshots[a].in_flight ? b : a;
  }

 private:
  Rng rng_;
};

/// Base of the residency-aware policies: least-outstanding-tokens for
/// requests lacking the state they route on, plus the RNG stream of their
/// spill-over probes.
class ResidencyDispatcher : public LeastOutstandingTokensDispatcher {
 public:
  explicit ResidencyDispatcher(std::uint64_t seed) : rng_{seed} {}

 protected:
  Rng rng_;
};

/// Shared by the residency-aware policies: a power-of-two load spill-over.
/// Affinity concentrates hot state (experts, shared prefixes), but a popular
/// home must not melt -- so after the affinity choice, probe two random
/// replicas and defect to the less-loaded probe when the choice carries more
/// than twice its outstanding tokens. Deterministic given the RNG stream.
std::size_t spill_over(const std::vector<ReplicaSnapshot>& snapshots, std::size_t choice,
                       Rng& rng) {
  if (snapshots.size() < 2) return choice;
  const auto [a, b] = two_probes(snapshots.size(), rng);
  const std::size_t probe =
      snapshots[b].outstanding_tokens < snapshots[a].outstanding_tokens ? b : a;
  if (snapshots[choice].outstanding_tokens > 2 * snapshots[probe].outstanding_tokens) {
    return probe;
  }
  return choice;
}

class ExpertAffinityDispatcher final : public ResidencyDispatcher {
 public:
  using ResidencyDispatcher::ResidencyDispatcher;
  using ResidencyDispatcher::pick;

  [[nodiscard]] std::string name() const override { return "expert-affinity"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                   const Request& rq) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (rq.expert_profile.empty()) return pick(snapshots);
    // Best hot-set overlap; ties go to the lighter replica, then the lower
    // index (so an all-cold fleet degenerates to least-outstanding-tokens).
    std::size_t best = 0;
    int best_overlap = std::popcount(snapshots[0].expert_sig & rq.expert_profile.signature);
    for (std::size_t i = 1; i < snapshots.size(); ++i) {
      const int overlap =
          std::popcount(snapshots[i].expert_sig & rq.expert_profile.signature);
      if (overlap > best_overlap ||
          (overlap == best_overlap &&
           snapshots[i].outstanding_tokens < snapshots[best].outstanding_tokens)) {
        best = i;
        best_overlap = overlap;
      }
    }
    return spill_over(snapshots, best, rng_);
  }
};

class ExpertShardedDispatcher final : public ResidencyDispatcher {
 public:
  using ResidencyDispatcher::ResidencyDispatcher;
  using ResidencyDispatcher::pick;

  [[nodiscard]] std::string name() const override { return "expert-sharded"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                   const Request& rq) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (rq.expert_profile.empty()) return pick(snapshots);
    // Partition by the request's primary expert (heaviest of its first
    // profiled layer): every request leaning on the same heavy expert lands
    // on the same home shard, so each replica's residency converges to its
    // partition of the heavy experts.
    const auto& primary = rq.expert_profile.experts.front();
    const std::size_t home = static_cast<std::size_t>(
        moe::expert_signature_bit(primary.layer, primary.expert)) % snapshots.size();
    return spill_over(snapshots, home, rng_);
  }
};

/// Ring point of one virtual node: prefix_mix() over the packed (replica,
/// vnode) pair. Pure in its inputs, so every dispatcher instance (and both
/// cluster loops) places the same replica at the same points.
std::uint64_t ring_point(std::size_t replica, std::uint32_t vnode) {
  return prefix_mix((static_cast<std::uint64_t>(replica) << 8) | vnode);
}

/// Consistent-hash-ring routing on the request's shared prefix id.
///
/// Each replica in the current view owns kVnodes pseudo-random points on a
/// 64-bit ring; a request walks clockwise from hash(prefix_id) to the first
/// point. Membership is diffed against the view on every routed pick, so a
/// spawn/retire/death only moves the keys whose successor point changed --
/// an expected `changed/fleet` share of the keyspace -- while every other
/// prefix group keeps its home (and its resident prefix KV). A bounded-load
/// spill-over (power-of-two probes) protects a popular group's home from
/// melting. Requests with no shared prefix, and decode-phase requests (no
/// prefill left to save), fall back to least-outstanding-tokens.
class PrefixHashDispatcher final : public ResidencyDispatcher {
 public:
  using ResidencyDispatcher::ResidencyDispatcher;
  using ResidencyDispatcher::pick;

  [[nodiscard]] std::string name() const override { return "prefix-hash"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                   const Request& rq) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (rq.prefix_id == 0 || rq.decode_phase()) return pick(snapshots);
    sync_ring(snapshots);
    // Walk clockwise from the key to the first virtual node (wrapping).
    auto it = ring_.lower_bound(prefix_mix(rq.prefix_id));
    if (it == ring_.end()) it = ring_.begin();
    const std::size_t home_replica = it->second;
    std::size_t home = 0;
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      if (snapshots[i].replica == home_replica) {
        home = i;
        break;
      }
    }
    return spill_over(snapshots, home, rng_);
  }

 private:
  /// Virtual nodes per replica: enough to keep per-replica keyspace shares
  /// near-uniform (stddev ~ 1/sqrt(kVnodes)) without bloating the ring.
  static constexpr std::uint32_t kVnodes = 32;

  /// Reconcile ring membership with the view. The common no-change case is
  /// one O(view) sorted compare; a membership change costs O(changed x
  /// kVnodes x log ring). Keyed on ReplicaSnapshot::replica -- the stable
  /// identity across health/pool filtering and fleet resizes.
  void sync_ring(const std::vector<ReplicaSnapshot>& snapshots) {
    seen_.clear();
    seen_.reserve(snapshots.size());
    for (const ReplicaSnapshot& s : snapshots) seen_.push_back(s.replica);
    std::sort(seen_.begin(), seen_.end());
    if (seen_ == members_) return;
    // Merge-walk the sorted member lists; only the symmetric difference
    // touches the ring, so unchanged replicas keep their points (and the
    // keys mapped to them).
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < members_.size() || j < seen_.size()) {
      if (j == seen_.size() || (i < members_.size() && members_[i] < seen_[j])) {
        remove_points(members_[i]);
        ++i;
      } else if (i == members_.size() || seen_[j] < members_[i]) {
        add_points(seen_[j]);
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
    members_ = seen_;
  }

  void add_points(std::size_t replica) {
    for (std::uint32_t v = 0; v < kVnodes; ++v) {
      // On a (vanishingly rare) 64-bit point collision the lower replica
      // index wins deterministically; the loser just runs one vnode short.
      auto [it, inserted] = ring_.emplace(ring_point(replica, v), replica);
      if (!inserted && replica < it->second) it->second = replica;
    }
  }

  void remove_points(std::size_t replica) {
    for (std::uint32_t v = 0; v < kVnodes; ++v) {
      const auto it = ring_.find(ring_point(replica, v));
      if (it != ring_.end() && it->second == replica) ring_.erase(it);
    }
  }

  std::map<std::uint64_t, std::size_t> ring_;  ///< point -> replica id
  std::vector<std::size_t> members_;           ///< sorted replica ids on the ring
  std::vector<std::size_t> seen_;              ///< scratch for the per-pick diff
};

/// Power-of-two choices restricted to replicas whose snapshot signature
/// says the request's shared prefix is resident *right now* -- the sharpest
/// locality signal available (kPrefixHash routes on where the prefix
/// *should* live; this routes on where it verifiably does). Falls back to
/// least-outstanding-tokens when no holder exists (the first arrival of a
/// group seeds a home wherever the load is lowest), for prefix-less
/// requests, and for decode-phase work. The spill-over keeps a saturated
/// holder from absorbing its whole group.
class PrefixAffinityDispatcher final : public ResidencyDispatcher {
 public:
  using ResidencyDispatcher::ResidencyDispatcher;
  using ResidencyDispatcher::pick;

  [[nodiscard]] std::string name() const override { return "prefix-affinity"; }

  std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                   const Request& rq) override {
    MONDE_REQUIRE(!snapshots.empty(), "dispatcher needs at least one replica");
    if (rq.prefix_id == 0 || rq.decode_phase()) return pick(snapshots);
    const std::uint64_t bit = std::uint64_t{1} << prefix_signature_bit(rq.prefix_id);
    holders_.clear();
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
      if ((snapshots[i].prefix_sig & bit) != 0) holders_.push_back(i);
    }
    if (holders_.empty()) return pick(snapshots);
    std::size_t choice = holders_.front();
    if (holders_.size() > 1) {
      // Two probes among the holders; fewer outstanding tokens wins, lower
      // index on ties.
      const auto [a, b] = two_probes(holders_.size(), rng_);
      choice = snapshots[holders_[b]].outstanding_tokens <
                       snapshots[holders_[a]].outstanding_tokens
                   ? holders_[b]
                   : holders_[a];
    }
    return spill_over(snapshots, choice, rng_);
  }

 private:
  std::vector<std::size_t> holders_;  ///< scratch: view indices holding the prefix
};

}  // namespace

std::string to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return "round-robin";
    case DispatchPolicy::kJoinShortestQueue: return "join-shortest-queue";
    case DispatchPolicy::kLeastOutstandingTokens: return "least-outstanding-tokens";
    case DispatchPolicy::kPowerOfTwoChoices: return "power-of-two";
    case DispatchPolicy::kExpertAffinity: return "expert-affinity";
    case DispatchPolicy::kExpertSharded: return "expert-sharded";
    case DispatchPolicy::kPrefixHash: return "prefix-hash";
    case DispatchPolicy::kPrefixAffinity: return "prefix-affinity";
  }
  MONDE_ASSERT(false, "unknown dispatch policy");
  return {};
}

std::vector<DispatchPolicy> all_dispatch_policies() {
  return {DispatchPolicy::kRoundRobin, DispatchPolicy::kJoinShortestQueue,
          DispatchPolicy::kLeastOutstandingTokens, DispatchPolicy::kPowerOfTwoChoices};
}

std::vector<ReplicaSnapshot> eligible_snapshots(const std::vector<ReplicaSnapshot>& all,
                                                double slow_ewma_factor,
                                                double stale_age_ms) {
  // No-filter fast path: with every replica accepting and fresh (the common
  // all-healthy case) the element-wise loop below just rebuilds the input
  // one push_back at a time; take a single bulk copy instead (snapshots are
  // trivially copyable, so this is one memcpy-sized assignment). Same
  // result by construction -- pinned by a regression test.
  bool all_pass = true;
  for (const ReplicaSnapshot& s : all) {
    if (!s.accepting || s.heartbeat_age_ms > stale_age_ms) {
      all_pass = false;
      break;
    }
  }
  std::vector<ReplicaSnapshot> eligible;
  if (all_pass) {
    eligible = all;
  } else {
    eligible.reserve(all.size());
    for (const ReplicaSnapshot& s : all) {
      if (s.accepting && s.heartbeat_age_ms <= stale_age_ms) eligible.push_back(s);
    }
  }
  MONDE_REQUIRE(!eligible.empty(),
                "no replica is accepting requests (every replica failed or retired)");
  if (!std::isfinite(slow_ewma_factor)) return eligible;
  // Soft filter: skip pathologically slow replicas, but never starve the
  // dispatcher -- if everyone looks slow, everyone stays eligible.
  std::vector<double> ewmas;
  for (const ReplicaSnapshot& s : eligible) {
    if (s.step_ewma_ms > 0.0) ewmas.push_back(s.step_ewma_ms);
  }
  if (ewmas.empty()) return eligible;
  const double cutoff = percentile(std::move(ewmas), 50.0) * slow_ewma_factor;
  std::vector<ReplicaSnapshot> fast;
  for (const ReplicaSnapshot& s : eligible) {
    if (s.step_ewma_ms <= cutoff) fast.push_back(s);
  }
  return fast.empty() ? eligible : fast;
}

std::vector<ReplicaSnapshot> pool_snapshots(const std::vector<ReplicaSnapshot>& all,
                                            bool prefill,
                                            std::int64_t decode_admit_tokens) {
  std::vector<ReplicaSnapshot> pool;
  for (const ReplicaSnapshot& s : all) {
    if (s.prefill_pool == prefill) pool.push_back(s);
  }
  if (!prefill && decode_admit_tokens > 0) {
    // Decode-pool admission control: prefer replicas whose outstanding-token
    // load is within the cap, but never strand a request -- an all-over-cap
    // pool stays dispatchable in full.
    std::vector<ReplicaSnapshot> within;
    for (const ReplicaSnapshot& s : pool) {
      if (s.outstanding_tokens <= decode_admit_tokens) within.push_back(s);
    }
    if (!within.empty()) return within;
  }
  return pool;
}

std::unique_ptr<Dispatcher> make_dispatcher(DispatchPolicy policy, std::uint64_t seed) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin: return std::make_unique<RoundRobinDispatcher>();
    case DispatchPolicy::kJoinShortestQueue:
      return std::make_unique<JoinShortestQueueDispatcher>();
    case DispatchPolicy::kLeastOutstandingTokens:
      return std::make_unique<LeastOutstandingTokensDispatcher>();
    case DispatchPolicy::kPowerOfTwoChoices:
      return std::make_unique<PowerOfTwoChoicesDispatcher>(seed);
    case DispatchPolicy::kExpertAffinity:
      return std::make_unique<ExpertAffinityDispatcher>(seed);
    case DispatchPolicy::kExpertSharded:
      return std::make_unique<ExpertShardedDispatcher>(seed);
    case DispatchPolicy::kPrefixHash:
      return std::make_unique<PrefixHashDispatcher>(seed);
    case DispatchPolicy::kPrefixAffinity:
      return std::make_unique<PrefixAffinityDispatcher>(seed);
  }
  MONDE_ASSERT(false, "unknown dispatch policy");
  return nullptr;
}

}  // namespace monde::serve
