// Pluggable request-dispatch policies for the cluster simulator.
//
// A ClusterSim (cluster.hpp) fronts N replica servers with one dispatcher:
// at every request's arrival instant the dispatcher sees a load snapshot of
// each replica and picks where the request goes: one of four classic
// load-only policies (round-robin, join-shortest-queue,
// least-outstanding-tokens, power-of-two-choices) or four residency-aware
// ones that also read what is already resident on each replica -- expert
// weights (serve/expert.hpp) or shared KV prefixes (serve/kvcache.hpp). The
// DispatchPolicy enumerators below summarize each; docs/DISPATCH.md is the
// reference page: the policy matrix, each policy's snapshot-field
// dependencies, and the tie-break rules.
//
// Policies are deterministic given their seed; ties break toward the lowest
// replica index.
//
// Health-checked dispatch: the cluster never hands a policy the raw fleet.
// It filters snapshots through eligible_snapshots() first -- detected-dead
// and retired replicas are excluded outright, and replicas whose step-
// duration EWMA marks them as pathologically slow are skipped while a
// faster peer exists. A policy's pick() therefore indexes into the filtered
// vector; the caller maps back through ReplicaSnapshot::replica. With every
// replica healthy the filter is the identity, so fault-free dispatch is
// bit-identical to the pre-health behavior.
//
// Snapshot maintenance: the cluster keeps the accepting replicas' snapshots
// incrementally (serve/calendar.hpp), so a dispatch costs O(changed
// replicas), not O(fleet); a finite slow-EWMA factor runs them through
// eligible_snapshots() below at every dispatch. The purely time-varying
// fields (heartbeat_age_ms, warming) are refreshed only where they can still
// move; a custom policy that reads exact heartbeat ages of healthy replicas
// should run the cluster with ClusterConfig::reference_loop (cluster.hpp).
//
// Units: `outstanding_tokens` counts tokens, `heartbeat_age_ms` and
// `step_ewma_ms` are simulated milliseconds. Snapshots are plain values --
// policies never touch a server and are unit-testable without an engine.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace monde::serve {

/// Which dispatcher make_dispatcher() builds. Every enumerator is documented
/// in docs/DISPATCH.md (policy matrix, snapshot-field dependencies,
/// tie-break rules); the residency-aware ones are opt-in and reduce to
/// kLeastOutstandingTokens when the state they route on is absent.
enum class DispatchPolicy {
  kRoundRobin,              ///< rotate through replicas, load-oblivious
  kJoinShortestQueue,       ///< fewest in-flight requests wins
  kLeastOutstandingTokens,  ///< fewest still-owed tokens wins
  kPowerOfTwoChoices,       ///< two random probes, lighter queue wins (Mitzenmacher)
  // Gating-aware policies (expert-aware serving, serve/expert.hpp). They
  // read the request's ExpertProfile and the replicas' expert residency
  // signatures; with both absent they reduce to least-outstanding-tokens.
  kExpertAffinity,  ///< best hot-set overlap, power-of-two load spill-over
  kExpertSharded,   ///< heavy experts hash-partitioned across the fleet
  // Prefix-locality policies (KV-cache-aware serving, serve/kvcache.hpp).
  // They route on the request's shared `prefix_id` so group members land
  // where the group's prefix KV is (or will become) resident; requests
  // without a shared prefix -- and decode-phase work, which has no prefill
  // left to save -- fall back to least-outstanding-tokens.
  kPrefixHash,      ///< consistent-hash ring on prefix_id, load spill-over
  kPrefixAffinity,  ///< power-of-two choices among resident prefix-holders
};

/// Canonical policy name ("round-robin", "prefix-affinity", ...), used in
/// bench banners and docs; docs/DISPATCH.md keys its matrix on these.
[[nodiscard]] std::string to_string(DispatchPolicy policy);

/// The four classic load-only policies, in enum order (for benches and tests
/// that sweep them; the budget-pinned sweeps rely on this set staying
/// fixed). The residency-aware policies are opted into explicitly.
[[nodiscard]] std::vector<DispatchPolicy> all_dispatch_policies();

/// One replica's live load and health as the dispatcher sees it at a
/// dispatch instant.
struct ReplicaSnapshot {
  std::size_t replica = 0;             ///< index into the cluster's replica list
  std::size_t in_flight = 0;           ///< accepted, not yet finished requests
  std::int64_t outstanding_tokens = 0; ///< un-prefilled prompt + remaining decode tokens
  // Health and lifecycle (filled by the cluster; defaults describe a
  // healthy, long-booted replica so hand-built snapshots keep working):
  bool accepting = true;        ///< false: detected dead or retired -- never dispatch
  bool warming = false;         ///< cold-starting: accepts, but steps only after warm-up
  double heartbeat_age_ms = 0;  ///< time since the last successful heartbeat poll
  double step_ewma_ms = 0;      ///< EWMA of recent step durations (0 = no steps yet)
  /// Compact residency summary: the replica's ExpertCache signature
  /// (core/expert_cache.hpp), 0 when expert-aware serving is disabled.
  /// Gating-aware policies AND it with the request's profile signature to
  /// estimate hot-set overlap in one popcount.
  std::uint64_t expert_sig = 0;
  /// Compact shared-prefix residency: the replica's KvCache signature
  /// (serve/kvcache.hpp, `prefix_signature()`), 0 when the prefix cache is
  /// disabled or empty. kPrefixAffinity tests the request's
  /// `prefix_signature_bit` against it to find prefix-holders; a set bit is
  /// Bloom-approximate (possible false positive, never a false negative).
  std::uint64_t prefix_sig = 0;
  /// Disaggregated serving (serve/disagg.hpp): true for a prefill-specialist
  /// replica. False when disaggregation is disabled (the whole fleet is then
  /// one unified decode-capable pool), so hand-built snapshots keep working.
  bool prefill_pool = false;
};

/// A dispatch policy. pick() is called once per request, in arrival order;
/// implementations may carry state (rotation counter, RNG stream, the
/// consistent-hash ring), so picks are deterministic in the *sequence* of
/// (snapshots, request) pairs seen since construction.
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Chooses the replica for the next request. `snapshots` holds one entry
  /// per replica, in replica order; the returned index refers into it.
  [[nodiscard]] virtual std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots) = 0;

  /// Request-aware overload used by the cluster: residency-aware policies
  /// read the request's expert profile or shared prefix id; every load-only
  /// policy ignores the request and forwards to pick(snapshots), so stock
  /// policies behave identically through either entry point.
  [[nodiscard]] virtual std::size_t pick(const std::vector<ReplicaSnapshot>& snapshots,
                                         const Request& rq) {
    (void)rq;
    return pick(snapshots);
  }
};

/// Builds a fresh dispatcher. `seed` feeds the randomized policies
/// (power-of-two choices and every residency-aware policy's load
/// spill-over probes); everything is deterministic given it.
[[nodiscard]] std::unique_ptr<Dispatcher> make_dispatcher(DispatchPolicy policy,
                                                          std::uint64_t seed = 42);

/// The health filter applied before every pick():
///
///   1. keeps accepting replicas only, and among those drops any whose
///      `heartbeat_age_ms` exceeds `stale_age_ms` (a stale heartbeat is how
///      the dispatcher "sees" an undetected death) -- throws when nothing
///      is left: the whole fleet failed or retired;
///   2. when `slow_ewma_factor` is finite, drops replicas whose step EWMA
///      exceeds factor x the median EWMA of the remaining set -- unless
///      that would empty it (a soft deprioritization).
///
/// Warming replicas stay eligible (a cold-starting replica accepts and
/// queues; that *is* the modelled warm-up cost). Order and `replica`
/// indices are preserved, so with an all-healthy fleet the result equals
/// the input.
[[nodiscard]] std::vector<ReplicaSnapshot> eligible_snapshots(
    const std::vector<ReplicaSnapshot>& all, double slow_ewma_factor,
    double stale_age_ms = std::numeric_limits<double>::infinity());

/// Disaggregated-serving pool filter, applied after eligible_snapshots():
/// keeps the replicas of the requested role (`prefill` true = prefill pool,
/// false = decode pool). For the decode pool a positive `decode_admit_tokens`
/// prefers replicas within the outstanding-token cap and falls back to the
/// whole pool when every member is over it (admission control must not
/// strand a handoff). May return empty -- the caller decides whether to fall
/// back to a less-filtered view before declaring the pool gone. Order and
/// `replica` indices are preserved.
[[nodiscard]] std::vector<ReplicaSnapshot> pool_snapshots(
    const std::vector<ReplicaSnapshot>& all, bool prefill,
    std::int64_t decode_admit_tokens = 0);

}  // namespace monde::serve
