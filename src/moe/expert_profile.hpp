// Per-request expert profiles for gating-aware serving.
//
// The paper's core observation (§2.2, Figure 3) is that expert routing
// popularity is heavily skewed and STABLE: the experts a request activates
// on its first decode steps are overwhelmingly the experts it keeps
// activating. A compact per-request summary of those experts -- the top
// activated experts per decoder MoE layer -- is therefore a usable routing
// key at the fleet level: a dispatcher can send the request to the replica
// whose resident hot set overlaps it best (serve/dispatch.hpp).
//
// This header deliberately depends on nothing but the standard library:
// moe/ sits below core/ in the layering (core/monde_device.hpp includes
// moe/model_config.hpp), so the profile type the serving stack threads
// through Request, ReplicaSnapshot, and ExpertCache must live here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace monde::moe {

/// Maps an (layer, expert) pair onto one of 64 signature bits. The scramble
/// (a multiply-xorshift of the packed pair) spreads consecutive expert ids
/// across the word so small models do not collide in the low bits. Shared by
/// the profile below and core::ExpertCache's residency signature so overlap
/// popcounts compare like with like.
[[nodiscard]] inline int expert_signature_bit(int layer, int expert) {
  return static_cast<int>(signature_mix(pack_ids(layer, expert)) & 63);
}

/// The top activated experts of one request, derived from its own routing
/// stream (WorkloadGenerator::expert_profile_for) so it is deterministic in
/// (seed, request_id). Entries are layer-major and, within a layer, in
/// descending activation order -- so truncating to the first k entries per
/// layer (the pruned-expert degraded mode) keeps the heaviest experts.
/// `signature` is the OR of each entry's signature bit: a 64-bit Bloom-style
/// summary a dispatcher can intersect with a replica's residency signature
/// in one AND + popcount.
struct ExpertProfile {
  struct Entry {
    int layer = 0;
    int expert = 0;
  };

  std::vector<Entry> experts;   ///< layer-major, descending activation within a layer
  std::uint64_t signature = 0;  ///< OR of expert_signature_bit over `experts`

  [[nodiscard]] bool empty() const { return experts.empty(); }

  /// Recompute `signature` from `experts` (after truncation/pruning).
  void rebuild_signature() {
    signature = 0;
    for (const Entry& e : experts) {
      signature |= std::uint64_t{1} << expert_signature_bit(e.layer, e.expert);
    }
  }

  /// Keep the `width` heaviest experts of each layer (the pruned-expert
  /// degraded mode). Returns true if the profile shrank.
  bool truncate_per_layer(int width) {
    std::vector<Entry> kept;
    kept.reserve(experts.size());
    int run = 0;
    for (std::size_t i = 0; i < experts.size(); ++i) {
      run = i > 0 && experts[i].layer == experts[i - 1].layer ? run + 1 : 0;
      if (run < width) kept.push_back(experts[i]);
    }
    if (kept.size() == experts.size()) return false;
    experts = std::move(kept);
    rebuild_signature();
    return true;
  }
};

}  // namespace monde::moe
