#include "ndp/layout.hpp"

#include <bit>

#include "common/error.hpp"

namespace monde::ndp {

PartitionLayout::PartitionLayout(const dram::Spec& spec, const dram::AddressMapper& mapper,
                                 Partition part)
    : spec_{&spec}, part_{part}, offset_bits_{mapper.offset_bits()} {
  MONDE_REQUIRE(spec.org.banks_per_group % 2 == 0,
                "bank partitioning needs an even number of banks per group");
  const auto& org = spec.org;
  // Every dimension is a power of two (Spec::validate), so log2 of the
  // product is the bit width of the fields below the bank.
  parity_shift_ = std::countr_zero(static_cast<std::uint64_t>(org.channels) *
                                   static_cast<std::uint64_t>(org.columns) *
                                   static_cast<std::uint64_t>(org.ranks) *
                                   static_cast<std::uint64_t>(org.bankgroups));
  block_count_ = static_cast<std::uint64_t>(org.channels) *
                 static_cast<std::uint64_t>(org.columns) *
                 static_cast<std::uint64_t>(org.ranks) *
                 static_cast<std::uint64_t>(org.bankgroups) *
                 static_cast<std::uint64_t>(org.banks_per_group / 2) *
                 static_cast<std::uint64_t>(org.rows);
}

Bytes PartitionLayout::capacity() const {
  return Bytes{block_count_ * static_cast<std::uint64_t>(spec_->org.access_bytes)};
}

std::uint64_t PartitionLayout::block_address(std::uint64_t index) const {
  MONDE_REQUIRE(index < block_count_, "partition block index out of range");
  // Enumerate channel fastest -> column -> rank -> bank group -> bank pair ->
  // row slowest. This mirrors the ro-ba-bg-ra-co-ch physical order with the
  // bank LSB pinned to the partition parity, so contiguous logical blocks
  // stripe across all channels and open rows stay hot for whole sweeps.
  // Because the logical order is the physical bit order with the parity bit
  // removed, the mapping is a bit splice rather than a div/mod decomposition.
  const std::uint64_t low_mask = (std::uint64_t{1} << parity_shift_) - 1;
  const std::uint64_t parity = part_ == Partition::kActivations ? 1 : 0;
  const std::uint64_t v = (index & low_mask) | (parity << parity_shift_) |
                          ((index & ~low_mask) << 1);
  return v << offset_bits_;
}

std::uint64_t PartitionLayout::blocks_for(Bytes bytes) const {
  const auto gran = static_cast<std::uint64_t>(spec_->org.access_bytes);
  return (bytes.count() + gran - 1) / gran;
}

}  // namespace monde::ndp
