#include "gpusim/shared_memory.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <limits>

#include "common/error.h"
#include "common/math_util.h"

namespace ksum::gpusim {

namespace {
constexpr std::uint32_t kRowBytes = 128;  // 32 banks × 4 bytes
}

SharedMemory::SharedMemory(std::uint32_t size_bytes, Counters* counters,
                           FaultInjector* injector)
    : data_(ceil_div<std::uint32_t>(size_bytes, 4), 0.0f),
      counters_(counters),
      injector_(injector) {
  KSUM_CHECK(counters_ != nullptr);
}

void SharedMemory::check_access(const SharedWarpAccess& access) const {
  KSUM_REQUIRE(access.width_bytes == 4,
               "shared memory model currently services 4-byte lanes; express "
               "float4 as four accesses (the kernels do)");
  // One branch-free pass: the OR of the addresses catches any misaligned
  // lane, the max any lane past the allocation (compared in size_t, so an
  // address near 2^32 cannot wrap the bound).
  std::array<SharedAddr, kWarpSize> addr;
  const std::size_t n = active_addresses(access, addr);
  if (n == 0) return;
  SharedAddr any_bits = 0;
  SharedAddr highest = 0;
  for (std::size_t i = 0; i < n; ++i) {
    any_bits |= addr[i];
    highest = std::max(highest, addr[i]);
  }
  const std::size_t size = data_.size() * sizeof(float);
  if (any_bits % 4 == 0 && std::size_t{highest} + 4 <= size) return;
  // Something is wrong: report the first offending lane, as a lane-by-lane
  // check would.
  for (std::size_t i = 0; i < n; ++i) {
    KSUM_CHECK_MSG(addr[i] % 4 == 0, "shared access must be 4-byte aligned");
    KSUM_CHECK_MSG(std::size_t{addr[i]} + 4 <= size,
                   "shared access out of the CTA allocation");
  }
}

int SharedMemory::transactions_for(const SharedWarpAccess& access) {
  // Distinct 128-byte rows touched by active lanes. Same word → broadcast
  // (no extra cost); same row, different banks → same transaction; different
  // rows → replay. A lane's words are contiguous, so it touches the run of
  // rows from that of its first word to that of its last one, and the count
  // is the size of the union of those runs.
  if (access.width_bytes <= 0) return 0;
  std::array<std::uint64_t, kWarpSize> addr;
  const std::size_t n = active_addresses(access, addr);
  if (n == 0) return 0;
  const auto end = addr.begin() + static_cast<std::ptrdiff_t>(n);
  // Byte offset of a lane's last word.
  const auto span =
      static_cast<std::uint64_t>((access.width_bytes - 1) / 4 * 4);
  const auto [lowest, highest] = std::minmax_element(addr.begin(), end);
  const std::uint64_t lo_row = *lowest / kRowBytes;
  const std::uint64_t hi_row = (*highest + span) / kRowBytes;
  if (hi_row == lo_row) return 1;  // the conflict-free common case
  // Merge the runs in address order, sorting only if the lanes arrived out
  // of order.
  if (!std::is_sorted(addr.begin(), end)) std::sort(addr.begin(), end);
  std::uint64_t rows = 0;
  std::uint64_t next_uncounted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t first = std::max(addr[i] / kRowBytes, next_uncounted);
    const std::uint64_t last = (addr[i] + span) / kRowBytes;
    if (last >= first) {
      rows += last - first + 1;
      next_uncounted = last + 1;
    }
  }
  return static_cast<int>(rows);
}

int SharedMemory::ideal_transactions_for(const SharedWarpAccess& access) {
  if (access.active_mask == 0) return 0;
  return access.width_bytes / 4 > 0 ? access.width_bytes / 4 : 1;
}

std::array<float, kWarpSize> SharedMemory::load_warp(
    const SharedWarpAccess& access) {
  check_access(access);
  std::array<float, kWarpSize> out{};
  if (access.active_mask == 0) return out;

  const int txns = transactions_for(access);
  const int ideal = ideal_transactions_for(access);
  counters_->smem_load_requests += 1;
  counters_->smem_load_transactions += static_cast<std::uint64_t>(txns);
  counters_->smem_bank_conflicts +=
      static_cast<std::uint64_t>(txns > ideal ? txns - ideal : 0);
  counters_->warp_instructions += 1;
  if (observer_ != nullptr) {
    observer_->on_shared_access({access, AccessKind::kLoad, txns, ideal});
  }

  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    out[static_cast<std::size_t>(lane)] =
        data_[access.addr[static_cast<std::size_t>(lane)] / 4];
  }
  return out;
}

void SharedMemory::store_warp(const SharedWarpAccess& access,
                              const std::array<float, kWarpSize>& values) {
  check_access(access);
  if (access.active_mask == 0) return;

  const int txns = transactions_for(access);
  const int ideal = ideal_transactions_for(access);
  counters_->smem_store_requests += 1;
  counters_->smem_store_transactions += static_cast<std::uint64_t>(txns);
  counters_->smem_bank_conflicts +=
      static_cast<std::uint64_t>(txns > ideal ? txns - ideal : 0);
  counters_->warp_instructions += 1;
  if (observer_ != nullptr) {
    observer_->on_shared_access({access, AccessKind::kStore, txns, ideal});
  }

  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    float value = values[static_cast<std::size_t>(lane)];
    if (injector_ != nullptr) {
      const float stored =
          injector_->corrupt_word(FaultSite::kSharedMemory, value);
      if (std::bit_cast<std::uint32_t>(stored) !=
          std::bit_cast<std::uint32_t>(value)) {
        counters_->faults_smem_bitflips += 1;
        value = stored;
      }
    }
    // Two active lanes writing the same word is a data race on hardware;
    // catching it here has saved every layout bug so far.
    data_[access.addr[static_cast<std::size_t>(lane)] / 4] = value;
  }
}

void SharedMemory::poison() {
  for (auto& w : data_) w = std::numeric_limits<float>::quiet_NaN();
}

float SharedMemory::peek(SharedAddr byte_offset) const {
  KSUM_CHECK(byte_offset % 4 == 0 &&
             std::size_t{byte_offset} + 4 <= data_.size() * sizeof(float));
  return data_[byte_offset / 4];
}

}  // namespace ksum::gpusim
