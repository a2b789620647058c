// Address types and warp-access descriptors for the simulated device.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace ksum::gpusim {

/// Byte address in the simulated global memory space.
using GlobalAddr = std::uint64_t;

/// Byte offset within a CTA's shared memory allocation.
using SharedAddr = std::uint32_t;

/// Identifier of a static access site (a KSUM_ACCESS_SITE expansion in a
/// kernel body). 0 means "untagged"; see gpusim/access_site.h.
using SiteId = std::uint32_t;

inline constexpr int kWarpSize = 32;

/// One warp-wide memory request: a byte address per lane plus an active mask.
/// `width_bytes` is the per-lane access width (4 for float, 16 for float4).
///
/// `site` and `warp` exist for the static-analysis layer: `site` attributes
/// the request to the source line that built it, and `warp` is the issuing
/// warp's index within the CTA so lane ↦ thread identity survives into the
/// race detector. Neither affects functional execution or the counters.
template <typename Addr>
struct WarpAccess {
  std::array<Addr, kWarpSize> addr{};
  std::uint32_t active_mask = 0xffffffffu;
  int width_bytes = 4;
  SiteId site = 0;
  int warp = -1;

  bool lane_active(int lane) const {
    return (active_mask >> lane) & 1u;
  }
  void set_lane(int lane, Addr a) {
    addr[static_cast<std::size_t>(lane)] = a;
  }
  /// CTA-relative thread id of `lane` (lane itself when the kernel did not
  /// model a warp index).
  int thread_of_lane(int lane) const {
    return (warp < 0 ? 0 : warp * kWarpSize) + lane;
  }
};

/// Copies the addresses of the active lanes, in lane order, to the front of
/// `out` and returns how many there are. A full warp is a straight copy.
template <typename Addr, typename Out>
std::size_t active_addresses(const WarpAccess<Addr>& access,
                             std::array<Out, kWarpSize>& out) {
  if (access.active_mask == 0xffffffffu) {
    for (std::size_t lane = 0; lane < kWarpSize; ++lane) {
      out[lane] = access.addr[lane];
    }
    return kWarpSize;
  }
  std::size_t n = 0;
  for (std::uint32_t mask = access.active_mask; mask != 0; mask &= mask - 1) {
    out[n++] = access.addr[static_cast<std::size_t>(std::countr_zero(mask))];
  }
  return n;
}

using GlobalWarpAccess = WarpAccess<GlobalAddr>;
using SharedWarpAccess = WarpAccess<SharedAddr>;

}  // namespace ksum::gpusim
