// Global-load/store coalescing unit.
//
// A warp request is broken into the set of distinct 32-byte sectors the
// active lanes touch — that set is exactly the stream of L2 transactions the
// request generates (nvprof's gld/gst transaction counters work the same
// way). Fully coalesced float accesses produce 4 sectors per warp; float4
// accesses produce 16.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "gpusim/address.h"

namespace ksum::gpusim {

/// Widest per-lane global access the coalescer services (float4).
inline constexpr int kMaxGlobalWidthBytes = 16;

/// Fixed-capacity stack list of the sectors one warp request touches: at
/// most 32 lanes × 4 words, so collecting never allocates.
class SectorList {
 public:
  static constexpr std::size_t kCapacity =
      kWarpSize * (kMaxGlobalWidthBytes / 4);

  const GlobalAddr* begin() const { return items_.data(); }
  const GlobalAddr* end() const { return items_.data() + size_; }
  std::size_t size() const { return size_; }

 private:
  friend class Coalescer;

  std::array<GlobalAddr, kCapacity> items_;  // only [0, size_) is written
  std::size_t size_ = 0;
};

class Coalescer {
 public:
  /// `sector_bytes` must be at least one 4-byte word.
  explicit Coalescer(int sector_bytes);

  /// Replaces `out` with the distinct sector base addresses touched by the
  /// access, sorted ascending — the order the L2 sees them in, which its LRU
  /// state (and hence every counter) depends on. Allocation-free; the access
  /// width must be a multiple of 4 of at most kMaxGlobalWidthBytes.
  void collect(const GlobalWarpAccess& access, SectorList& out) const;

  /// collect() into a vector (tests and host-side tooling).
  std::vector<GlobalAddr> sectors_for(const GlobalWarpAccess& access) const;

  /// Minimum sectors that could service the access if its distinct bytes
  /// were densely packed — the coalescing lint's per-request ideal. A fully
  /// coalesced float access needs 4, a float4 access 16; a 128-byte-strided
  /// scalar access still needs only 4 under this ideal but generates 32
  /// sectors, which is exactly the gap the lint reports.
  int ideal_sectors_for(const GlobalWarpAccess& access) const;

  int sector_bytes() const { return sector_bytes_; }

 private:
  int sector_bytes_;
};

}  // namespace ksum::gpusim
