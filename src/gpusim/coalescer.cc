#include "gpusim/coalescer.h"

#include <algorithm>
#include <array>
#include <cstddef>

#include "common/error.h"

namespace ksum::gpusim {

namespace {

// Appends `value` unless it repeats the last entry; clears `sorted` when it
// arrives below that entry. Lanes of real kernels mostly walk addresses
// upwards, so the list usually comes out strictly ascending already.
void push_distinct(GlobalAddr* items, std::size_t& n, GlobalAddr value,
                   bool& sorted) {
  if (n > 0) {
    if (value == items[n - 1]) return;
    if (value < items[n - 1]) sorted = false;
  }
  items[n++] = value;
}

// Sorts and dedups [items, items+n) only if lanes arrived out of order;
// returns the new length.
std::size_t sort_unique(GlobalAddr* items, std::size_t n, bool sorted) {
  if (sorted) return n;
  std::sort(items, items + n);
  return static_cast<std::size_t>(std::unique(items, items + n) - items);
}

void check_width(const GlobalWarpAccess& access) {
  KSUM_CHECK_MSG(access.width_bytes >= 0 &&
                     access.width_bytes <= kMaxGlobalWidthBytes &&
                     access.width_bytes % 4 == 0,
                 "global access width must be 0..16 bytes in whole words");
}

}  // namespace

Coalescer::Coalescer(int sector_bytes) : sector_bytes_(sector_bytes) {
  KSUM_REQUIRE(sector_bytes >= 4, "a sector must hold at least one word");
}

void Coalescer::collect(const GlobalWarpAccess& access,
                        SectorList& out) const {
  check_width(access);
  out.size_ = 0;
  if (access.width_bytes == 0) return;
  const auto sector = static_cast<GlobalAddr>(sector_bytes_);
  const auto last_piece = static_cast<GlobalAddr>(access.width_bytes - 4);
  std::array<GlobalAddr, kWarpSize> addr;
  const std::size_t lanes = active_addresses(access, addr);
  GlobalAddr* items = out.items_.data();
  std::size_t n = 0;
  bool sorted = true;
  for (std::size_t i = 0; i < lanes; ++i) {
    KSUM_DCHECK(addr[i] % 4 == 0);
    // The lane's words are contiguous and a sector holds at least one word,
    // so the lane touches every sector from that of its first word up to
    // its last word.
    for (GlobalAddr s = addr[i] / sector * sector; s <= addr[i] + last_piece;
         s += sector) {
      push_distinct(items, n, s, sorted);
    }
  }
  out.size_ = sort_unique(items, n, sorted);
}

std::vector<GlobalAddr> Coalescer::sectors_for(
    const GlobalWarpAccess& access) const {
  SectorList sectors;
  collect(access, sectors);
  return {sectors.begin(), sectors.end()};
}

int Coalescer::ideal_sectors_for(const GlobalWarpAccess& access) const {
  // Distinct words touched (lanes may overlap under broadcast), packed into
  // as few sectors as arithmetic allows.
  check_width(access);
  std::array<GlobalAddr, kWarpSize> addr;
  const std::size_t lanes = active_addresses(access, addr);
  std::array<GlobalAddr, SectorList::kCapacity> words;
  std::size_t n = 0;
  bool sorted = true;
  for (std::size_t i = 0; i < lanes; ++i) {
    for (int piece = 0; piece < access.width_bytes; piece += 4) {
      push_distinct(words.data(), n,
                    (addr[i] + static_cast<GlobalAddr>(piece)) / 4, sorted);
    }
  }
  n = sort_unique(words.data(), n, sorted);
  const auto sector = static_cast<std::size_t>(sector_bytes_);
  return static_cast<int>((n * 4 + sector - 1) / sector);
}

}  // namespace ksum::gpusim
