// Differential tests of the allocation-free memory-model paths against the
// obvious reference implementations: Coalescer::collect / sectors_for vs a
// sort+unique over every touched word's sector, and
// SharedMemory::transactions_for vs a std::set of touched 128-byte rows.
// Seeded random accesses cover random and empty masks, widths 4 and 16,
// ascending, reversed and shuffled lanes, broadcast and 128-byte strides.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "common/error.h"
#include "gpusim/coalescer.h"
#include "gpusim/shared_memory.h"

namespace ksum::gpusim {
namespace {

enum class Pattern { kRandom, kClustered, kAscending, kReversed, kShuffled,
                     kBroadcast, kStride128 };
constexpr Pattern kPatterns[] = {
    Pattern::kRandom,   Pattern::kClustered, Pattern::kAscending,
    Pattern::kReversed, Pattern::kShuffled,  Pattern::kBroadcast,
    Pattern::kStride128};

std::uint32_t random_mask(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return 0;
    case 1:
      return 0xffffffffu;
    default:
      return static_cast<std::uint32_t>(rng());
  }
}

// Per-lane byte addresses for `pattern` below `span`: random lanes are only
// word-aligned, so wide lanes can straddle sectors and rows — anywhere in
// the span, or clustered within 2 KB of the base (16 shared-memory rows);
// the structured patterns start from a random width-aligned base.
template <typename Addr>
std::array<Addr, kWarpSize> lane_addresses(std::mt19937_64& rng,
                                           Pattern pattern, int width,
                                           Addr span) {
  const auto w = static_cast<Addr>(width);
  const Addr base = static_cast<Addr>(rng() % (span / 2)) / w * w;
  std::array<Addr, kWarpSize> addr{};
  for (int lane = 0; lane < kWarpSize; ++lane) {
    const auto l = static_cast<Addr>(lane);
    switch (pattern) {
      case Pattern::kRandom:
        addr[static_cast<std::size_t>(lane)] =
            static_cast<Addr>(rng() % (span / 2)) / 4 * 4;
        break;
      case Pattern::kClustered:
        addr[static_cast<std::size_t>(lane)] =
            base + static_cast<Addr>(rng() % 2048) / 4 * 4;
        break;
      case Pattern::kAscending:
      case Pattern::kShuffled:
        addr[static_cast<std::size_t>(lane)] = base + l * w;
        break;
      case Pattern::kReversed:
        addr[static_cast<std::size_t>(lane)] =
            base + static_cast<Addr>(kWarpSize - 1 - lane) * w;
        break;
      case Pattern::kBroadcast:
        addr[static_cast<std::size_t>(lane)] = base;
        break;
      case Pattern::kStride128:
        addr[static_cast<std::size_t>(lane)] = base + l * 128;
        break;
    }
  }
  if (pattern == Pattern::kShuffled) {
    std::shuffle(addr.begin(), addr.end(), rng);
  }
  return addr;
}

std::vector<GlobalAddr> reference_sectors(const GlobalWarpAccess& access,
                                          GlobalAddr sector) {
  std::vector<GlobalAddr> out;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    for (int piece = 0; piece < access.width_bytes; piece += 4) {
      const GlobalAddr byte = access.addr[static_cast<std::size_t>(lane)] +
                              static_cast<GlobalAddr>(piece);
      out.push_back(byte / sector * sector);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int reference_ideal_sectors(const GlobalWarpAccess& access, int sector) {
  std::set<GlobalAddr> words;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    for (int piece = 0; piece < access.width_bytes; piece += 4) {
      words.insert((access.addr[static_cast<std::size_t>(lane)] +
                    static_cast<GlobalAddr>(piece)) /
                   4);
    }
  }
  return static_cast<int>((words.size() * 4 + static_cast<std::size_t>(sector) -
                           1) /
                          static_cast<std::size_t>(sector));
}

int reference_rows(const SharedWarpAccess& access) {
  std::set<std::uint32_t> rows;
  for (int lane = 0; lane < kWarpSize; ++lane) {
    if (!access.lane_active(lane)) continue;
    for (int piece = 0; piece < access.width_bytes; piece += 4) {
      rows.insert((access.addr[static_cast<std::size_t>(lane)] +
                   static_cast<std::uint32_t>(piece)) /
                  128);
    }
  }
  return static_cast<int>(rows.size());
}

TEST(FastPathDiffTest, CoalescerMatchesSortUniqueReference) {
  std::mt19937_64 rng(20160816);
  for (const int sector : {4, 24, 32, 64}) {
    const Coalescer coalescer(sector);
    SectorList reused;  // collect must fully replace earlier contents
    for (const Pattern pattern : kPatterns) {
      for (const int width : {4, 16}) {
        for (int trial = 0; trial < 200; ++trial) {
          GlobalWarpAccess access;
          access.width_bytes = width;
          access.active_mask = random_mask(rng);
          access.addr = lane_addresses<GlobalAddr>(rng, pattern, width,
                                                   GlobalAddr{1} << 24);
          const auto expected =
              reference_sectors(access, static_cast<GlobalAddr>(sector));
          coalescer.collect(access, reused);
          ASSERT_EQ(std::vector<GlobalAddr>(reused.begin(), reused.end()),
                    expected)
              << "sector " << sector << " width " << width << " trial "
              << trial;
          ASSERT_EQ(coalescer.sectors_for(access), expected);
          ASSERT_EQ(coalescer.ideal_sectors_for(access),
                    reference_ideal_sectors(access, sector));
        }
      }
    }
  }
}

TEST(FastPathDiffTest, CoalescerRejectsShapesBeyondItsCapacity) {
  const Coalescer coalescer(32);
  GlobalWarpAccess access;
  access.width_bytes = 32;
  SectorList sectors;
  EXPECT_THROW(coalescer.collect(access, sectors), InternalError);
  EXPECT_THROW(Coalescer(2), Error);  // narrower than a word
}

TEST(FastPathDiffTest, BankModelMatchesRowSetReference) {
  std::mt19937_64 rng(19700101);
  for (const Pattern pattern : kPatterns) {
    for (const int width : {4, 16}) {
      for (int trial = 0; trial < 500; ++trial) {
        SharedWarpAccess access;
        access.width_bytes = width;
        access.active_mask = random_mask(rng);
        access.addr = lane_addresses<SharedAddr>(rng, pattern, width,
                                                 SharedAddr{1} << 16);
        ASSERT_EQ(SharedMemory::transactions_for(access),
                  reference_rows(access))
            << "width " << width << " trial " << trial;
      }
    }
  }
}

TEST(FastPathDiffTest, BankModelCountsWideLanesSpanningRows) {
  // A 16-byte lane at byte 120 straddles rows 0 and 1; a 256-byte lane
  // covers three rows from byte 64.
  SharedWarpAccess access;
  access.active_mask = 1;
  access.width_bytes = 16;
  access.set_lane(0, 120);
  EXPECT_EQ(SharedMemory::transactions_for(access), reference_rows(access));
  EXPECT_EQ(SharedMemory::transactions_for(access), 2);
  access.width_bytes = 256;
  access.set_lane(0, 64);
  EXPECT_EQ(SharedMemory::transactions_for(access), reference_rows(access));
  EXPECT_EQ(SharedMemory::transactions_for(access), 3);
}

}  // namespace
}  // namespace ksum::gpusim
