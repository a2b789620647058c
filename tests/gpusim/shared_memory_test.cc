#include "gpusim/shared_memory.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"

namespace ksum::gpusim {
namespace {

SharedWarpAccess all_lanes(std::uint32_t (*addr_of)(int lane)) {
  SharedWarpAccess a;
  for (int l = 0; l < 32; ++l) a.set_lane(l, addr_of(l));
  return a;
}

TEST(SharedMemoryTest, ConsecutiveWordsAreOneTransaction) {
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 4); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
}

TEST(SharedMemoryTest, BroadcastSameWordIsOneTransaction) {
  const auto a = all_lanes([](int) { return std::uint32_t(64); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
}

TEST(SharedMemoryTest, PartialBroadcastWithinRowIsOneTransaction) {
  // Half the lanes read word 0, half read word 5 — same 128-byte row.
  const auto a =
      all_lanes([](int l) { return std::uint32_t(l < 16 ? 0 : 20); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
}

TEST(SharedMemoryTest, SameBankDifferentRowsConflict) {
  // All lanes hit bank 0 in distinct rows: 32 transactions (the paper's
  // row-select rule: replay per distinct 128-byte row).
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 128); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 32);
}

TEST(SharedMemoryTest, StrideTwoWordsSpansTwoRows) {
  // Words 0,2,4,...,62: rows 0 and 1 → 2 transactions.
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 8); });
  EXPECT_EQ(SharedMemory::transactions_for(a), 2);
}

TEST(SharedMemoryTest, InactiveLanesDoNotCount) {
  SharedWarpAccess a;
  a.active_mask = 0x1;
  a.set_lane(0, 0);
  // Lane 5 has a wild address but is inactive.
  a.set_lane(5, 12800);
  EXPECT_EQ(SharedMemory::transactions_for(a), 1);
  SharedWarpAccess none;
  none.active_mask = 0;
  EXPECT_EQ(SharedMemory::transactions_for(none), 0);
}

TEST(SharedMemoryTest, IdealTransactionsByWidth) {
  SharedWarpAccess scalar;
  EXPECT_EQ(SharedMemory::ideal_transactions_for(scalar), 1);
  SharedWarpAccess vec4;
  vec4.width_bytes = 16;
  EXPECT_EQ(SharedMemory::ideal_transactions_for(vec4), 4);
}

TEST(SharedMemoryTest, LoadStoreRoundTrip) {
  Counters counters;
  SharedMemory smem(4096, &counters);
  SharedWarpAccess a = all_lanes([](int l) { return std::uint32_t(l * 4); });
  std::array<float, 32> values{};
  for (int l = 0; l < 32; ++l) values[std::size_t(l)] = float(l) * 1.5f;
  smem.store_warp(a, values);
  const auto loaded = smem.load_warp(a);
  for (int l = 0; l < 32; ++l) {
    EXPECT_EQ(loaded[std::size_t(l)], float(l) * 1.5f);
  }
  EXPECT_EQ(counters.smem_store_requests, 1u);
  EXPECT_EQ(counters.smem_load_requests, 1u);
  EXPECT_EQ(counters.smem_store_transactions, 1u);
  EXPECT_EQ(counters.smem_load_transactions, 1u);
  EXPECT_EQ(counters.smem_bank_conflicts, 0u);
}

TEST(SharedMemoryTest, ConflictsCountedAsExcessTransactions) {
  Counters counters;
  SharedMemory smem(128 * 32 * 4, &counters);
  // 4 distinct rows, same bank per group.
  const auto a = all_lanes([](int l) { return std::uint32_t((l % 4) * 128); });
  smem.load_warp(a);
  EXPECT_EQ(counters.smem_load_transactions, 4u);
  EXPECT_EQ(counters.smem_bank_conflicts, 3u);
}

TEST(SharedMemoryTest, OutOfBoundsAccessIsCaught) {
  Counters counters;
  SharedMemory smem(256, &counters);
  const auto a = all_lanes([](int l) { return std::uint32_t(l * 4 + 192); });
  EXPECT_THROW(smem.load_warp(a), InternalError);
}

TEST(SharedMemoryTest, AddressNearTopOfRangeDoesNotWrapTheBoundsCheck) {
  // 0xFFFFFFFC + 4 wraps to 0 in 32-bit arithmetic; the bound must still
  // reject the lane instead of indexing far past the allocation.
  Counters counters;
  SharedMemory smem(256, &counters);
  SharedWarpAccess a;
  a.active_mask = 1;
  a.set_lane(0, 0xFFFFFFFCu);
  EXPECT_THROW(smem.load_warp(a), InternalError);
  EXPECT_THROW(smem.store_warp(a, {}), InternalError);
  EXPECT_THROW(smem.peek(0xFFFFFFFCu), InternalError);
}

TEST(SharedMemoryTest, FirstOffendingLaneDecidesTheError) {
  // Lane 0 is out of bounds, lane 1 misaligned: the bounds error wins, as
  // it would checking lane by lane.
  Counters counters;
  SharedMemory smem(256, &counters);
  SharedWarpAccess a;
  a.active_mask = 0b11;
  a.set_lane(0, 256);
  a.set_lane(1, 2);
  try {
    smem.load_warp(a);
    FAIL() << "expected a bounds error";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("out of the CTA allocation"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(counters.smem_load_requests, 0u);
}

TEST(SharedMemoryTest, MisalignedAccessIsCaught) {
  Counters counters;
  SharedMemory smem(256, &counters);
  SharedWarpAccess a;
  a.active_mask = 1;
  a.set_lane(0, 2);
  EXPECT_THROW(smem.load_warp(a), InternalError);
}

TEST(SharedMemoryTest, PoisonFillsNaN) {
  Counters counters;
  SharedMemory smem(64, &counters);
  smem.poison();
  EXPECT_TRUE(std::isnan(smem.peek(0)));
  EXPECT_TRUE(std::isnan(smem.peek(60)));
}

TEST(SharedMemoryTest, SizeRoundsUpToWords) {
  Counters counters;
  SharedMemory smem(10, &counters);
  EXPECT_GE(smem.size_bytes(), 10u);
  EXPECT_EQ(smem.size_bytes() % 4, 0u);
}

}  // namespace
}  // namespace ksum::gpusim
