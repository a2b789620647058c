#include "gpukernels/gemm_mainloop.h"

#include "common/error.h"
#include "gpusim/access_site.h"

namespace ksum::gpukernels {
namespace {

// One rank-tileK update: every warp reads its A/B operands for step k
// through the bank model and feeds the micro² per-thread FMAs.
void rank_update_step(gpusim::BlockContext& ctx, const MainloopConfig& config,
                      const OperandOffsetTable& offsets,
                      gpusim::SharedAddr a_base, gpusim::SharedAddr b_base,
                      int k, BlockAccumulators& acc) {
  const TileGeometry& g = config.geometry;
  const std::size_t micro2 = static_cast<std::size_t>(g.micro * g.micro);
  const gpusim::SharedAddr step =
      kSmemRowBytes * static_cast<gpusim::SharedAddr>(k);
  for (int warp = 0; warp < g.warps(); ++warp) {
    OperandLanes a_ops{};
    OperandLanes b_ops{};

    for (int u = 0; u < g.micro; ++u) {
      gpusim::SharedWarpAccess access;
      access.site = KSUM_ACCESS_SITE("mainloop A operand load");
      access.warp = warp;
      const gpusim::SharedAddr* offset =
          offsets.a.data() + operand_slot(g, warp, u, 0);
      for (int lane = 0; lane < 32; ++lane) {
        access.set_lane(lane, a_base + step + offset[lane]);
      }
      const auto vals = ctx.smem().load_warp(access);
      for (int lane = 0; lane < 32; ++lane) {
        a_ops[static_cast<std::size_t>(lane)][static_cast<std::size_t>(u)] =
            vals[static_cast<std::size_t>(lane)];
      }
    }
    for (int t = 0; t < g.micro; ++t) {
      gpusim::SharedWarpAccess access;
      access.site = KSUM_ACCESS_SITE("mainloop B operand load");
      access.warp = warp;
      const gpusim::SharedAddr* offset =
          offsets.b.data() + operand_slot(g, warp, t, 0);
      for (int lane = 0; lane < 32; ++lane) {
        access.set_lane(lane, b_base + step + offset[lane]);
      }
      const auto vals = ctx.smem().load_warp(access);
      for (int lane = 0; lane < 32; ++lane) {
        b_ops[static_cast<std::size_t>(lane)][static_cast<std::size_t>(t)] =
            vals[static_cast<std::size_t>(lane)];
      }
    }

    for (int lane = 0; lane < 32; ++lane) {
      const std::size_t tid = static_cast<std::size_t>(warp * 32 + lane);
      float* microtile = acc.data() + tid * micro2;
      for (int u = 0; u < g.micro; ++u) {
        const float aval =
            a_ops[static_cast<std::size_t>(lane)][static_cast<std::size_t>(u)];
        for (int t = 0; t < g.micro; ++t) {
          microtile[u * g.micro + t] +=
              aval * b_ops[static_cast<std::size_t>(lane)]
                          [static_cast<std::size_t>(t)];
        }
      }
    }
    ctx.count_fma(static_cast<std::uint64_t>(g.micro * g.micro * 32));
    ctx.count_alu(32);  // loop/address bookkeeping of the steady state
  }
}

void compute_tile(gpusim::BlockContext& ctx, const MainloopConfig& config,
                  const OperandOffsetTable& offsets,
                  gpusim::SharedAddr a_base, gpusim::SharedAddr b_base,
                  BlockAccumulators& acc) {
  for (int k = 0; k < config.geometry.tile_k; ++k) {
    rank_update_step(ctx, config, offsets, a_base, b_base, k, acc);
  }
}

}  // namespace

OperandOffsetTable make_operand_offsets(TileLayout layout,
                                        const TileGeometry& g) {
  const std::size_t slots =
      static_cast<std::size_t>(g.warps() * g.micro) * 32;
  OperandOffsetTable table{std::vector<gpusim::SharedAddr>(slots),
                           std::vector<gpusim::SharedAddr>(slots)};
  for (int warp = 0; warp < g.warps(); ++warp) {
    for (int u = 0; u < g.micro; ++u) {
      for (int lane = 0; lane < 32; ++lane) {
        const int tid = warp * 32 + lane;
        const std::size_t slot = operand_slot(g, warp, u, lane);
        table.a[slot] = operand_offset(layout, g, g.block_y,
                                       thread_ty(tid, g), u, 0);
        table.b[slot] = operand_offset(layout, g, g.block_x,
                                       thread_tx(tid, g), u, 0);
      }
    }
  }
  return table;
}

SmemMap make_smem_map(const TileGeometry& g, bool double_buffer) {
  SmemMap m;
  const auto ta = static_cast<gpusim::SharedAddr>(g.tile_a_bytes());
  const auto tb = static_cast<gpusim::SharedAddr>(g.tile_b_bytes());
  m.a0 = 0;
  if (double_buffer) {
    m.a1 = ta;
    m.b0 = 2 * ta;
    m.b1 = 2 * ta + tb;
    m.norm_a = 2 * ta + 2 * tb;
  } else {
    // A1 aliases B0: the fused epilogue only uses it as reduction scratch,
    // after the main loop has consumed the tiles.
    m.a1 = ta;
    m.b0 = ta;
    m.b1 = ta + tb;  // unused in single-buffer mode
    m.norm_a = ta + tb;
  }
  m.norm_b =
      m.norm_a + static_cast<gpusim::SharedAddr>(g.tile_m) * 4;
  m.weights =
      m.norm_b + static_cast<gpusim::SharedAddr>(g.tile_n) * 4;
  return m;
}

void run_gemm_mainloop(gpusim::BlockContext& ctx, const TileSource& a,
                       const TileSource& b, std::size_t k_total,
                       const MainloopConfig& config, const SmemMap& smem,
                       BlockAccumulators& acc,
                       TrackNormAccumulators* a_norms,
                       TrackNormAccumulators* b_norms) {
  const TileGeometry& g = config.geometry;
  KSUM_REQUIRE(k_total % static_cast<std::size_t>(g.tile_k) == 0,
               "K must be a multiple of " + std::to_string(g.tile_k));
  KSUM_CHECK(acc.size() == static_cast<std::size_t>(g.threads()) *
                               static_cast<std::size_t>(g.micro * g.micro));
  const std::size_t iters = k_total / static_cast<std::size_t>(g.tile_k);
  const int lw = g.loader_warps();
  const OperandOffsetTable offsets = make_operand_offsets(config.layout, g);

  if (config.double_buffer) {
    // Algorithm 2: prologue load, then each iteration prefetches tile i+1
    // into the other buffer while computing tile i, one barrier apiece.
    ctx.phase("prologue");
    load_tile(ctx, g, a, 0, smem.a0, config.layout, /*warp_base=*/0,
              g.tile_m, a_norms);
    load_tile(ctx, g, b, 0, smem.b0, config.layout, /*warp_base=*/lw,
              g.tile_n, b_norms);
    ctx.barrier();
    ctx.phase("mainloop");
    for (std::size_t i = 0; i < iters; ++i) {
      const bool even = (i % 2 == 0);
      const gpusim::SharedAddr a_cur = even ? smem.a0 : smem.a1;
      const gpusim::SharedAddr b_cur = even ? smem.b0 : smem.b1;
      if (i + 1 < iters) {
        const gpusim::SharedAddr a_next = even ? smem.a1 : smem.a0;
        const gpusim::SharedAddr b_next = even ? smem.b1 : smem.b0;
        load_tile(ctx, g, a, (i + 1) * static_cast<std::size_t>(g.tile_k),
                  a_next, config.layout, 0, g.tile_m, a_norms);
        load_tile(ctx, g, b, (i + 1) * static_cast<std::size_t>(g.tile_k),
                  b_next, config.layout, lw, g.tile_n, b_norms);
      }
      compute_tile(ctx, config, offsets, a_cur, b_cur, acc);
      ctx.barrier();
    }
  } else {
    // Single-buffered ablation: load/compute strictly alternate and every
    // iteration pays two barriers. The tile loads are part of the steady
    // state here, so the whole loop is the main loop phase.
    ctx.phase("mainloop");
    for (std::size_t i = 0; i < iters; ++i) {
      load_tile(ctx, g, a, i * static_cast<std::size_t>(g.tile_k), smem.a0,
                config.layout, 0, g.tile_m, a_norms);
      load_tile(ctx, g, b, i * static_cast<std::size_t>(g.tile_k), smem.b0,
                config.layout, lw, g.tile_n, b_norms);
      ctx.barrier();
      compute_tile(ctx, config, offsets, smem.a0, smem.b0, acc);
      ctx.barrier();
    }
  }
}

}  // namespace ksum::gpukernels
