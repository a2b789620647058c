// The shared rank-tileK-update main loop (Algorithm 2 lines 5–13), used by
// both the standalone CUDA-C GEMM and the fused kernel summation.
//
// Functional execution keeps each thread's micro×micro microtileC in
// BlockAccumulators (the stand-in for the accumulator registers);
// operand fetches go through the shared-memory bank model so conflicts are
// counted, and tile loads go through the coalescer/L2.
#pragma once

#include <vector>

#include "gpukernels/smem_layout.h"
#include "gpukernels/tile_loader.h"
#include "gpusim/device.h"

namespace ksum::gpukernels {

struct MainloopConfig {
  TileLayout layout = TileLayout::kFig5;
  /// Double buffering (paper §III-A): tiles i and i+1 live in alternating
  /// buffers and each iteration needs a single barrier. The single-buffered
  /// ablation needs two barriers per iteration and halves the smem budget.
  bool double_buffer = true;
  /// Runtime blocking. Defaults to the paper's 128×128/16×16/8×8 operating
  /// point; the autotuner (src/tune/) substitutes validated alternatives.
  TileGeometry geometry;
};

/// Byte offsets of the shared-memory regions within the CTA allocation.
struct SmemMap {
  gpusim::SharedAddr a0 = 0;
  gpusim::SharedAddr a1 = kTileBytes;
  gpusim::SharedAddr b0 = 2 * kTileBytes;
  gpusim::SharedAddr b1 = 3 * kTileBytes;
  // Fused-kernel extras (beyond the GEMM's 16 KB).
  gpusim::SharedAddr norm_a = 4 * kTileBytes;
  gpusim::SharedAddr norm_b = 4 * kTileBytes + kTileM * 4;
  gpusim::SharedAddr weights = 4 * kTileBytes + 2 * kTileM * 4;
};

/// Lays the regions out for an arbitrary geometry. Double-buffered:
/// A0|A1|B0|B1|extras. Single-buffered: A0|B0|extras with A1 aliasing B0
/// (the fused epilogue's scratch halves reuse A0/A1 after the main loop is
/// done with the tiles). The default-constructed SmemMap equals
/// make_smem_map(TileGeometry{}, true).
SmemMap make_smem_map(const TileGeometry& g, bool double_buffer);

/// Per-CTA accumulator state: acc[tid][u*micro + t] is element (u, t) of
/// thread tid's microtileC.
using BlockAccumulators = std::vector<float>;

inline BlockAccumulators make_accumulators(
    const TileGeometry& g = TileGeometry{}) {
  return BlockAccumulators(static_cast<std::size_t>(g.threads()) *
                               static_cast<std::size_t>(g.micro * g.micro),
                           0.0f);
}

/// Thread coordinates used throughout the kernels.
inline int thread_tx(int tid, const TileGeometry& g = TileGeometry{}) {
  return tid % g.block_x;
}
inline int thread_ty(int tid, const TileGeometry& g = TileGeometry{}) {
  return tid / g.block_x;
}

/// Step-0 shared-memory offsets of every compute-phase operand read of one
/// CTA, built from operand_offset: entry operand_slot(g, warp, u, lane) of
/// `a` is operand u of the lane's microtile row (ty) in tileA, of `b`
/// operand u of its microtile column (tx) in tileB. Main-loop step k reads
/// offset + kSmemRowBytes·k.
struct OperandOffsetTable {
  std::vector<gpusim::SharedAddr> a;
  std::vector<gpusim::SharedAddr> b;
};

inline std::size_t operand_slot(const TileGeometry& g, int warp, int u,
                                int lane) {
  return (static_cast<std::size_t>(warp) * static_cast<std::size_t>(g.micro) +
          static_cast<std::size_t>(u)) *
             32 +
         static_cast<std::size_t>(lane);
}

OperandOffsetTable make_operand_offsets(TileLayout layout,
                                        const TileGeometry& g);

/// Runs the full main loop over K: loads each (tileA_i, tileB_i) pair and
/// applies the rank-tileK updates. On return `acc` holds subC = subA×subB.
/// When the norm accumulators are non-null, every loaded element's square
/// is folded into its track's slot (the fuse-norms extension): after the
/// loop `a_norms[r]` is ‖α_{origin+r}‖² and `b_norms[c]` is ‖β_{origin+c}‖².
void run_gemm_mainloop(gpusim::BlockContext& ctx, const TileSource& a,
                       const TileSource& b, std::size_t k_total,
                       const MainloopConfig& config, const SmemMap& smem,
                       BlockAccumulators& acc,
                       TrackNormAccumulators* a_norms = nullptr,
                       TrackNormAccumulators* b_norms = nullptr);

}  // namespace ksum::gpukernels
