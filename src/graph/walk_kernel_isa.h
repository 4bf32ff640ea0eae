// Internal: the WalkKernel's runtime-dispatched row-pass implementations.
//
// One binary ships both a portable scalar gather and an AVX2 gather; a
// one-time CPUID check (OSXSAVE + AVX + XCR0 XMM/YMM + leaf-7 AVX2) picks
// the table every WalkKernel constructed in this process dispatches
// through. The two implementations are bit-identical by construction: the
// AVX2 gather accumulates lane i exactly like scalar accumulator a_i and
// reduces with the same (a0+a1)+(a2+a3) tree, and the AVX2 translation
// unit is compiled with FP contraction off so its scalar tail rounds like
// the generic build (tests/walk_kernel_test.cc pins this).
//
// This header is an implementation detail of src/graph/walk_kernel*;
// nothing outside the kernel should include it.
#ifndef LONGTAIL_GRAPH_WALK_KERNEL_ISA_H_
#define LONGTAIL_GRAPH_WALK_KERNEL_ISA_H_

#include <cstdint>

#include "core/types.h"

namespace longtail {
namespace internal {

/// Hard ceiling on the fused multi-query sweep width: the batch row passes
/// keep one per-lane gather accumulator block on the stack, sized by this
/// constant. WalkKernel::kMaxFusedWidth mirrors it for public callers.
inline constexpr int32_t kMaxFusedWidth = 32;

/// One instruction-set flavour of the kernel's hot row passes. All passes
/// process local node rows [lo, hi) of a graph's CSR (`ptr`, `col`);
/// callers own the iteration structure.
///
/// Every absorbing pass skips the gather of rows with scale == self == 0
/// (absorbing rows) and writes exactly +0.0 — the value the full
/// expression produces for any finite gather, since 0·acc and 0·cur are
/// signed zeros that +0.0 absorbs. Queries absorb the probe user's rated
/// items, often the highest-degree rows, so the skip removes a large slice
/// of edge work without perturbing a single bit.
struct WalkKernelIsa {
  const char* name;  // "generic" or "avx2"

  /// Absorbing-sweep pass over row-stochastic transitions normalized on
  /// the fly: each row derives inv = 1/wdeg[v] and gathers
  /// (w[k]·inv)·cur[col[k]], then
  /// nxt[v] = (add[v] + scale[v]·acc) + self[v]·cur[v]. `cur == nxt` is
  /// allowed when the gathered columns never overlap [lo, hi) (the
  /// bipartite ranking sweep).
  void (*absorbing_rows_norm)(int32_t lo, int32_t hi, const int64_t* ptr,
                              const NodeId* col, const double* w,
                              const double* wdeg, const double* add,
                              const double* scale, const double* self,
                              const double* cur, double* nxt);

  /// In-place double-step pass of the ranking sweep: ordinary rows advance
  /// one gather, isolated rows (self = 1) accumulate their cost twice in
  /// the same order the full sweep would:
  /// x[v] = ((add[v] + scale[v]·acc) + self[v]·x[v]) + self[v]·add[v].
  void (*absorbing_rows_fused_norm)(int32_t lo, int32_t hi,
                                    const int64_t* ptr, const NodeId* col,
                                    const double* w, const double* wdeg,
                                    const double* add, const double* scale,
                                    const double* self, double* x);

  /// Power-iteration pass over materialized transitions:
  /// y[v] = alpha·⟨prob_row(v), x⟩ + beta·restart[v] (`restart == nullptr`
  /// drops the second term). `x` and `y` must not alias.
  void (*apply_rows)(int32_t lo, int32_t hi, const int64_t* ptr,
                     const NodeId* col, const double* prob, double alpha,
                     const double* x, double beta, const double* restart,
                     double* y);

  /// Fused multi-query (SpMM) flavours: `width` query lanes interleaved
  /// node-major — lane q of node v lives at index v·width + q of every
  /// strided array (add/scale/self/cur/nxt or x). One CSR row stream feeds
  /// all lanes; per lane the accumulation order, reduction tree and
  /// absorbing skip are exactly the single-query pass's, so lane q is
  /// bit-identical to a sequential sweep of query q (the parity suite pins
  /// this across widths 1–17 and ISAs). Rows absorbing in *every* lane
  /// skip their gather entirely; rows absorbing in some lanes gather once
  /// and overwrite the absorbing lanes with the constant +0.0 the
  /// sequential pass writes. `width` must be in [1, kMaxFusedWidth].
  void (*absorbing_rows_norm_batch)(int32_t lo, int32_t hi,
                                    const int64_t* ptr, const NodeId* col,
                                    const double* w, const double* wdeg,
                                    const double* add, const double* scale,
                                    const double* self, const double* cur,
                                    double* nxt, int32_t width);

  /// Batch flavour of absorbing_rows_fused_norm (in-place double step).
  void (*absorbing_rows_fused_norm_batch)(
      int32_t lo, int32_t hi, const int64_t* ptr, const NodeId* col,
      const double* w, const double* wdeg, const double* add,
      const double* scale, const double* self, double* x, int32_t width);
};

/// The portable scalar implementation; always available.
const WalkKernelIsa* GenericWalkKernelIsa();

/// The AVX2 implementation, or nullptr when the build carries no AVX2
/// translation unit (non-x86 target or a compiler without -mavx2).
const WalkKernelIsa* Avx2WalkKernelIsa();

/// True when the running CPU and OS support AVX2 (CPUID + XGETBV). Pure
/// capability probe; does not consider whether the build carries the AVX2
/// translation unit.
bool CpuSupportsAvx2();

/// The table kernels dispatch through: AVX2 when both the build and the
/// CPU support it, generic otherwise. The probe runs once per process.
const WalkKernelIsa* ActiveWalkKernelIsa();

}  // namespace internal
}  // namespace longtail

#endif  // LONGTAIL_GRAPH_WALK_KERNEL_ISA_H_
