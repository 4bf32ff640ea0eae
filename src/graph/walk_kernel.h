// The unified walk kernel: one tuned inner loop for every truncated
// random-walk sweep in the system.
//
// Before this subsystem existed, five call sites — the truncated DP behind
// HT/AT/AC1/AC2 (graph_recommender_base.cc) and the PPR/Katz
// power iterations (baselines/pagerank.cc, baselines/katz.cc) — each kept a
// bespoke loop over BipartiteGraph adjacency, re-deriving transition
// probabilities (a weighted-degree load plus a divide per row) and
// re-branching on absorbing/isolated nodes every iteration. WalkKernel
// retires those loops, and is itself split along the immutable/mutable
// seam:
//
//  * WalkPlan is the *immutable, shareable* half: the graph's CSR binding
//    plus, for the PPR/Katz normalizations, the materialized transition
//    values. A plan is built once per graph — at SubgraphCache admission
//    for cached subgraphs, at Fit/LoadModel for the PPR/Katz global graphs
//    — and shared by shared_ptr across any number of concurrently sweeping
//    workers. After Build it is never mutated, so N pool threads can sweep
//    one plan at once.
//  * WalkKernel is the *per-worker scratch* half: the branch-free
//    coefficient vectors CompileAbsorbingSweep fills per query and the
//    runtime ISA binding. One kernel lives in each WalkWorkspace and inside
//    each PPR/Katz recommender; kernels either build their own private plan
//    (BuildTransitions — the cold path, capacity reused across queries) or
//    adopt a shared one (AdoptPlan — the warm path, zero per-query
//    O(E)/O(V) setup).
//
//  * CompileAbsorbingSweep folds per-query absorbing flags, isolated
//    nodes, and per-node costs into three dense coefficient vectors so the
//    sweep's inner loop is branch-free:
//        next[v] = add[v] + scale[v]·⟨prob_row(v), value⟩ + self[v]·value[v]
//    (absorbing: add=scale=self=0 pins the value at exactly 0; isolated
//    transient: scale=0, self=1 accumulates cost forever; ordinary rows:
//    scale=1, self=0).
//  * SweepTruncated / Apply run the sweep as one 4-way-unrolled gather over
//    the transition CSR in the graph's own node order. The gather is
//    *runtime-dispatched*: one portable binary carries both a scalar
//    flavour and an AVX2 flavour (hardware vgatherdpd, compiled in its own
//    -mavx2 translation unit), and a one-time CPUID probe at kernel
//    construction picks the table — no recompilation per host. The two
//    flavours are bit-identical (same per-lane accumulation order and
//    reduction tree, FP contraction off in the AVX2 TU), enforced by
//    tests/walk_kernel_test.cc. See docs/KERNELS.md for the unroll and how
//    to re-tune it.
//
// Numerical contract: results agree with the retained reference loop
// (AbsorbingValueTruncatedReference in markov.h) to relative tolerance
// ~1e-13 per iteration — pre-normalization changes (Σ w·v)/d into
// Σ (w/d)·v and the unroll changes the summation tree, so bit-identity
// with the *old* loop is impossible; what the system guarantees instead is
// that every production path (single-user, batch at any thread count,
// cache-hit on a shared plan, checkpoint-restored) runs the same kernel
// and is therefore bit-identical across those paths. A plan is a pure
// function of its graph and normalization, so adopted and privately built
// plans sweep identically. tests/walk_kernel_test.cc and
// tests/warm_plan_test.cc enforce this.
#ifndef LONGTAIL_GRAPH_WALK_KERNEL_H_
#define LONGTAIL_GRAPH_WALK_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/bipartite_graph.h"

namespace longtail {

namespace internal {
struct WalkKernelIsa;
}  // namespace internal

/// Never defined: only names the always-null third BuildTransitions
/// argument that bench/e2e/e2e_trace.h still passes (Subgraph::layout).
struct WalkLayout;

/// Data-cache capacities of the running machine, probed once per process
/// (sysconf where the platform exposes them, conservative defaults
/// otherwise). FusedWidthCap compares the fused value block against L2.
struct CacheGeometry {
  size_t l1d_bytes;
  size_t l2_bytes;
  size_t l3_bytes;
};

const CacheGeometry& ProbeCacheGeometry();

/// How a plan derives the contiguous transition-value array from the
/// graph's edge weights.
enum class WalkNormalization {
  /// prob[k] = w[k] / weighted_degree(row): row-stochastic. The DP
  /// gather ⟨prob_row(v), value⟩ is then exactly Σ_j p_vj·value[j] of
  /// Eq. 1 — what the truncated absorbing-value sweeps consume. Never
  /// materialized: the row passes derive w[k]·(1/d) on the fly, the exact
  /// product a stored array would hold, so the O(entries) transition
  /// build is skipped at no cost in bits.
  kRowStochastic,
  /// prob[k] = w[k] / weighted_degree(col[k]): column-stochastic. On a
  /// symmetric graph, gathering row v yields (Pᵀx)[v] — the push step of
  /// the PPR power iteration expressed as a pull, which vectorizes.
  kColumnStochastic,
  /// prob[k] = w[k] unchanged: raw adjacency gathers (Katz's β-damped
  /// path counting).
  kRaw,
};

/// The immutable half of the walk kernel: one graph's CSR binding and, for
/// the PPR/Katz normalizations, its transition values. Built exactly once
/// per graph and shared by shared_ptr — a SubgraphCache payload carries
/// the plan for its subgraph, PPR/Katz carry one for their fitted global
/// graph. Immutable after Build(), so any number of WalkKernels (one per
/// worker, each with private scratch) may sweep one plan concurrently.
///
/// Lifetime: the plan points into the graph's CSR arrays but does not own
/// them — the graph must outlive every use of the plan. Cache payloads
/// satisfy this structurally: graph and plan live in one shared, immutable
/// Subgraph payload.
class WalkPlan {
 public:
  WalkPlan() = default;
  WalkPlan(const WalkPlan&) = delete;
  WalkPlan& operator=(const WalkPlan&) = delete;

  /// Binds `g` and materializes the column-stochastic values when `norm`
  /// asks for them. Identical to the kernel's own BuildTransitions, so
  /// plans built here and there sweep bit-identically. Reuses this
  /// object's buffer capacity, so a kernel-owned plan rebuilt per cold
  /// query performs no steady-state allocation. Rows with weighted degree
  /// <= 0 get all-zero transition values (compiled as isolated by
  /// CompileAbsorbingSweep).
  void Build(const BipartiteGraph& g, WalkNormalization norm);

  /// True once Build has run.
  bool built() const { return graph_ != nullptr; }
  /// Heap bytes this plan owns beyond the graph it points into (the
  /// materialized transition values, if any). The SubgraphCache adds this
  /// to its resident-byte accounting.
  size_t OwnedBytes() const;

 private:
  friend class WalkKernel;

  const BipartiteGraph* graph_ = nullptr;
  WalkNormalization norm_ = WalkNormalization::kRowStochastic;
  int32_t num_nodes_ = 0;
  /// The graph's CSR, which every sweep walks.
  const int64_t* ptr_ = nullptr;
  const NodeId* col_ = nullptr;
  /// Raw weights + weighted degrees for the normalizing row passes
  /// (kRowStochastic).
  const double* w_ = nullptr;
  const double* wdeg_ = nullptr;
  /// Transition values parallel to col_ for Apply: prob_.data() or the
  /// graph's raw weights. Null for kRowStochastic.
  const double* prob_data_ = nullptr;
  /// Column-stochastic transition values, parallel to col_.
  std::vector<double> prob_;
};

/// The mutable, per-worker half: per-query sweep coefficients, value
/// buffers, and the runtime ISA binding, executing against a bound
/// WalkPlan. One kernel lives in each WalkWorkspace and inside each
/// PPR/Katz recommender. Buffers are sized lazily and keep their capacity,
/// so steady-state reuse performs no heap allocation. Not thread-safe: one
/// kernel per worker — but many kernels may share one adopted plan.
class WalkKernel {
 public:
  /// Hard ceiling on the fused multi-query sweep width (mirrors the ISA
  /// tables' per-row stack scratch; see walk_kernel_isa.h). Callers chunk
  /// larger groups.
  static constexpr int32_t kMaxFusedWidth = 32;

  /// Binds the kernel to the best row-gather implementation the running
  /// CPU supports (one CPUID probe per process, cached; see
  /// walk_kernel_isa.h). The binary is portable — an AVX2 host runs the
  /// vgatherdpd flavour, any other host the scalar flavour, with
  /// bit-identical results.
  WalkKernel();
  WalkKernel(const WalkKernel&) = delete;
  WalkKernel& operator=(const WalkKernel&) = delete;

  /// Name of the row-gather flavour this kernel dispatches to ("avx2" or
  /// "generic").
  const char* isa_name() const;
  /// True when this build carries the AVX2 translation unit *and* the
  /// running CPU/OS support AVX2 — i.e. when new kernels bind to "avx2".
  static bool RuntimeAvx2Available();
  /// Test-only: rebinds this kernel to the portable scalar flavour so
  /// parity tests can compare both paths within one process.
  void ForceGenericIsaForTesting();

  /// Cold path: (re)builds this kernel's private plan for `g` and binds to
  /// it. O(edges) for kColumnStochastic, O(1) otherwise; call once per
  /// extracted subgraph / fitted graph, then reuse across any number of
  /// sweeps. The plan keeps a pointer to `g` and reads its CSR arrays
  /// during sweeps, so `g` must outlive the kernel's use and must not be
  /// rebuilt in between. The unnamed third parameter is ignored; it only
  /// keeps bench/e2e/e2e_trace.h's call compiling.
  void BuildTransitions(const BipartiteGraph& g, WalkNormalization norm,
                        std::shared_ptr<const WalkLayout> = nullptr);

  /// Warm path: binds to a shared, already-built plan — zero O(E) or O(V)
  /// work, just two pointer stores. The plan (and the graph it points
  /// into) must stay alive while bound; SubgraphCache payloads guarantee
  /// this by carrying graph and plan together. Any number of kernels may
  /// adopt one plan and sweep concurrently.
  void AdoptPlan(std::shared_ptr<const WalkPlan> plan);

  /// Compiles one query's absorbing flags and per-node immediate costs
  /// into the branch-free coefficient vectors. Requires kRowStochastic
  /// transitions for the current graph. `absorbing` and `node_cost` are
  /// local (subgraph) node-indexed, sizes == the bound graph's num_nodes();
  /// `node_cost[v]` is the cost paid per step leaving v (1.0 for absorbing
  /// *time*, the Eq. 9 entropy costs for absorbing *cost*). Absorbing
  /// nodes are pinned at exactly 0 regardless of cost. O(nodes). Writes
  /// only this kernel's scratch — safe to run concurrently with other
  /// kernels compiled against the same shared plan.
  void CompileAbsorbingSweep(const std::vector<bool>& absorbing,
                             const std::vector<double>& node_cost);

  /// Runs `iterations` truncated-DP sweeps (Algorithm 1 step 4) from
  /// V_0 ≡ 0 using the compiled coefficients; the result lands in
  /// `*value` (resized to num_nodes) and `*scratch` holds the double
  /// buffer. Semantics match AbsorbingValueTruncatedReference: absorbing
  /// nodes stay exactly 0, isolated transient nodes grow by their cost
  /// each sweep, everything else contracts toward the absorbing fixed
  /// point. `iterations <= 0` leaves `*value` all zero.
  void SweepTruncated(int iterations, std::vector<double>* value,
                      std::vector<double>* scratch) const;

  /// Ranking flavour of SweepTruncated, exploiting bipartiteness: user
  /// rows gather only item values and vice versa, and the recommenders
  /// rank *items* only, so the final item values depend on a single
  /// alternating chain item_τ ← user_{τ-1} ← item_{τ-2} ← … ← V_0 ≡ 0.
  /// This sweep updates exactly one side per step — half the edge work of
  /// the full DP, in place in `*value` with no double buffer. On return,
  /// item rows of `*value` (local ids >= num_users) are BIT-IDENTICAL to
  /// SweepTruncated's; user rows hold their last intermediate update
  /// (iteration τ-1) and must not be consumed. Requires a genuinely
  /// bipartite graph (every edge user↔item, which BipartiteGraph
  /// construction guarantees) and compiled kRowStochastic coefficients.
  void SweepTruncatedItemValues(int iterations,
                                std::vector<double>* value) const;

  /// Fused multi-query compile: `absorbing[q]` is query q's absorbing flag
  /// vector (each sized num_nodes, exactly as CompileAbsorbingSweep takes);
  /// `node_cost` is shared by every lane — queries fused into one batch
  /// come from the same recommender over the same subgraph, whose per-node
  /// costs do not depend on the query. Fills K-strided coefficient blocks
  /// (lane q of node v at index v·K + q) so one row pass serves all K
  /// queries. K = absorbing.size() must be in [1, kMaxFusedWidth]. Lane
  /// q's compiled semantics are exactly CompileAbsorbingSweep(absorbing[q],
  /// node_cost)'s.
  void CompileAbsorbingSweepBatch(const std::vector<std::vector<bool>>& absorbing,
                                  const std::vector<double>& node_cost);

  /// Fused multi-query ranking sweep over the coefficients compiled by
  /// CompileAbsorbingSweepBatch: one CSR pass per truncated-walk iteration
  /// advances all K interleaved value lanes — each edge's column load
  /// feeds K lanes (K=8 doubles is exactly one cache line per gathered
  /// node), amortizing the memory stream that bandwidth-binds the
  /// single-query sweep past L2. On return `*value_block` holds num_nodes·K
  /// doubles, lane q strided at value_block[v·K + q]; item rows of lane q
  /// are BIT-IDENTICAL to SweepTruncatedItemValues run sequentially for
  /// query q (user rows hold the same last intermediate as the sequential
  /// sweep and must not be consumed). Increments the process-global fused
  /// sweep counters (GetWalkKernelFusedStats).
  void SweepTruncatedItemValuesBatch(int iterations,
                                     std::vector<double>* value_block) const;

  /// The fusion width cap for a graph of `num_nodes` local nodes: 16 while
  /// a 16-lane value block still fits the probed L2 (small cached
  /// subgraphs — wider fusion is free when the whole block stays
  /// cache-resident), else 8 — eight interleaved double lanes per node are
  /// exactly one 64-byte line, so every gathered line is fully used and
  /// the CSR stream is amortized 8 ways, which is where the bandwidth win
  /// saturates in the past-L2 regime (see docs/KERNELS.md and the
  /// fused-width bench ladder).
  static int32_t FusedWidthCap(int32_t num_nodes);

  /// One power-iteration step over the transition CSR:
  ///     y[v] = alpha·⟨prob_row(v), x⟩ + beta·restart[v]
  /// (`restart == nullptr` drops the second term). With kColumnStochastic
  /// transitions this is y = alpha·Pᵀx + beta·r — the PPR update; with
  /// kRaw it is y = alpha·A·x — the Katz frontier push. `x` and `y` must
  /// have num_nodes elements and must not alias.
  ///
  /// Sparse inputs stay cheap: when the rows with x != 0 carry less than
  /// half the graph's adjacency entries (the early Katz frontier, the
  /// first PPR iterations), the step runs as a push over those rows only
  /// — on a symmetric graph the push along row u with weight w/d(u)
  /// produces the same terms as the column-stochastic pull — instead of
  /// gathering all edges. The two execution paths agree to the kernel's
  /// ~1e-13 parity tolerance (not bit-identically), and the choice is a
  /// deterministic function of x, so repeated runs are reproducible.
  /// kRowStochastic plans are rejected (no Apply caller uses them).
  void Apply(double alpha, const double* x, double beta,
             const double* restart, double* y) const;

 private:
  /// Absorbing pass over rows [lo, hi) with the single-query coefficients.
  void RunAbsorbingRange(int32_t lo, int32_t hi, const double* cur,
                         double* nxt) const;
  /// Same for the ranking sweep's in-place double-step pass.
  void RunFusedRange(int32_t lo, int32_t hi, double* x) const;
  /// Multi-query flavours over the K-strided coefficient blocks.
  void RunAbsorbingRangeBatch(int32_t lo, int32_t hi, const double* cur,
                              double* nxt) const;
  void RunFusedRangeBatch(int32_t lo, int32_t hi, double* x) const;

  /// The instruction-set flavour every sweep dispatches through; bound at
  /// construction, never null.
  const internal::WalkKernelIsa* isa_;

  /// The bound plan: &own_plan_ after BuildTransitions, adopted_.get()
  /// after AdoptPlan, null before either.
  const WalkPlan* plan_ = nullptr;
  /// Kernel-owned plan for the cold BuildTransitions path; capacity kept
  /// across rebuilds.
  WalkPlan own_plan_;
  /// Keeps an adopted shared plan alive while bound.
  std::shared_ptr<const WalkPlan> adopted_;

  /// Per-row sweep coefficients compiled by CompileAbsorbingSweep.
  std::vector<double> add_;    // constant term (0 for absorbing rows)
  std::vector<double> scale_;  // 1 ordinary row, 0 absorbing/isolated
  std::vector<double> self_;   // 1 isolated transient row, else 0
  /// K-strided coefficient blocks compiled by CompileAbsorbingSweepBatch
  /// (lane q of row v at v·batch_width_ + q).
  int32_t batch_width_ = 0;
  std::vector<double> badd_;
  std::vector<double> bscale_;
  std::vector<double> bself_;
};

/// Process-global fused-sweep counters: how many fused batch sweeps ran and
/// how many query lanes they carried (lanes / sweeps = mean fused width).
/// Exported to /metrics as longtail_walk_fused_sweeps_total and
/// longtail_walk_fused_lanes_total.
struct WalkKernelFusedStats {
  uint64_t sweeps = 0;
  uint64_t lanes = 0;
};
WalkKernelFusedStats GetWalkKernelFusedStats();

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_WALK_KERNEL_H_
