// Synthesis options for the buffered CTS flow.
#ifndef CTSIM_CTS_OPTIONS_H
#define CTSIM_CTS_OPTIONS_H

#include "util/cancel.h"

namespace ctsim::util {
class MemoryBudget;
}  // namespace ctsim::util

namespace ctsim::cts {

class Checkpointer;

/// Phase boundary a checkpoint snapshot describes (cts/checkpoint.h).
/// Lives here (not checkpoint.h) so SynthesisDiagnostics can record
/// the resumed-from phase without an include cycle.
enum class CheckpointPhase : int {
    none = 0,        ///< no snapshot / fresh run
    post_merge = 1,  ///< bottom-up merging finished
};

inline const char* checkpoint_phase_name(CheckpointPhase p) {
    switch (p) {
        case CheckpointPhase::none: return "none";
        case CheckpointPhase::post_merge: return "post_merge";
    }
    return "unknown";
}

enum class HStructureMode {
    off,          ///< the original flow
    reestimate,   ///< Method 1: re-pair by edge-cost estimation
    correct,      ///< Method 2: route all pairings, keep the best
};

enum class SeedPolicy {
    max_latency,  ///< the paper's choice: the highest-latency node skips the level
    random,       ///< ablation: an arbitrary node skips
};

enum class MatchingPolicy {
    greedy_centroid,  ///< the paper: farthest-from-centroid first, nearest neighbor
    path_growing,     ///< Drake-Hougardy [22], for the comparison claim
};

struct SynthesisOptions {
    /// Hard slew limit [ps]; Table 5.1/5.2 verify against this.
    double slew_limit_ps{100.0};
    /// Synthesis target [ps]: "we set it to 80 ps during synthesis in
    /// order to leave a margin" (Sec 5.1).
    double slew_target_ps{80.0};

    /// Edge cost = alpha * distance + beta * |delay difference|
    /// (eq. 4.1). Distance in um, delay in ps.
    double cost_alpha{1.0};
    double cost_beta{25.0};

    /// Routing grid: R cells per bounding-box dimension (Sec 4.2.2)...
    int grid_cells_per_dim{45};
    /// ...grown dynamically so the cell pitch never exceeds this [um].
    double grid_max_pitch_um{300.0};
    /// Margin added around the two nodes' bounding box [um].
    double grid_margin_um{0.0};

    /// Evaluate all buffer types at insertion points and keep the one
    /// whose end slew lands closest under the target (Fig 4.4). When
    /// false, always insert the smallest type as soon as it is needed.
    bool intelligent_sizing{true};

    /// Insert a buffer directly above an unbuffered merge-node subtree
    /// root whenever the new routing path itself carries no buffer,
    /// keeping every timing component single-wire or single-branch
    /// shaped (see DESIGN.md).
    bool force_subtree_root_buffer{true};

    HStructureMode hstructure{HStructureMode::off};
    SeedPolicy seed_policy{SeedPolicy::max_latency};
    MatchingPolicy matching{MatchingPolicy::greedy_centroid};

    /// Binary-search stage (Sec 4.2.3).
    int binary_search_iters{24};

    /// Input slew assumed at every driver during bottom-up routing
    /// (the paper assumes the slew limit; <= 0 means use slew_target).
    double assumed_input_slew_ps{0.0};

    /// Source: buffer type driving the tree root (-1 = largest).
    int source_buffer{-1};
    double source_slew_ps{50.0};

    /// Deterministic seed for tie-breaking / SeedPolicy::random.
    unsigned rng_seed{1};

    /// Worker threads for independent subtree merges: 1 = serial,
    /// 0 = one per hardware thread, n = exactly n. Each level's merges
    /// run through the deterministic DAG executor (extract+route
    /// concurrently, commits published in pairing order; see
    /// docs/parallelism.md), so results are bit-for-bit identical
    /// across thread counts. A run under a memory budget
    /// (memory_budget_mb / memory_budget) is always serial.
    int num_threads{1};

    // --- post-synthesis pass ----------------------------------------
    /// Run the post-synthesis top-down skew refinement pass
    /// (skew_refine.h): every merge node's two-sided balance is
    /// re-solved on the finished tree (stage-wire trims, coupled
    /// tap-point slides, buffer-size swaps, residual snaking), driving
    /// all re-timing through the incremental engine. Off reproduces the
    /// unrefined bottom-up result.
    bool skew_refine{true};

    // --- robustness knobs -------------------------------------------
    /// Cooperative wall-clock deadline for the whole synthesize()
    /// call [ms]; <= 0 disables. On expiry the pipeline DEGRADES
    /// instead of failing: the committed merge prefix is finished
    /// deterministically (in-flight mazes close on their incumbent
    /// meet), the refine post-pass is skipped or stopped between
    /// merges, and a valid fully-timed tree is returned with the cut
    /// stage recorded in SynthesisResult::diagnostics (see
    /// docs/robustness.md).
    double deadline_ms{0.0};
    /// External cancellation token, polled at bounded intervals in
    /// the maze expansion, the level merge loop, and the refine
    /// sweeps. Tripping it triggers the same degradation ladder as
    /// the deadline. May be null; when both this and
    /// deadline_ms are set the token also carries the deadline. The
    /// token must outlive the synthesize() call.
    util::CancelToken* cancel{nullptr};
    /// Soft memory cap for the whole synthesize() call [MB]; <= 0
    /// disables. Under pressure the pipeline DEGRADES along the
    /// documented ladder (cts/memory_ladder.h, docs/robustness.md):
    /// drop coarse-to-fine corridor grids, shrink the pooled label
    /// grids to one transient grid -- and only then raises a typed
    /// resource_exhaustion, with the deepest rung recorded in
    /// SynthesisResult::diagnostics. A budgeted run is serial
    /// whatever num_threads says, so its degradations are a pure
    /// function of the input.
    double memory_budget_mb{0.0};
    /// External budget (e.g. a per-request child of a server-wide
    /// cap); overrides memory_budget_mb when set. Must outlive the
    /// synthesize() call. May be unlimited (limit 0) purely to
    /// measure peak usage.
    util::MemoryBudget* memory_budget{nullptr};
    /// Crash-safe checkpointing (cts/checkpoint.h): when set,
    /// synthesize() publishes a checksummed snapshot once bottom-up
    /// merging finishes and, on entry, resumes from a matching
    /// snapshot by skipping the merge phase -- producing a tree
    /// bit-for-bit identical to the uninterrupted run. Must outlive
    /// the call.
    Checkpointer* checkpoint{nullptr};

    double assumed_slew() const {
        return assumed_input_slew_ps > 0.0 ? assumed_input_slew_ps : slew_target_ps;
    }
};

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_OPTIONS_H
