// Top-down skew refinement of a finished clock tree: the balancing
// step that follows bottom-up merging (mirrors the final tuning passes
// of multi-objective CTS flows).
//
// Bottom-up synthesis accepts per-merge residuals (merge_route stops
// at 0.5 ps, and up to ~3 ps when a trim range is exhausted), and
// which residual each merge lands on depends on every earlier routing
// and rebalance decision. This pass walks the FINISHED tree and
// re-solves every merge's two-sided balance to a much tighter
// tolerance (0.05 ps), so the refined root skew is set by that
// tolerance and the slew-propagation error, not by which residuals
// the bottom-up decisions happened to accept.
//
// The refinement contract (same discipline as timing.h / maze.h):
//
//   * The pass edits ONLY the decoupled balance knobs merge_route
//     built for exactly this purpose: every merge node has two
//     isolation buffers at the merge point, each driving its side
//     through one snakable stage wire. Refinement moves are
//       - stage-wire trims within [geometric length, slew-limited
//         run] on either side (lengthening the fast side, and --
//         the coupled "tap-point slide" -- un-snaking the slow side,
//         which reuses the trim slack merge_route banked as s0);
//       - buffer-size swaps of an isolation buffer when the
//         continuous range cannot close the gap;
//       - wire snaking below a stage (balance.h) for residuals
//         beyond every continuous and discrete knob.
//     Sinks, merge positions, routed traces and the tree topology
//     above each merge are never touched, so slew feasibility is
//     preserved by the same argument as in merge_route: every stage
//     stays within its driver's slew-limited run.
//   * All re-timing runs through cts::IncrementalTiming and every
//     edit is reported via the notification API (wire_changed /
//     buffer_changed), so the pass is near-free next to synthesis.
//     Each sweep issues exactly ONE engine truth walk (report(root));
//     per-merge imbalances are read from root-frame arrival windows
//     folded out of that report in O(n) scalar work, and every move
//     updates the windows incrementally with its model-predicted
//     shift. The NEXT sweep's walk replaces all predictions with
//     engine truth, so predictions are never trusted across more
//     than one sweep. (Per-merge engine queries would instead re-key
//     every cached component twice per sweep -- measured to cost
//     more than the entire pass.)
//   * Each sweep visits merges deepest-first (children settle before
//     their parents fold their windows); sweeps > 1 revisit only
//     merges whose subtree saw a move (root-frame arrivals of an
//     untouched subtree shift only by common ancestor terms, which
//     cancel in the two-sided difference). Sweeps repeat until one
//     applies no move against an imbalance above the settle band
//     (kSettlePs in skew_refine.cpp -- the residual bottom-up merging
//     already accepted), for at most 3 sweeps.
//   * Snakes land coarsely (no stage can add less than the smallest
//     zero-wire stage delay), so each one is dry-run first
//     (snake_delay_preview, exact by construction) and applied only
//     when its landing error strictly improves on the residual or
//     fits in the re-centered stage's trim range for the next sweep
//     to absorb; the last sweep never snakes. This kills the
//     overshoot avalanche a blind snake seeds on long-span instances
//     whose stages have no trim headroom.
//   * Determinism: the pass is serial, and its moves are pure
//     functions of (tree, model, options) -- engine purity plus the
//     shared EvalCache's purely functional values -- so a tree merged
//     at any thread count refines to the same tree. A tripped
//     CancelToken is polled (counted) between merges, so a deadline
//     cuts the pass at a deterministic merge.
//   * Phase attribution: the whole pass runs under Phase::refine of
//     the context's profile (cts/phase_profile.h); the rare
//     snake-stage construction keeps its inner balance scope
//     (exclusive nesting), everything else -- engine walks included --
//     bills to refine.
#ifndef CTSIM_CTS_SKEW_REFINE_H
#define CTSIM_CTS_SKEW_REFINE_H

#include "cts/clock_tree.h"
#include "cts/context.h"
#include "cts/options.h"
#include "delaylib/delay_model.h"

namespace ctsim::cts {

class IncrementalTiming;  // incremental_timing.h

/// What the refinement pass did, for tests and the bench harness.
struct SkewRefineStats {
    int passes{0};          ///< sweeps executed (<= 3)
    int merges_visited{0};  ///< well-formed merges seen (first sweep visits all)
    int trims{0};           ///< stage-wire knob moves
    int buffer_swaps{0};    ///< isolation-buffer type changes
    int snake_stages{0};    ///< snake stages inserted
    double initial_skew_ps{0.0};  ///< engine root skew before the pass
    double final_skew_ps{0.0};    ///< engine root skew after the pass
    /// A tripped CancelToken stopped the pass between merges of a
    /// sweep. Every applied move is an independently valid tree edit
    /// the engine saw, so the tree and engine stay consistent -- the
    /// pass just covered fewer merges than asked.
    bool cancelled{false};
};

/// Refine the finished tree rooted at `root`. `engine` must be an
/// IncrementalTiming attached to `tree` and consistent with it (all
/// prior edits notified); the pass keeps it consistent. Invoked by
/// synthesize() when SynthesisOptions::skew_refine is set; callable
/// directly on any tree with merge_route-shaped merges. `ctx` only
/// carries the phase profile the pass bills to.
SkewRefineStats refine_skew(ClockTree& tree, int root, const delaylib::DelayModel& model,
                            const SynthesisOptions& opt, IncrementalTiming& engine,
                            const SynthesisContext* ctx = nullptr);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_SKEW_REFINE_H
