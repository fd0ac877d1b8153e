// Merge-routing: balance -> route -> binary search (Sec 4.2).
//
// Merges two subtrees into one: pre-balances large delay differences
// by wire snaking, routes both roots toward a minimum-skew meet cell
// with aggressive buffer insertion, then slides the merge node along
// the free segment between the last fixed nodes until the two sides'
// delays match (binary search, Fig 4.5). The merged subtree's
// pessimistic timing is recomputed with the timing engine and cached.
#ifndef CTSIM_CTS_MERGE_ROUTING_H
#define CTSIM_CTS_MERGE_ROUTING_H

#include "cts/balance.h"
#include "cts/clock_tree.h"
#include "cts/maze.h"
#include "cts/options.h"
#include "cts/timing.h"

namespace ctsim::cts {

struct MergeRecord {
    int merge_node{-1};   ///< the new subtree root
    int left_root{-1};    ///< original child roots (pre-snaking), for
    int right_root{-1};   ///< H-structure re-pairing
    RootTiming timing;    ///< cached pessimistic subtree timing
    int snake_stages{0};
    double residual_diff_ps{0.0};  ///< |d1-d2| left after binary search
    /// Surfaced routing-quality flags (MazeResult pass-through): the
    /// coarse-to-fine route fell back to the full grid, or a tripped
    /// CancelToken closed the expansion on its incumbent meet. The
    /// synthesizer aggregates both into SynthesisResult::diagnostics.
    bool c2f_fallback{false};
    bool degraded_route{false};
    /// The memory ladder coarsened this route's label grid.
    bool grid_coarsened{false};
};

/// Merge the subtrees rooted at `a` and `b`. All re-timing runs
/// through `engine` (an IncrementalTiming attached to `tree`) and
/// every tree edit is reported via the notification API; the engine's
/// cached state is the cross-round and cross-level speedup of the
/// synthesis loop. `ctx` carries the run-local pipeline handles
/// (cts/context.h) and is forwarded into the router; null means an
/// unladdered run.
MergeRecord merge_route(ClockTree& tree, int a, int b, const RootTiming& ta,
                        const RootTiming& tb, const delaylib::DelayModel& model,
                        const SynthesisOptions& opt, IncrementalTiming& engine,
                        const SynthesisContext* ctx = nullptr);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_MERGE_ROUTING_H
