// Bi-directional slew-aware maze routing (Sec 4.2.2, Figs 4.3/4.4).
//
// Routing starts from both subtree roots simultaneously over a
// dynamically sized grid. Each side propagates labels over monotone
// (staircase) paths -- clock tree routing has no congestion to dodge,
// so detours are never needed inside the routing stage (imbalances
// beyond in-route reach are handled by the balance stage's wire
// snaking beforehand). A label tracks the delay of all completed
// buffer stages below plus the growing unbuffered run; when the run
// can no longer hold the slew target even with the largest buffer,
// a buffer is committed with intelligent sizing: every library type
// is evaluated and the one whose end slew lands closest under the
// target wins (Fig 4.4).
//
// The merge cell is the one minimizing the delay difference of the
// two sides ("the grid with minimum delay difference (minimum skew)
// can be picked as a tentative merger location").
//
// Engine contracts (mirroring the invalidation contract of timing.h):
//
//   * Precomputed-row quantization (maze_rows.h): the relax loop
//     reads stage-delay / feasible-run / buffer-choice values from
//     per-(driver, load) arrays indexed by
//     round(len / EvalCache::kQuantumUm) -- the exact EvalCache slot
//     rule, with every entry pre-filled THROUGH the cache. The rows
//     therefore change no routing decision and no emitted number
//     relative to routing through the cache; they only remove the
//     per-relaxation probe overhead. Lengths outside a row's domain
//     fall back to the cache, and so does a whole run whose memory
//     ladder refused the rows' shared charge.
//   * Sparse bucketed frontier: labels expand best-first from a
//     monotone bucket queue over quantized path cost. Path cost is
//     monotone along staircase edges up to the fitted surfaces'
//     kMazeMonoSlackPs noise, so bucket floors (minus that slack)
//     lower-bound every future label and the incumbent meet prunes
//     whole buckets. Meets agree with the dense reference sweep's
//     (maze_route_reference) within kMazeMeetTolPs +
//     2 * kMazeMonoSlackPs (the binary-search stage and the
//     engine-driven rebalance absorb the residual).
//   * Coarse-to-fine grid: merges whose grid has at least kC2fMinDim
//     cells per side route first on a ~5x-coarser grid over the same
//     region, then refine at full resolution inside a corridor around
//     the coarse path. FALLBACK: when the coarse pass finds no meet
//     (a coarse pitch can exceed every buffer's feasible run) or the
//     corridor route fails, the router re-routes on the plain full
//     grid -- maze_route never degrades its result availability, only
//     its speed. Both conditions are counted in the run's
//     PhaseProfile (cts/phase_profile.h, reached through the context)
//     and the fallback is surfaced on MazeResult::c2f_fallback so the
//     synthesis report can aggregate a warning. The memory ladder's
//     drop_c2f rung skips the coarse pass outright.
//   * Cooperative cancellation (SynthesisOptions::cancel): the
//     expansion polls the token at bounded intervals; once it trips it
//     stops at the first incumbent meet instead of exhausting the
//     frontier (MazeResult::degraded). The route stays valid -- only
//     its optimality degrades. The dense reference sweep ignores the
//     token: its full-grid scan needs complete expansions.
#ifndef CTSIM_CTS_MAZE_H
#define CTSIM_CTS_MAZE_H

#include <optional>
#include <vector>

#include "cts/context.h"
#include "cts/options.h"
#include "delaylib/delay_model.h"
#include "delaylib/eval_cache.h"
#include "geom/grid.h"
#include "geom/point.h"

namespace ctsim::cts {

/// Slack absorbing non-monotonicity of the fitted delay surfaces in
/// the router's frontier lower bounds [ps].
inline constexpr double kMazeMonoSlackPs = 2.0;
/// Meet-diff tolerance of the bucket frontier [ps]. One grid step
/// changes a side's delay by a few ps, so sub-grid-step diffs are
/// noise; the binary-search stage then slides the merge continuously
/// along the free segment and the engine-driven rebalance trims the
/// rest, so meet choices within this band are interchangeable.
inline constexpr double kMazeMeetTolPs = 5.0;

/// A committed buffer along one routed path.
struct PathBuffer {
    geom::Pt pos{};
    int type{0};
    /// Index into RoutedPath::trace where this buffer sits.
    int trace_index{0};
    /// Wire length from this buffer down to the previous path element
    /// (buffer or subtree root), as tracked by the router labels.
    double run_below_um{0.0};
};

/// One side of the routed merge.
struct RoutedPath {
    std::vector<PathBuffer> buffers;  ///< bottom-up order (root side first)
    /// Unbuffered wire between the last buffer (or the subtree root if
    /// none) and the merge point.
    double tail_um{0.0};
    /// Load type at the bottom of the tail run (last buffer's type, or
    /// the subtree root's equivalent load type).
    int tail_load_type{0};
    /// Delay from the merge-side end of the last committed stage down
    /// to the subtree's slowest sink (completed stages + subtree max).
    double delay_complete_max_ps{0.0};
    double delay_complete_min_ps{0.0};
    /// Cell positions from the root cell to the meet cell (inclusive),
    /// for geometric reconstruction of the staircase.
    std::vector<geom::Pt> trace;
};

/// Endpoint description handed to the router.
struct RouteEndpoint {
    geom::Pt pos{};
    int load_type{0};          ///< equivalent load type looking into the subtree
    double delay_max_ps{0.0};  ///< cached subtree delays (pessimistic)
    double delay_min_ps{0.0};
    /// Force a buffer at the very first step (used to keep components
    /// two-branch shaped above unbuffered merge roots).
    bool force_root_buffer{false};
};

struct MazeResult {
    RoutedPath side1;
    RoutedPath side2;
    geom::Pt meet{};
    /// Pessimistic delays from the meet down each side, including the
    /// tail runs (virtual largest-type driver at the meet).
    double d1_ps{0.0};
    double d2_ps{0.0};
    /// The coarse-to-fine route fell back to the plain full grid
    /// (coarse pass or corridor infeasible); the result is a working
    /// full-resolution route, this only surfaces the slow path so the
    /// synthesis report can warn about it.
    bool c2f_fallback{false};
    /// A tripped CancelToken closed the expansion early on the best
    /// incumbent meet: still a valid routed merge, but the frontier
    /// was not exhausted so the meet may be off-optimum.
    bool degraded{false};
    /// The memory ladder refused the full-resolution label grid, so
    /// the route ran on a coarsened grid (fewer, larger cells --
    /// fewer candidate buffer locations). Still a valid route; the
    /// quality loss is the degradation the ladder trades for fitting
    /// under the budget cap.
    bool grid_coarsened{false};
};

/// Route two endpoints toward a minimum-|delay difference| meet cell.
/// Throws util::Error{infeasible_route} when even the full grid holds
/// no cell both sides can reach within the slew target. `ctx` carries
/// the run-local pipeline handles (the memory ladder, the phase
/// profile); null means an unladdered, unprofiled run.
MazeResult maze_route(const RouteEndpoint& a, const RouteEndpoint& b,
                      const delaylib::DelayModel& model, const SynthesisOptions& opt,
                      const SynthesisContext* ctx = nullptr);

/// Test oracle for the bucket frontier: full dense expansions of both
/// sides over the nominal grid (no coarse-to-fine, no memory ladder,
/// no cancellation), then a full-grid scan for the exact
/// minimum-|delay difference| meet. Throws like maze_route.
MazeResult maze_route_reference(const RouteEndpoint& a, const RouteEndpoint& b,
                                const delaylib::DelayModel& model,
                                const SynthesisOptions& opt);

/// Largest wire run that keeps the end slew at or under `target` when
/// driven by `dtype` (input slew `assumed`) into `ltype`; used by the
/// router, the balance stage, and the balance-reach estimate.
double max_feasible_run(const delaylib::DelayModel& model, int dtype, int ltype,
                        double assumed_slew, double target_slew, double upper_um);

/// Intelligent sizing (Fig 4.4): the buffer type whose end slew over a
/// run of `run_um` into `ltype` is closest to but not above `target`;
/// nullopt when no type can hold the target.
std::optional<int> choose_buffer(const delaylib::DelayModel& model, int ltype, double run_um,
                                 double assumed_slew, double target_slew,
                                 bool intelligent_sizing);

/// The calling thread's memoized evaluation cache, (re)bound to this
/// model and these options.
delaylib::EvalCache& eval_cache_for(const delaylib::DelayModel& model,
                                    const SynthesisOptions& opt);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_MAZE_H
