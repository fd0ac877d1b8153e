// Balance stage: progressive wire snaking (Sec 4.2.1).
//
// Merge-routing can only balance a limited delay difference without
// detours: roughly the delay of routing the whole root-to-root
// distance on one side. When the two subtrees differ by more than
// that, wire-snaking stages (a driving buffer plus a wire grown up to
// the slew target) are inserted above the faster subtree's root until
// the residual difference is within in-route reach. "The new starting
// buffer acts as the new root of the sub-tree."
#ifndef CTSIM_CTS_BALANCE_H
#define CTSIM_CTS_BALANCE_H

#include "cts/clock_tree.h"
#include "cts/context.h"
#include "cts/options.h"
#include "cts/timing.h"
#include "delaylib/delay_model.h"

namespace ctsim::cts {

class IncrementalTiming;  // incremental_timing.h; only a pointer crosses here

/// Delay a routed path of length `dist_um` can contribute to one side
/// (buffers at slew-limited intervals, pessimistic slew assumption).
/// This is the in-route balancing reach estimate.
double estimate_path_delay(const delaylib::DelayModel& model, double dist_um,
                           const SynthesisOptions& opt);

struct SnakeResult {
    int new_root{-1};
    double added_delay_ps{0.0};
    int stages{0};
};

/// Insert full snaking stages above `root` until at least `burn_ps` of
/// delay has been added (the last stage is trimmed by wire-length
/// bisection to land close to the target). Stages honor the slew
/// target. Returns the new (buffer) root. `ctx` only carries the
/// phase profile the stages bill to as balance.
SnakeResult snake_delay(ClockTree& tree, int root, double burn_ps,
                        const delaylib::DelayModel& model, const SynthesisOptions& opt,
                        const SynthesisContext* ctx = nullptr);

struct SnakePreview {
    double added_delay_ps{0.0};
    int stages{0};
    /// Buffer type of the LAST (topmost) stage -- what the caller's
    /// stage wire would drive after the snake; -1 when no stage fits.
    int top_type{-1};
};

/// Dry run of snake_delay: the delay it WOULD add above `root` for a
/// `burn_ps` target, without touching the tree. Runs the exact
/// stage-selection loop of snake_delay (shared helper), so the
/// preview equals the subsequent snake_delay call's added_delay_ps.
/// Snaking quantizes coarsely near the bottom -- no stage can add
/// less than the smallest zero-wire stage delay -- so callers use
/// this to skip snakes that would overshoot into a worse imbalance
/// than they fix.
SnakePreview snake_delay_preview(const ClockTree& tree, int root, double burn_ps,
                                 const delaylib::DelayModel& model,
                                 const SynthesisOptions& opt);

/// Outcome of the pre-route balance stage of one merge.
struct PrebalanceResult {
    int root_a{-1};  ///< possibly a new snake-stage root above `a`
    int root_b{-1};
    RootTiming ta;
    RootTiming tb;
    int snake_stages{0};
};

/// The balance stage of Sec 4.2.1 for a merge of `a` and `b`: when the
/// delay difference exceeds the in-route balancing reach, snake above
/// the faster root and re-time that side on `engine` (the snake
/// stages stack above a parentless root, so no invalidation is needed
/// -- the engine picks up the new nodes lazily).
PrebalanceResult prebalance(ClockTree& tree, int a, int b, const RootTiming& ta,
                            const RootTiming& tb, const delaylib::DelayModel& model,
                            const SynthesisOptions& opt, IncrementalTiming& engine,
                            const SynthesisContext* ctx = nullptr);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_BALANCE_H
