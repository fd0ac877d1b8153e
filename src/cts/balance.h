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
/// target. Returns the new (buffer) root.
SnakeResult snake_delay(ClockTree& tree, int root, double burn_ps,
                        const delaylib::DelayModel& model, const SynthesisOptions& opt);

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
                            const SynthesisOptions& opt, IncrementalTiming& engine);

/// Reversible edit journal for the verified-batch passes
/// (wire_reclaim.h): records the INVERSE of each stage-wire trim and
/// snake-stage removal so a whole batch whose engine-verified skew
/// regresses beyond tolerance can be rolled back exactly -- the tree
/// after undo() is node-for-node identical to the tree before the
/// recorded edits (removed snake buffers are re-linked, never
/// re-allocated, so node ids are stable across apply/undo).
struct EditJournal {
    struct Entry {
        enum class Kind { wire, snake_removal };
        Kind kind{Kind::wire};
        int node{-1};    ///< wire: the child whose parent wire moved;
                         ///< snake_removal: the removed ballast buffer
        int parent{-1};  ///< snake_removal: the buffer the ballast hung under
        int child{-1};   ///< snake_removal: the ballast's single child
        double old_wire_um{0.0};    ///< wire: previous parent_wire_um of node;
                                    ///< snake_removal: previous parent->ballast wire
        double snake_wire_um{0.0};  ///< snake_removal: ballast->child wire
    };
    std::vector<Entry> entries;

    void record_wire(int node, double old_um);
    void record_snake_removal(int ballast, int parent, int child, double old_wire_um,
                              double snake_wire_um);
    bool empty() const { return entries.empty(); }
    void clear() { entries.clear(); }

    /// Apply every inverse in reverse record order, notifying `engine`
    /// of each restored wire so its cached state stays consistent with
    /// the restored tree.
    void undo(ClockTree& tree, IncrementalTiming& engine);
};

/// Remove the delay-ballast snake stage `ballast` (a buffer with one
/// child sitting at zero geometric distance from it, inserted by
/// snake_delay): its child is re-linked directly under ballast's
/// parent, keeping the parent-side wire length. The inverse is
/// recorded in `journal`. The caller is responsible for notifying its
/// timing engine (wire_changed on the re-linked child) and for any
/// follow-up stage-wire adjustment. This is the complement of
/// snake_delay for the verified wirelength-reclamation pass.
void remove_snake_stage(ClockTree& tree, int ballast, EditJournal& journal);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_BALANCE_H
