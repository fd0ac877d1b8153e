// Library-based timing analysis on clock trees.
//
// The tree is cut at buffer nodes into single-wire and branch
// components (the shapes of Sec 3.2) and evaluated with a DelayModel.
// Two modes mirror the paper's discipline:
//  * pessimistic: every driver input slew is assumed equal to the
//    synthesis slew target -- the assumption the bottom-up routing
//    makes ("assuming the driving buffer input slew to be equal to
//    the slew limit", Sec 4.2.2);
//  * propagated: slews computed top-down from the source, the final
//    accurate analysis.
//
// Batch analyze() below re-walks the whole subtree on every call and
// is the REFERENCE ORACLE. The synthesis loop runs on
// cts::IncrementalTiming (incremental_timing.h) instead, which caches
// per-node component evaluations and re-propagates only the dirty
// cone after an edit. The invalidation contract both engines share:
//
//   * A component is the maximal unbuffered region below one driver
//     (a buffer node or an analysis root). Its evaluation is a pure
//     function of (driver type, driver input slew, the region's wire
//     lengths/structure, frontier buffer types and sink caps).
//   * wire_changed(n) therefore dirties exactly the component that
//     contains the wire above n -- headed by n's nearest buffer
//     ancestor (or any evaluation root between n and that buffer) --
//     and the subtree AGGREGATES of every node above it. Nothing at
//     or below n is touched: n's own subtree did not change.
//   * buffer_changed(n) additionally re-keys n's own component (the
//     driver type is part of the cache signature) and dirties the
//     component above n (n's input cap feeds its load type).
//   * subtree_replaced(n) drops every cached state at or below n and
//     dirties the containing component and ancestor aggregates.
//   * Downward re-propagation after a dirty component re-evaluates a
//     child component only when the slew delivered to it changed: the
//     child's inputs -- and hence, by purity, its entire cached
//     subtree aggregate -- are provably unchanged when the slew key
//     matches exactly. The incremental report therefore matches
//     analyze() to float-associativity (<1e-9 ps).
#ifndef CTSIM_CTS_TIMING_H
#define CTSIM_CTS_TIMING_H

#include <vector>

#include "cts/clock_tree.h"
#include "delaylib/delay_model.h"

namespace ctsim::cts {

struct SinkTiming {
    int node{-1};
    double arrival_ps{0.0};  ///< delay from the analysis root
    double slew_ps{0.0};     ///< slew at the sink input
};

struct TimingReport {
    std::vector<SinkTiming> sinks;
    double max_arrival_ps{0.0};
    double min_arrival_ps{0.0};
    double worst_slew_ps{0.0};  ///< max slew over all component loads
    double skew_ps() const { return max_arrival_ps - min_arrival_ps; }
};

struct TimingOptions {
    /// Driver type assumed at unbuffered roots and (in pessimistic
    /// mode) irrelevant elsewhere; -1 = largest in the library.
    int virtual_driver{-1};
    /// Input slew at the analysis root's driver [ps].
    double input_slew_ps{80.0};
    /// When false, every buffer input slew is replaced by
    /// input_slew_ps (the pessimistic bottom-up assumption).
    bool propagate_slews{true};
};

/// Resolve a "-1 = largest type in the library" driver request (the
/// TimingOptions::virtual_driver and SynthesisOptions::source_buffer
/// convention). Kept in one place so every engine agrees on what the
/// default virtual driver is.
int resolve_driver_type(int requested, const delaylib::DelayModel& model);

/// Analyze the subtree rooted at `root`. Arrivals are measured from
/// the input of `root` (if `root` is a buffer, its delay is included;
/// otherwise a virtual driver of type opt.virtual_driver drives the
/// wires below `root` and no buffer delay is charged at the root).
TimingReport analyze(const ClockTree& tree, int root, const delaylib::DelayModel& model,
                     const TimingOptions& opt = {});

/// Cached per-root summary used by the synthesis loop.
struct RootTiming {
    double max_ps{0.0};
    double min_ps{0.0};
};
/// With `propagate` set, slews are tracked top-down from the subtree
/// root (only the root driver's input slew remains assumed); this is
/// considerably closer to transient simulation than the fully
/// pessimistic mode and is what the merge-time balancing runs on.
RootTiming subtree_timing(const ClockTree& tree, int root, const delaylib::DelayModel& model,
                          double assumed_slew_ps, bool propagate = false);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_TIMING_H
