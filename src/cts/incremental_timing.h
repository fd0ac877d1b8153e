// Incremental timing engine with dirty-slew propagation.
//
// A persistent timing state attached to one ClockTree: per node it
// caches the component evaluation (timing_detail.h) and the aggregate
// min/max arrival of the whole subtree seen from that node's input.
// Synthesis edits are reported through three notifications; queries
// then re-evaluate only the dirty cone, and downward re-propagation
// stops as soon as the slew delivered to a cached component equals
// the one it was last evaluated with (see the invalidation contract
// at the top of timing.h for why that is sound). Results match batch
// analyze() to <1e-9 ps.
//
// Purity and reproducibility: every cached value is a pure function
// of the subtree structure below its node, the delay model and the
// input slew -- never of the edit history or of what else
// shares the arena. A fresh engine over a private copy of a subtree
// (parallel_merge.cpp) therefore produces bit-identical numbers to a
// long-lived engine over the shared tree, which is what keeps
// parallel synthesis bit-for-bit equal to serial.
//
// Instances are not thread-safe; use one engine per thread/arena.
#ifndef CTSIM_CTS_INCREMENTAL_TIMING_H
#define CTSIM_CTS_INCREMENTAL_TIMING_H

#include <cstdint>
#include <vector>

#include "cts/options.h"
#include "cts/timing.h"
#include "cts/timing_detail.h"

namespace ctsim::cts {

class IncrementalTiming {
  public:
    struct Options {
        /// Driver assumed at unbuffered evaluation roots; -1 = largest
        /// in the library (resolve_driver_type).
        int virtual_driver{-1};
        /// Input slew at every evaluation root's driver [ps].
        double input_slew_ps{80.0};
        /// When false, every buffer input slew is reset to
        /// input_slew_ps (the pessimistic bottom-up assumption).
        bool propagate_slews{true};
    };

    /// The engine observes (does not own) the tree and the model; both
    /// must outlive it. The arena may GROW after construction (lazily
    /// picked up); appending fresh nodes above a parentless root needs
    /// no notification because no cached state can exist above a root.
    IncrementalTiming(const ClockTree& tree, const delaylib::DelayModel& model,
                      const Options& opt);

    // --- edit notifications (see timing.h for the contract) ---------
    /// `parent_wire_um` of `node` changed (trim, snake re-center).
    void wire_changed(int node);
    /// `buffer_type` of `node` changed.
    void buffer_changed(int node);
    /// The structure at or below `node` changed arbitrarily
    /// (children re-linked, subtrees swapped in).
    void subtree_replaced(int node);

    /// Time under `model` from now on. Every cached component and
    /// aggregate is forgotten, but the per-node state and each node's
    /// load-vector capacity are kept, so re-timing one tree under many
    /// models allocates nothing after the first walk. The next query is
    /// a full walk, bit-identical to a fresh engine's over the same
    /// tree and model. `model` must outlive every query until the next
    /// reset.
    void reset(const delaylib::DelayModel& model);

    // --- queries ----------------------------------------------------
    /// Min/max sink arrival from `root`'s input; matches
    /// subtree_timing(tree, root, model, input_slew, propagate).
    RootTiming root_timing(int root);
    /// Full report; sink order and values match analyze() (exactly
    /// the same component walks, composed with the same arithmetic).
    TimingReport report(int root);

    const Options& options() const { return opt_; }
    /// Components (re)evaluated since construction -- the engine's
    /// model-query cost; tests assert dirty-cone bounds with it.
    std::uint64_t evaluated_components() const { return evaluated_; }

  private:
    struct NodeState {
        // Cache signature of the component evaluation.
        double slew_ps{0.0};
        std::int32_t dtype{-1};
        bool real_buffer{false};
        bool comp_valid{false};
        /// Aggregate consistent with this component AND every cached
        /// descendant aggregate it was combined from.
        bool agg_valid{false};
        bool has_sinks{false};
        detail::ComponentEval comp;
        double agg_max_ps{0.0};
        double agg_min_ps{0.0};
        double agg_worst_slew_ps{0.0};
    };

    void ensure_size();
    /// Invalidate along the path above `node`: component caches up to
    /// (and including) the nearest buffer ancestor, aggregates all the
    /// way to the arena top.
    void dirty_above(int node);
    const NodeState& eval_head(int node, int dtype, bool real_buffer, double slew_ps);
    void emit_report(int head, double base, TimingReport& out);

    const ClockTree* tree_;
    const delaylib::DelayModel* model_;
    Options opt_;
    int vdriver_{0};
    std::vector<NodeState> state_;
    std::vector<int> scratch_;
    std::uint64_t evaluated_{0};
};

/// Engine configuration the synthesis loop runs with: slews
/// propagated top-down from each queried subtree root, the assumed
/// slew at the root's driver. The run's engine on the shared tree
/// (serial levels, H-structure checks, refine) and the pooled levels'
/// engines (one fresh engine per extracted merge arena) must both build
/// engines from this helper, or serial/parallel bit-for-bit
/// equivalence breaks.
inline IncrementalTiming::Options synthesis_timing_options(const SynthesisOptions& opt) {
    IncrementalTiming::Options o;
    o.virtual_driver = -1;
    o.input_slew_ps = opt.assumed_slew();
    o.propagate_slews = true;
    return o;
}

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_INCREMENTAL_TIMING_H
