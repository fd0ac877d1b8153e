#include "cts/incremental_timing.h"

#include <algorithm>
#include <limits>

#include "util/fault_injection.h"

namespace ctsim::cts {

IncrementalTiming::IncrementalTiming(const ClockTree& tree, const delaylib::DelayModel& model,
                                     const Options& opt)
    : tree_(&tree), model_(&model), opt_(opt) {
    vdriver_ = resolve_driver_type(opt.virtual_driver, model);
    ensure_size();
}

void IncrementalTiming::ensure_size() {
    if (state_.size() < static_cast<std::size_t>(tree_->size()))
        state_.resize(tree_->size());
}

void IncrementalTiming::dirty_above(int node) {
    // The wire above `node` (and `node`'s own input cap) live in the
    // component headed by the nearest buffer ancestor; any evaluation
    // ROOT strictly between `node` and that buffer covers the edit
    // with its own component, so the comp caches of the whole lower
    // path segment drop. Above the first buffer only the combined
    // subtree aggregates are stale.
    bool in_component = true;
    int p = tree_->node(node).parent;
    while (p >= 0) {
        NodeState& st = state_[p];
        if (in_component) {
            st.comp_valid = false;
            if (tree_->node(p).kind == NodeKind::buffer) in_component = false;
        }
        st.agg_valid = false;
        p = tree_->node(p).parent;
    }
}

void IncrementalTiming::wire_changed(int node) {
    ensure_size();
    // Fault probe for the notification edge case: degrade the precise
    // path invalidation to the conservative whole-subtree one.
    // subtree_replaced invalidates a superset of wire_changed's dirty
    // set, so results must stay bit-identical -- the fault tests
    // assert exactly that (over-invalidation is always safe).
    if (util::fault_fire(util::FaultSite::engine_notify_conservative)) {
        subtree_replaced(node);
        return;
    }
    dirty_above(node);
}

void IncrementalTiming::buffer_changed(int node) {
    ensure_size();
    // The node's own component re-keys automatically: the driver type
    // is part of the cache signature. The component above sees a new
    // load capacitance, so it must re-evaluate.
    dirty_above(node);
}

void IncrementalTiming::subtree_replaced(int node) {
    ensure_size();
    tree_->subtree_into(node, scratch_);
    for (int i : scratch_) state_[i] = NodeState{};
    dirty_above(node);
}

const IncrementalTiming::NodeState& IncrementalTiming::eval_head(int node, int dtype,
                                                                 bool real_buffer,
                                                                 double slew_ps) {
    NodeState& st = state_[node];
    const bool sig_ok = st.comp_valid && st.dtype == dtype &&
                        st.real_buffer == real_buffer && st.slew_ps == slew_ps;
    if (sig_ok && st.agg_valid) return st;  // equal-slew early termination
    if (!sig_ok) {
        detail::eval_component(*tree_, *model_, node, dtype, slew_ps, real_buffer,
                               opt_.propagate_slews, opt_.input_slew_ps, st.comp);
        st.dtype = dtype;
        st.real_buffer = real_buffer;
        st.slew_ps = slew_ps;
        st.comp_valid = true;
        ++evaluated_;
    }
    double mx = -std::numeric_limits<double>::infinity();
    double mn = std::numeric_limits<double>::infinity();
    double worst = st.comp.worst_slew_ps;
    bool any = false;
    for (const detail::ComponentLoad& ld : st.comp.loads) {
        if (ld.is_sink) {
            any = true;
            mx = std::max(mx, ld.delta_ps);
            mn = std::min(mn, ld.delta_ps);
            continue;
        }
        const double next = opt_.propagate_slews ? ld.slew_ps : opt_.input_slew_ps;
        const NodeState& ch =
            eval_head(ld.node, tree_->node(ld.node).buffer_type, true, next);
        worst = std::max(worst, ch.agg_worst_slew_ps);
        if (ch.has_sinks) {
            any = true;
            mx = std::max(mx, ld.delta_ps + ch.agg_max_ps);
            mn = std::min(mn, ld.delta_ps + ch.agg_min_ps);
        }
    }
    st.has_sinks = any;
    st.agg_max_ps = any ? mx : 0.0;
    st.agg_min_ps = any ? mn : 0.0;
    st.agg_worst_slew_ps = worst;
    st.agg_valid = true;
    return st;
}

RootTiming IncrementalTiming::root_timing(int root) {
    ensure_size();
    const TreeNode& r = tree_->node(root);
    if (r.kind == NodeKind::sink) return {0.0, 0.0};
    const NodeState& st =
        r.kind == NodeKind::buffer
            ? eval_head(root, r.buffer_type, true, opt_.input_slew_ps)
            : eval_head(root, vdriver_, false, opt_.input_slew_ps);
    if (!st.has_sinks) return {0.0, 0.0};
    return {st.agg_max_ps, st.agg_min_ps};
}

void IncrementalTiming::emit_report(int head, double base, TimingReport& out) {
    // The head's own component is valid here (report()/this function
    // ran eval_head on it first), but a DESCENDANT head's cache may
    // have been re-keyed since the aggregates were combined -- a
    // direct root_timing() query at an interior buffer evaluates it
    // at the root input slew, not at the slew this walk delivers, and
    // cached ancestor aggregates stay valid (they are pure values) so
    // no eval_head recursion would notice. Re-validate every child
    // head at its delivered slew before walking into it.
    const NodeState& st = state_[head];
    out.worst_slew_ps = std::max(out.worst_slew_ps, st.comp.worst_slew_ps);
    for (const detail::ComponentLoad& ld : st.comp.loads) {
        const double arrival = base + ld.delta_ps;
        if (ld.is_sink) {
            out.sinks.push_back({ld.node, arrival, ld.slew_ps});
            out.max_arrival_ps = std::max(out.max_arrival_ps, arrival);
            out.min_arrival_ps = std::min(out.min_arrival_ps, arrival);
            continue;
        }
        const double next = opt_.propagate_slews ? ld.slew_ps : opt_.input_slew_ps;
        eval_head(ld.node, tree_->node(ld.node).buffer_type, true, next);
        emit_report(ld.node, arrival, out);
    }
}

TimingReport IncrementalTiming::report(int root) {
    ensure_size();
    TimingReport out;
    out.min_arrival_ps = std::numeric_limits<double>::max();
    const TreeNode& r = tree_->node(root);
    if (r.kind == NodeKind::sink) {
        out.sinks.push_back({root, 0.0, opt_.input_slew_ps});
        out.max_arrival_ps = 0.0;
        out.min_arrival_ps = 0.0;
        out.worst_slew_ps = opt_.input_slew_ps;
        return out;
    }
    if (r.kind == NodeKind::buffer)
        eval_head(root, r.buffer_type, true, opt_.input_slew_ps);
    else
        eval_head(root, vdriver_, false, opt_.input_slew_ps);
    emit_report(root, 0.0, out);
    if (out.sinks.empty()) out.min_arrival_ps = 0.0;
    return out;
}

}  // namespace ctsim::cts
