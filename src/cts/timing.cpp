#include "cts/timing.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

#include "cts/timing_detail.h"

namespace ctsim::cts {

namespace detail {

namespace {

/// Walker over ONE component: the maximal unbuffered region below a
/// driver, cut at buffer inputs and sinks (the shapes of Sec 3.2).
class ComponentWalker {
  public:
    ComponentWalker(const ClockTree& tree, const delaylib::DelayModel& model,
                    bool propagate_slews, double pessimistic_slew_ps, ComponentEval& out)
        : tree_(tree),
          model_(model),
          propagate_(propagate_slews),
          pess_slew_(pessimistic_slew_ps),
          out_(out) {}

    void run(int head, int dtype, double slew_in, bool real_buffer) {
        drive_component(head, dtype, slew_in, 0.0, real_buffer);
    }

  private:
    /// The load at the end of a component run starting below `node`.
    int load_type_of(int node) const {
        const TreeNode& n = tree_.node(node);
        if (n.kind == NodeKind::buffer) return model_.load_type_for_cap(
            model_.buffers().type(n.buffer_type).input_cap_ff(model_.technology()));
        if (n.kind == NodeKind::sink) return model_.load_type_for_cap(n.sink_cap_ff);
        return model_.load_type_for_cap(
            tree_.root_input_cap_ff(node, model_.technology(), model_.buffers()));
    }

    /// Follow single-child (steiner/merge) nodes accumulating wire
    /// length until a load (buffer/sink) or a 2-child branch node.
    struct RunEnd {
        int node{-1};
        double len{0.0};
        bool is_branch{false};
    };
    RunEnd follow_run(int from) const {
        RunEnd e;
        int cur = from;
        double len = 0.0;
        while (true) {
            const TreeNode& n = tree_.node(cur);
            len += n.parent_wire_um;
            if (n.kind == NodeKind::buffer || n.kind == NodeKind::sink) {
                e.node = cur;
                e.len = len;
                return e;
            }
            if (n.children.size() == 2) {
                e.node = cur;
                e.len = len;
                e.is_branch = true;
                return e;
            }
            if (n.children.empty())
                throw std::runtime_error("timing: dangling interior node " +
                                         std::to_string(cur));
            cur = n.children[0];
        }
    }

    /// Evaluate the component whose driver sits at `driver_node`
    /// (charging the buffer delay when `real_buffer`), then record the
    /// loads. `base` is the arrival relative to the head's input.
    void drive_component(int driver_node, int dtype, double slew_in, double base,
                         bool real_buffer) {
        const TreeNode& d = tree_.node(driver_node);
        if (d.children.empty()) return;  // buffer with nothing below: nothing to time
        if (d.children.size() == 1) {
            const RunEnd run = follow_run(d.children[0]);
            if (!run.is_branch) {
                eval_single(dtype, slew_in, base, real_buffer, run);
            } else {
                eval_branch(dtype, slew_in, base, real_buffer, run.len, run.node);
            }
        } else {
            // Two children directly below the driver: branch with an
            // (almost) zero stem.
            eval_branch(dtype, slew_in, base, real_buffer, 0.0, driver_node);
        }
    }

    void eval_single(int dtype, double slew_in, double base, bool real_buffer,
                     const RunEnd& run) {
        const int ltype = load_type_of(run.node);
        const double bdel =
            real_buffer ? model_.buffer_delay(dtype, ltype, slew_in, run.len) : 0.0;
        const double wdel = model_.wire_delay(dtype, ltype, slew_in, run.len);
        const double wslew = model_.wire_slew(dtype, ltype, slew_in, run.len);
        arrive(run.node, base + bdel + wdel, wslew);
    }

    /// Branch at `branch_node` after a stem of `stem` um.
    void eval_branch(int dtype, double slew_in, double base, bool real_buffer, double stem,
                     int branch_node) {
        const TreeNode& bn = tree_.node(branch_node);
        if (bn.children.size() != 2)
            throw std::runtime_error("timing: expected branch node");
        const RunEnd left = follow_run(bn.children[0]);
        const RunEnd right = follow_run(bn.children[1]);

        const int lt = left.is_branch ? nested_load_type(left.node) : load_type_of(left.node);
        const int rt = right.is_branch ? nested_load_type(right.node) : load_type_of(right.node);

        const delaylib::BranchTiming bt =
            model_.branch(dtype, lt, rt, slew_in, stem, left.len, right.len);
        const double bdel = real_buffer ? bt.buffer_delay_ps : 0.0;

        descend(left, dtype, base + bdel + bt.delay_left_ps, bt.slew_left_ps);
        descend(right, dtype, base + bdel + bt.delay_right_ps, bt.slew_right_ps);
    }

    /// Handle a run end: either a proper load (record it) or a nested
    /// branch, which is outside the two canonical component shapes and
    /// is approximated by re-rooting a virtual driver at the inner
    /// branch node.
    void descend(const RunEnd& run, int dtype, double arrival, double slew) {
        if (!run.is_branch) {
            arrive(run.node, arrival, slew);
            return;
        }
        out_.worst_slew_ps = std::max(out_.worst_slew_ps, slew);
        const double next_slew = propagate_ ? slew : pess_slew_;
        eval_branch(dtype, next_slew, arrival, /*real_buffer=*/false, 0.0, run.node);
    }

    /// Effective load type of a nested branch point: by downstream cap.
    int nested_load_type(int node) const {
        return model_.load_type_for_cap(
            tree_.root_input_cap_ff(node, model_.technology(), model_.buffers()));
    }

    void arrive(int node, double arrival, double slew) {
        out_.worst_slew_ps = std::max(out_.worst_slew_ps, slew);
        out_.loads.push_back(
            {node, tree_.node(node).kind == NodeKind::sink, arrival, slew});
    }

    const ClockTree& tree_;
    const delaylib::DelayModel& model_;
    bool propagate_;
    double pess_slew_;
    ComponentEval& out_;
};

}  // namespace

void eval_component(const ClockTree& tree, const delaylib::DelayModel& model, int head,
                    int dtype, double slew_in, bool real_buffer, bool propagate_slews,
                    double pessimistic_slew_ps, ComponentEval& out) {
    out.clear();
    ComponentWalker w(tree, model, propagate_slews, pessimistic_slew_ps, out);
    w.run(head, dtype, slew_in, real_buffer);
}

}  // namespace detail

int resolve_driver_type(int requested, const delaylib::DelayModel& model) {
    return requested >= 0 ? requested : model.buffers().largest();
}

namespace {

/// Batch driver over components: depth-first across buffer
/// boundaries, exactly the seed Analyzer's traversal order.
class Analyzer {
  public:
    Analyzer(const ClockTree& tree, const delaylib::DelayModel& model, const TimingOptions& opt)
        : tree_(tree), model_(model), opt_(opt) {
        vdriver_ = resolve_driver_type(opt.virtual_driver, model);
    }

    TimingReport run(int root) {
        report_ = TimingReport{};
        report_.min_arrival_ps = std::numeric_limits<double>::max();
        const TreeNode& r = tree_.node(root);
        if (r.kind == NodeKind::sink) {
            report_.sinks.push_back({root, 0.0, opt_.input_slew_ps});
            report_.max_arrival_ps = 0.0;
            report_.min_arrival_ps = 0.0;
            report_.worst_slew_ps = opt_.input_slew_ps;
            return report_;
        }
        if (r.kind == NodeKind::buffer) {
            recurse(root, r.buffer_type, opt_.input_slew_ps, 0.0, true, 0);
        } else {
            recurse(root, vdriver_, opt_.input_slew_ps, 0.0, false, 0);
        }
        if (report_.sinks.empty()) report_.min_arrival_ps = 0.0;
        return report_;
    }

  private:
    void recurse(int head, int dtype, double slew_in, double base, bool real_buffer,
                 std::size_t depth) {
        if (depth >= scratch_.size()) scratch_.emplace_back();
        detail::ComponentEval& ce = scratch_[depth];  // eval_component clears it
        detail::eval_component(tree_, model_, head, dtype, slew_in, real_buffer,
                               opt_.propagate_slews, opt_.input_slew_ps, ce);
        report_.worst_slew_ps = std::max(report_.worst_slew_ps, ce.worst_slew_ps);
        for (const detail::ComponentLoad& ld : ce.loads) {
            const double arrival = base + ld.delta_ps;
            if (ld.is_sink) {
                report_.sinks.push_back({ld.node, arrival, ld.slew_ps});
                report_.max_arrival_ps = std::max(report_.max_arrival_ps, arrival);
                report_.min_arrival_ps = std::min(report_.min_arrival_ps, arrival);
                continue;
            }
            const double next_slew = opt_.propagate_slews ? ld.slew_ps : opt_.input_slew_ps;
            recurse(ld.node, tree_.node(ld.node).buffer_type, next_slew, arrival, true,
                    depth + 1);
        }
    }

    const ClockTree& tree_;
    const delaylib::DelayModel& model_;
    TimingOptions opt_;
    int vdriver_{0};
    TimingReport report_;
    /// Component scratch, one slot per recursion depth (a deque keeps
    /// shallower slots stable while deeper recursion grows it).
    std::deque<detail::ComponentEval> scratch_;
};

}  // namespace

TimingReport analyze(const ClockTree& tree, int root, const delaylib::DelayModel& model,
                     const TimingOptions& opt) {
    Analyzer a(tree, model, opt);
    return a.run(root);
}

RootTiming subtree_timing(const ClockTree& tree, int root, const delaylib::DelayModel& model,
                          double assumed_slew_ps, bool propagate) {
    TimingOptions opt;
    opt.input_slew_ps = assumed_slew_ps;
    opt.propagate_slews = propagate;
    const TimingReport rep = analyze(tree, root, model, opt);
    return RootTiming{rep.max_arrival_ps, rep.min_arrival_ps};
}

}  // namespace ctsim::cts
