#include "cts/merge_routing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <cstdio>
#include <cstdlib>

#include "cts/incremental_timing.h"
#include "cts/phase_profile.h"

namespace ctsim::cts {

namespace {

RouteEndpoint endpoint_for(const ClockTree& tree, int root, const RootTiming& t,
                           const delaylib::DelayModel& model, const SynthesisOptions& opt) {
    RouteEndpoint ep;
    ep.pos = tree.node(root).pos;
    ep.load_type = model.load_type_for_cap(
        tree.root_input_cap_ff(root, model.technology(), model.buffers()));
    ep.delay_max_ps = t.max_ps;
    ep.delay_min_ps = t.min_ps;
    ep.force_root_buffer =
        opt.force_subtree_root_buffer && tree.node(root).kind == NodeKind::merge;
    return ep;
}

/// Polyline with cumulative Manhattan lengths.
struct Polyline {
    std::vector<geom::Pt> pts;
    std::vector<double> cum;

    void build() {
        cum.assign(pts.size(), 0.0);
        for (std::size_t i = 1; i < pts.size(); ++i)
            cum[i] = cum[i - 1] + geom::manhattan(pts[i - 1], pts[i]);
    }
    double length() const { return cum.empty() ? 0.0 : cum.back(); }
    geom::Pt at(double w) const {
        if (pts.size() == 1 || w <= 0.0) return pts.front();
        if (w >= length()) return pts.back();
        std::size_t i = 1;
        while (cum[i] < w) ++i;
        const double seg = cum[i] - cum[i - 1];
        const double f = seg > 0.0 ? (w - cum[i - 1]) / seg : 0.0;
        return geom::lerp(pts[i - 1], pts[i], f);
    }
};

/// Cumulative trace lengths of a routed path.
std::vector<double> trace_cum(const RoutedPath& p) {
    std::vector<double> cum(p.trace.size(), 0.0);
    for (std::size_t i = 1; i < p.trace.size(); ++i)
        cum[i] = cum[i - 1] + geom::manhattan(p.trace[i - 1], p.trace[i]);
    return cum;
}

/// Tree chain for one routed side: buffers bottom-up above `root`,
/// using geometric trace lengths.
struct ChainTop {
    int node{-1};
    int trace_index{0};
};
ChainTop build_chain(ClockTree& tree, int root, const RoutedPath& path,
                     const std::vector<double>& cum) {
    ChainTop top{root, 0};
    for (const PathBuffer& pb : path.buffers) {
        const int bnode = tree.add_buffer(pb.pos, pb.type);
        const double wire = cum[pb.trace_index] - cum[top.trace_index];
        tree.connect(bnode, top.node, wire);
        top = {bnode, pb.trace_index};
    }
    return top;
}

/// One side's attachment to the merge node.
struct Arm {
    int top{-1};       ///< node the merge connects to
    double run{0.0};   ///< wire between the merge and `top`
    int load_type{0};  ///< equivalent load type of `top`
};

}  // namespace

MergeRecord merge_route(ClockTree& tree, int a, int b, const RootTiming& ta,
                        const RootTiming& tb, const delaylib::DelayModel& model,
                        const SynthesisOptions& opt, IncrementalTiming& engine,
                        const SynthesisContext* ctx) {
    MergeRecord rec;
    rec.left_root = a;
    rec.right_root = b;

    const double assumed = opt.assumed_slew();
    const int tmax = model.buffers().largest();
    delaylib::EvalCache& ec = eval_cache_for(model, opt);

    PhaseProfile* const prof = profile_of(ctx);
    const auto time_root = [&](int root) {
        ScopedPhase phase(prof, Phase::timing);
        return engine.root_timing(root);
    };

    // --- Balance stage ------------------------------------------------
    const PrebalanceResult pb = prebalance(tree, a, b, ta, tb, model, opt, engine, ctx);
    const int ra = pb.root_a, rb = pb.root_b;
    const RootTiming tra = pb.ta, trb = pb.tb;
    rec.snake_stages = pb.snake_stages;

    // --- Routing stage --------------------------------------------------
    const RouteEndpoint ea = endpoint_for(tree, ra, tra, model, opt);
    const RouteEndpoint eb = endpoint_for(tree, rb, trb, model, opt);
    const MazeResult mz = maze_route(ea, eb, model, opt, ctx);
    rec.c2f_fallback = mz.c2f_fallback;
    rec.degraded_route = mz.degraded;
    rec.grid_coarsened = mz.grid_coarsened;

    const std::vector<double> cum1 = trace_cum(mz.side1);
    const std::vector<double> cum2 = trace_cum(mz.side2);

    // --- Binary search stage (Fig 4.5): initial split -------------------
    ScopedPhase balance_phase(prof, Phase::balance);
    // Free polyline between the last fixed nodes v1 and v2 through the
    // meet cell.
    const int v1_idx = mz.side1.buffers.empty() ? 0 : mz.side1.buffers.back().trace_index;
    const int v2_idx = mz.side2.buffers.empty() ? 0 : mz.side2.buffers.back().trace_index;

    Polyline line;
    for (std::size_t i = static_cast<std::size_t>(v1_idx); i < mz.side1.trace.size(); ++i)
        line.pts.push_back(mz.side1.trace[i]);
    for (std::size_t i = mz.side2.trace.size(); i-- > static_cast<std::size_t>(v2_idx);) {
        if (i + 1 == mz.side2.trace.size()) continue;  // meet point already present
        line.pts.push_back(mz.side2.trace[i]);
    }
    if (line.pts.empty()) line.pts.push_back(mz.meet);
    line.build();
    const double total_w = line.length();

    const int lt1 = mz.side1.tail_load_type;
    const int lt2 = mz.side2.tail_load_type;
    const double c1 = mz.side1.delay_complete_max_ps;
    const double c2 = mz.side2.delay_complete_max_ps;

    const auto split_diff = [&](double w) {
        const delaylib::BranchTiming bt =
            model.branch(tmax, lt1, lt2, assumed, 0.0, w, total_w - w);
        return (c1 + bt.delay_left_ps) - (c2 + bt.delay_right_ps);
    };

    double w = 0.5 * total_w;
    if (total_w <= 1e-9) {
        w = 0.0;
    } else if (split_diff(0.0) >= 0.0) {
        w = 0.0;  // side a slower even with M at v1
    } else if (split_diff(total_w) <= 0.0) {
        w = total_w;
    } else {
        double lo = 0.0, hi = total_w;
        for (int it = 0; it < opt.binary_search_iters; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (split_diff(mid) < 0.0)
                lo = mid;
            else
                hi = mid;
        }
        w = 0.5 * (lo + hi);
    }

    const geom::Pt mpos = line.at(w);

    // --- Construct the merged subtree -------------------------------------
    const ChainTop ct1 = build_chain(tree, ra, mz.side1, cum1);
    const ChainTop ct2 = build_chain(tree, rb, mz.side2, cum2);

    const auto run_limit = [&](int ltype) { return ec.max_feasible_run(tmax, ltype); };

    // Bufferize one free arm (from a chain top at polyline parameter
    // `from_w` toward the merge at parameter `w`): the merge position
    // may lie beyond this side's own routed tail, so the arm can need
    // additional buffers to keep every run slew-feasible.
    const auto build_arm = [&](int chain_node, int tail_load, double from_w) {
        Arm arm;
        arm.top = chain_node;
        arm.load_type = tail_load;
        const double dir = w >= from_w ? 1.0 : -1.0;
        double pos_w = from_w;
        double remaining = std::abs(w - from_w);
        while (remaining > run_limit(arm.load_type) * 0.62) {
            const double step = run_limit(arm.load_type) * 0.58;
            pos_w += dir * step;
            const auto t = ec.choose_buffer(arm.load_type, step);
            const int type = t.value_or(tmax);
            const int bnode = tree.add_buffer(line.at(pos_w), type);
            tree.connect(bnode, arm.top, step);
            arm.top = bnode;
            arm.load_type = model.load_type_for_cap(
                model.buffers().type(type).input_cap_ff(model.technology()));
            remaining -= step;
        }
        arm.run = remaining;
        return arm;
    };

    Arm arm1 = build_arm(ct1.node, lt1, 0.0);
    Arm arm2 = build_arm(ct2.node, lt2, total_w);

    // Isolate both arms behind buffers placed at the merge point.
    // This keeps the branch component at the merge trivial (two gate
    // loads at zero distance, so its slew can never violate the target
    // regardless of the next level's driver) and, crucially, gives the
    // final balance a decoupled knob: wire snaked *inside* an isolated
    // stage shifts only that side's delay, whereas wire added directly
    // on a shared-driver branch arm slows both sides almost equally.
    //
    // Each isolated stage is built with bidirectional trim slack: the
    // wire starts slightly snaked (s0 above its geometric length) and
    // well below the stage's slew-limited maximum, so the final
    // balance can both shorten and lengthen it continuously.
    struct IsolatedArm {
        int buffer{-1};     ///< isolation buffer at the merge point
        int child{-1};      ///< chain top the stage drives
        int btype{0};
        int child_load{0};
        double wire_geo{0.0};  ///< lower bound (geometric length)
        double wire_max{0.0};  ///< upper bound (slew-limited run)
    };
    const auto isolate = [&](const Arm& arm) {
        IsolatedArm iso;
        const auto t = ec.choose_buffer(arm.load_type, arm.run);
        iso.btype = t.value_or(tmax);
        iso.child = arm.top;
        iso.child_load = arm.load_type;
        iso.wire_geo = std::max(arm.run, geom::manhattan(mpos, tree.node(arm.top).pos));
        iso.wire_max = std::max(iso.wire_geo, ec.max_feasible_run(iso.btype, arm.load_type));
        const double s0 = std::min(0.5 * (iso.wire_max - iso.wire_geo), 700.0);
        iso.buffer = tree.add_buffer(mpos, iso.btype);
        tree.connect(iso.buffer, arm.top, iso.wire_geo + std::max(0.0, s0));
        return iso;
    };
    IsolatedArm iso1 = isolate(arm1);
    IsolatedArm iso2 = isolate(arm2);
    const int gate1 = model.load_type_for_cap(
        model.buffers().type(iso1.btype).input_cap_ff(model.technology()));
    const int gate2 = model.load_type_for_cap(
        model.buffers().type(iso2.btype).input_cap_ff(model.technology()));

    const int merge = tree.add_merge(mpos);
    tree.connect(merge, iso1.buffer, 0.0);
    tree.connect(merge, iso2.buffer, 0.0);

    // --- Final rebalance under the timing engine --------------------------
    // With pessimistic slews, each isolated arm's subtree delay is an
    // engine-exact function of the wire inside its top stage, so the
    // faster side is balanced by trimming that wire within
    // [geometric, slew-limited] bounds; residuals beyond the trim
    // range are burned with snaking stages below the stage, then
    // trimmed again.
    // Only the side whose knob moved last round needs re-timing; the
    // other side's cached engine result is still exact.
    RootTiming t1{}, t2{};
    bool dirty1 = true, dirty2 = true;
    for (int round = 0; round < 8; ++round) {
        if (dirty1) t1 = time_root(iso1.buffer);
        if (dirty2) t2 = time_root(iso2.buffer);
        dirty1 = dirty2 = false;
        const delaylib::BranchTiming bt =
            model.branch(tmax, gate1, gate2, assumed, 0.0, 0.0, 0.0);
        const double d0 =
            (t1.max_ps + bt.delay_left_ps) - (t2.max_ps + bt.delay_right_ps);
        rec.residual_diff_ps = std::abs(d0);
        if (getenv("CTSIM_DEBUG_MERGE"))
            std::fprintf(stderr, "round %d: t1=%.2f t2=%.2f d0=%.2f\n", round, t1.max_ps,
                         t2.max_ps, d0);
        if (std::abs(d0) <= 0.5) break;

        IsolatedArm& fast = d0 > 0.0 ? iso2 : iso1;
        bool& fast_dirty = d0 > 0.0 ? dirty2 : dirty1;
        // The stage the knob lives in: fast.buffer -> its direct child
        // (the chain top, or the top of a previously inserted snake).
        const int child = tree.node(fast.buffer).children[0];
        const double wc = tree.node(child).parent_wire_um;
        const int lc = model.load_type_for_cap(
            tree.root_input_cap_ff(child, model.technology(), model.buffers()));
        // Bounds: cannot shrink below the geometric distance, cannot
        // grow past the stage's slew budget.
        const double lo_bound =
            std::max(geom::manhattan(tree.node(fast.buffer).pos, tree.node(child).pos), 0.0);
        const double hi_bound = std::max(lo_bound, ec.max_feasible_run(fast.btype, lc));

        const auto stage_delay = [&](double len) { return ec.stage_delay(fast.btype, lc, len); };
        const auto d_at = [&](double len) {
            const double shift = stage_delay(len) - stage_delay(wc);
            return d0 > 0.0 ? d0 - shift : d0 + shift;
        };

        // The fast side must get slower: lengthen toward hi_bound. (The
        // slow side's wire never shrinks here; symmetry comes from the
        // knob being on whichever side is currently fast.)
        if (hi_bound > wc + 1.0 && (d_at(hi_bound) > 0.0) != (d0 > 0.0)) {
            double lo = wc, hi = hi_bound;
            for (int it = 0; it < opt.binary_search_iters; ++it) {
                const double mid = 0.5 * (lo + hi);
                if ((d_at(mid) > 0.0) == (d0 > 0.0))
                    lo = mid;
                else
                    hi = mid;
            }
            tree.node(child).parent_wire_um = 0.5 * (lo + hi);
            engine.wire_changed(child);
            fast_dirty = true;
            rec.residual_diff_ps = std::abs(d_at(0.5 * (lo + hi)));
            // The stage-shift model is exact under assumed slews but
            // only approximate once slews propagate; go around again so
            // the next round re-verifies with the real engine.
            continue;
        }
        if (hi_bound > wc + 1.0 && std::abs(d_at(hi_bound)) < std::abs(d0)) {
            tree.node(child).parent_wire_um = hi_bound;
            engine.wire_changed(child);
            fast_dirty = true;
            rec.residual_diff_ps = std::abs(d_at(hi_bound));
            continue;
        }
        // Trim range exhausted: burn the residual with snaking stages
        // below this stage. The stage wire is simultaneously re-centered
        // inside its [geometric, slew-limit] window -- returning its
        // delay surplus into the snake budget -- so the follow-up
        // rounds regain a bidirectional trim knob.
        if (std::abs(d0) < 3.0) break;  // accept sub-3ps residuals
        const double mid_wire = std::min(std::max(0.5 * (lo_bound + hi_bound), lo_bound), wc);
        const double returned = stage_delay(wc) - stage_delay(mid_wire);
        tree.disconnect(child);
        const SnakeResult sr =
            snake_delay(tree, child, std::abs(d0) * 0.9 + returned, model, opt, ctx);
        tree.connect(fast.buffer, sr.new_root,
                     std::max(mid_wire, geom::manhattan(tree.node(fast.buffer).pos,
                                                        tree.node(sr.new_root).pos)));
        // The snake nodes are fresh (never cached); the one stale
        // component is fast.buffer's, which now drives sr.new_root
        // over a re-centered wire.
        engine.wire_changed(sr.new_root);
        fast_dirty = true;
    }

    rec.merge_node = merge;
    rec.timing = time_root(merge);
    return rec;
}

}  // namespace ctsim::cts
