#include "cts/skew_refine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "cts/balance.h"
#include "cts/incremental_timing.h"
#include "cts/maze.h"
#include "cts/phase_profile.h"
#include "cts/timing.h"
#include "delaylib/eval_cache.h"
#include "geom/point.h"

namespace ctsim::cts {

namespace {

/// One side of a merge-route-shaped merge: the isolation buffer at
/// the merge point and the stage wire below it (the balance knob).
/// Plain values, never references -- snaking reallocates the arena.
struct MergeSide {
    int iso{-1};    ///< isolation buffer (direct child of the merge)
    int knob{-1};   ///< iso's only child; its parent wire is the knob
    int btype{0};   ///< iso's buffer type
    int load{0};    ///< load type the stage wire drives
    double wire{0.0};  ///< current electrical stage-wire length
    double lo{0.0};    ///< geometric lower bound of the knob
    double hi{0.0};    ///< slew-limited upper bound of the knob
};

/// Read `iso`'s side of a merge into `out`; false when the node is
/// not merge-route shaped (not a buffer with exactly one child).
bool read_side(const ClockTree& tree, const delaylib::DelayModel& model,
               delaylib::EvalCache& ec, int iso, MergeSide& out) {
    const TreeNode& b = tree.node(iso);
    if (b.kind != NodeKind::buffer || b.children.size() != 1) return false;
    out.iso = iso;
    out.btype = b.buffer_type;
    out.knob = b.children[0];
    out.wire = tree.node(out.knob).parent_wire_um;
    out.load = model.load_type_for_cap(
        tree.root_input_cap_ff(out.knob, model.technology(), model.buffers()));
    out.lo = geom::manhattan(b.pos, tree.node(out.knob).pos);
    out.hi = std::max(out.lo, ec.max_feasible_run(out.btype, out.load));
    return true;
}

/// Root-frame arrival windows: per node, [min, max] over the sink
/// arrivals below it as reported by ONE engine truth walk from the
/// analysis root. Moves update the windows incrementally with their
/// model-predicted shift; the next sweep's walk replaces every
/// prediction with engine truth. Measuring imbalances in the root
/// frame (instead of re-querying each merge at the assumed slew)
/// keeps the engine's component keys stable -- per-merge root_timing
/// queries re-key every component twice per sweep, which costs more
/// than the whole pass.
///
/// The dirty marks implement the later-sweep skip: a merge whose
/// subtree saw no move since it last measured in-tolerance keeps its
/// imbalance to first order -- root-frame arrivals of an untouched
/// subtree shift by COMMON ancestor-stage terms, which cancel in the
/// two-sided difference; the residual is ancestor-trim slew drift
/// into the subtree, bounded well under the settle band (and buffer
/// swaps, whose slew kick is NOT small, explicitly dirty their whole
/// subtree). Sweeps > 1 therefore revisit only the spine of merges a
/// bump walked through.
struct ArrivalWindows {
    std::vector<double> mn, mx;
    std::vector<int> preorder;  // scratch: root-first traversal
    /// bump() sets the whole ancestor path of a move dirty; rebuild()
    /// PRESERVES existing marks across sweeps.
    std::vector<char> dirty;

    void rebuild(const ClockTree& tree, int root, const TimingReport& rep) {
        constexpr double kInf = std::numeric_limits<double>::infinity();
        mn.assign(tree.size(), kInf);
        mx.assign(tree.size(), -kInf);
        dirty.resize(tree.size(), 1);  // marks persist across sweeps
        for (const SinkTiming& s : rep.sinks) {
            mn[s.node] = s.arrival_ps;
            mx[s.node] = s.arrival_ps;
        }
        preorder.clear();
        preorder.push_back(root);
        for (std::size_t i = 0; i < preorder.size(); ++i)
            for (int c : tree.node(preorder[i]).children) preorder.push_back(c);
        // Reversed preorder visits children before parents.
        for (std::size_t i = preorder.size(); i-- > 1;) {
            const int n = preorder[i];
            const int p = tree.node(n).parent;
            if (p < 0) continue;
            mn[p] = std::min(mn[p], mn[n]);
            mx[p] = std::max(mx[p], mx[n]);
        }
    }

    /// Shift the whole window of `node` by `delta_ps` (a stage above
    /// it got slower/faster), re-fold the ancestor windows and mark
    /// the whole ancestor path dirty. Descendant windows are NOT
    /// touched: deepest-first sweeps read them before any ancestor
    /// moves.
    void bump(const ClockTree& tree, int node, double delta_ps) {
        mn[node] += delta_ps;
        mx[node] += delta_ps;
        for (int a = tree.node(node).parent; a >= 0; a = tree.node(a).parent) {
            dirty[a] = 1;
            double nmn = std::numeric_limits<double>::infinity();
            double nmx = -std::numeric_limits<double>::infinity();
            for (int c : tree.node(a).children) {
                nmn = std::min(nmn, mn[c]);
                nmx = std::max(nmx, mx[c]);
            }
            mn[a] = nmn;
            mx[a] = nmx;
        }
    }
};

/// Merge nodes of the subtree at `root`, deepest-first (children
/// settle before their parents fold their windows), ties by node id
/// for determinism. Entries are (-depth, id), sorted.
std::vector<std::pair<int, int>> merges_deepest_first(const ClockTree& tree, int root) {
    std::vector<std::pair<int, int>> merges;  // (-depth, id)
    std::vector<std::pair<int, int>> dfs{{root, 0}};
    while (!dfs.empty()) {
        const auto [n, depth] = dfs.back();
        dfs.pop_back();
        if (tree.node(n).kind == NodeKind::merge) merges.push_back({-depth, n});
        for (int c : tree.node(n).children) dfs.push_back({c, depth + 1});
    }
    std::sort(merges.begin(), merges.end());
    return merges;
}

/// A sweep that applies no move against an imbalance above this [ps]
/// is a fixed point: bottom-up merging already accepted residuals of
/// this size, and later sweeps could only chase stage-model noise.
constexpr double kSettlePs = 0.5;
/// Per-merge convergence tolerance [ps]: a merge whose two sides
/// agree within this is left alone.
constexpr double kTolPs = 0.05;
/// Full deepest-first sweeps at most; the pass stops earlier at a
/// fixed point.
constexpr int kPasses = 3;

/// Re-solve one merge's two-sided balance with a single model shot
/// against the root-frame windows, applying each move as it is
/// decided: tree write, engine notification, window bump. Returns
/// whether it moved a knob against an imbalance above kSettlePs.
bool refine_merge(ClockTree& tree, int m, const delaylib::DelayModel& model,
                  const SynthesisOptions& opt, IncrementalTiming& engine,
                  delaylib::EvalCache& ec, ArrivalWindows& win, SkewRefineStats& stats,
                  bool count_visit, bool allow_snake, const SynthesisContext* ctx) {
    {
        const TreeNode& node = tree.node(m);
        if (node.kind != NodeKind::merge || node.children.size() != 2) return false;
    }

    MergeSide s1, s2;
    if (!read_side(tree, model, ec, tree.node(m).children[0], s1) ||
        !read_side(tree, model, ec, tree.node(m).children[1], s2))
        return false;
    if (count_visit) stats.merges_visited += 1;

    // Signed imbalance in the root frame; the real branch asymmetry
    // at the merge is already inside these arrivals.
    const double d0 = win.mx[s1.iso] - win.mx[s2.iso];
    win.dirty[m] = 0;  // re-marked below by any move's bump

    MergeSide& fast = d0 > 0.0 ? s2 : s1;
    MergeSide& slow = d0 > 0.0 ? s1 : s2;
    const double delta = std::abs(d0);

    const auto sd = [&](int btype, int load, double w) {
        return ec.stage_delay(btype, load, w);
    };
    // Monotone-increasing bisection: the w in [wlo, whi] whose stage
    // delay lands on `target`.
    const auto solve = [&](const MergeSide& s, double wlo, double whi, double target) {
        double lo = wlo, hi = whi;
        for (int it = 0; it < opt.binary_search_iters; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (sd(s.btype, s.load, mid) <= target)
                lo = mid;
            else
                hi = mid;
        }
        return 0.5 * (lo + hi);
    };
    // Move a stage wire and return its model-predicted delay shift
    // [ps] (positive = this side got slower; 0 = no move).
    const auto move_wire = [&](MergeSide& s, double w) {
        if (std::abs(w - s.wire) < 1e-2) return 0.0;
        const double shift = sd(s.btype, s.load, w) - sd(s.btype, s.load, s.wire);
        tree.node(s.knob).parent_wire_um = w;
        engine.wire_changed(s.knob);
        stats.trims += 1;
        if (shift != 0.0) win.bump(tree, s.iso, shift);
        s.wire = w;
        return shift;
    };

    // Continuous reach: lengthen the fast stage wire, and -- the
    // coupled tap-point slide -- un-snake the slow one.
    const double gain_max = sd(fast.btype, fast.load, fast.hi) -
                            sd(fast.btype, fast.load, fast.wire);
    const double give_max = sd(slow.btype, slow.load, slow.wire) -
                            sd(slow.btype, slow.load, slow.lo);

    if (delta <= kTolPs || gain_max + give_max >= delta) {
        bool applied = false;
        if (delta > kTolPs) {
            // Close the gap by un-snaking the slow side first
            // (recovers wire), lengthening the fast side only for the
            // remainder.
            const double give = std::min(delta, give_max);
            if (give > 0.0) {
                const double shift = move_wire(
                    slow, solve(slow, slow.lo, slow.wire,
                                sd(slow.btype, slow.load, slow.wire) - give));
                applied |= shift != 0.0;
            }
            const double rest = delta - give;
            if (rest > 0.0) {
                const double shift = move_wire(
                    fast, solve(fast, fast.wire, fast.hi,
                                sd(fast.btype, fast.load, fast.wire) + rest));
                applied |= shift != 0.0;
            }
        }
        win.dirty[m] = applied ? 1 : 0;
        return applied && delta > kSettlePs;
    }

    // Continuous knobs exhausted: apply both in full, then close the
    // remainder with a discrete move.
    bool moved = false;
    moved |= move_wire(fast, fast.hi) != 0.0;
    moved |= move_wire(slow, slow.lo) != 0.0;
    const double residual = delta - gain_max - give_max;

    // Buffer-size swap on an isolation buffer: a type whose reachable
    // stage-delay window covers the target lets a bisected wire land
    // on it exactly -- slowing the fast side, or (when no fast-side
    // type covers) speeding the slow side up. Among covering types
    // the one with the smallest zero-snake delay wins (deterministic,
    // least aggressive).
    const auto try_swap = [&](MergeSide& s, double target) {
        int swap_t = -1;
        double swap_hi = 0.0;
        double swap_dmin = 0.0;
        for (int t = 0; t < model.buffers().count(); ++t) {
            if (t == s.btype) continue;
            const double whi = std::max(s.lo, ec.max_feasible_run(t, s.load));
            const double dmin = sd(t, s.load, s.lo);
            const double dmax = sd(t, s.load, whi);
            if (dmin <= target && target <= dmax && (swap_t < 0 || dmin < swap_dmin)) {
                swap_t = t;
                swap_hi = whi;
                swap_dmin = dmin;
            }
        }
        if (swap_t < 0) return false;
        const double before = sd(s.btype, s.load, s.wire);
        s.btype = swap_t;
        s.hi = swap_hi;
        const double w = std::max(solve(s, s.lo, swap_hi, target), s.lo);
        s.wire = w;
        tree.node(s.iso).buffer_type = swap_t;
        engine.buffer_changed(s.iso);
        stats.buffer_swaps += 1;
        tree.node(s.knob).parent_wire_um = w;
        engine.wire_changed(s.knob);
        win.bump(tree, s.iso, sd(s.btype, s.load, w) - before);
        win.dirty[m] = 1;
        // A swap changes the output slew delivered into the whole
        // subtree, which can shift a descendant merge's two sides
        // UNEQUALLY (unlike the common-mode ancestor terms the dirty
        // skip reasons about) -- re-examine every merge below next
        // sweep. Swaps are rare, so the walk is cheap.
        std::vector<int> stack{s.iso};
        while (!stack.empty()) {
            const int n = stack.back();
            stack.pop_back();
            if (tree.node(n).kind == NodeKind::merge) win.dirty[n] = 1;
            for (int c : tree.node(n).children) stack.push_back(c);
        }
        return true;
    };
    if (try_swap(fast, sd(fast.btype, fast.load, fast.wire) + residual) ||
        try_swap(slow, sd(slow.btype, slow.load, slow.wire) - residual))
        return true;

    // Residual beyond every knob: burn it with snake stages below the
    // fast stage, re-centering the stage wire so the next sweep
    // regains a bidirectional trim knob (merge_route's exhaustion
    // move, same notification pattern).
    win.dirty[m] = moved ? 1 : 0;
    const bool changed = moved && delta > kSettlePs;
    if (!allow_snake || residual <= 3.0) return changed;
    const double mid_wire =
        std::min(std::max(0.5 * (fast.lo + fast.hi), fast.lo), fast.wire);
    const double returned = sd(fast.btype, fast.load, fast.wire) -
                            sd(fast.btype, fast.load, mid_wire);
    // Snaking cannot add less than the smallest zero-wire stage
    // delay, so a small burn target can overshoot -- and an
    // unabsorbed overshoot seeds a LARGER imbalance that the parent
    // would then snake against, avalanching up the spine. Dry-run the
    // snake (exact by construction) and apply it only when the
    // predicted landing error either strictly improves on accepting
    // the residual, or fits inside the re-centered stage's trim range
    // so the next sweep can absorb it continuously.
    const double burn = residual * 0.9 + returned;
    const SnakePreview pv = snake_delay_preview(tree, fast.knob, burn, model, opt);
    if (pv.top_type < 0) return changed;
    // After the snake, the re-centered stage drives the snake's TOP
    // buffer, whose load class generally differs from the old child's
    // -- the landing error and absorption ranges must be computed
    // against that new load or the gate (and the window shift below)
    // mispredicts by the load-class delta.
    const int snake_load = model.load_type_for_cap(
        model.buffers().type(pv.top_type).input_cap_ff(model.technology()));
    const double stage_after = sd(fast.btype, snake_load, mid_wire);
    const double net =
        pv.added_delay_ps + stage_after - sd(fast.btype, fast.load, fast.wire);
    const double err = residual - net;
    const double absorb = err < 0.0
        ? stage_after - sd(fast.btype, snake_load, fast.lo)
        : sd(fast.btype, snake_load, fast.hi) - stage_after;
    if (std::abs(err) >= residual - 0.5 && std::abs(err) > 0.9 * absorb) return changed;
    const double stage_shift = stage_after - sd(fast.btype, fast.load, fast.wire);
    tree.disconnect(fast.knob);
    const SnakeResult sr = snake_delay(tree, fast.knob, burn, model, opt, ctx);
    tree.connect(fast.iso, sr.new_root,
                 std::max(mid_wire, geom::manhattan(tree.node(fast.iso).pos,
                                                    tree.node(sr.new_root).pos)));
    // Snake nodes are fresh (never cached); the one stale component
    // is fast.iso's, which now drives sr.new_root.
    engine.wire_changed(sr.new_root);
    stats.snake_stages += sr.stages;
    // Window sizes track the pre-existing arena; the fresh snake
    // nodes only ever sit below fast.iso, whose window we shift by
    // the net predicted change (snaked delay plus the re-centered
    // stage's delta at its new load).
    win.bump(tree, fast.iso, sr.added_delay_ps + stage_shift);
    win.dirty[m] = 1;
    return true;
}

}  // namespace

SkewRefineStats refine_skew(ClockTree& tree, int root, const delaylib::DelayModel& model,
                            const SynthesisOptions& opt, IncrementalTiming& engine,
                            const SynthesisContext* ctx) {
    ScopedPhase phase(profile_of(ctx), Phase::refine);
    SkewRefineStats stats;
    delaylib::EvalCache& ec = eval_cache_for(model, opt);

    // Merge nodes deepest-first; snaking never adds merge nodes, so
    // one list serves every sweep.
    const std::vector<std::pair<int, int>> merges = merges_deepest_first(tree, root);

    ArrivalWindows win;
    for (int p = 0; p < kPasses; ++p) {
        // One truth walk per sweep: every window (and every prior
        // sweep's predicted shift) is replaced by engine values.
        const TimingReport rep = engine.report(root);
        win.rebuild(tree, root, rep);
        if (p == 0) stats.initial_skew_ps = rep.skew_ps();
        if (merges.empty()) break;

        bool changed = false;
        // Snakes land coarsely and rely on a FOLLOW-UP sweep to trim
        // the re-centered stage; the last allowed sweep must not
        // leave such an unabsorbed landing behind.
        const bool allow_snake = p + 1 < kPasses;
        for (const auto& [negdepth, m] : merges) {
            // Cooperative cancellation between merges: every applied
            // move is a complete, engine-notified edit, so stopping
            // here leaves a valid tree (stats.cancelled records the
            // short coverage).
            if (opt.cancel && opt.cancel->checked()) {
                stats.cancelled = true;
                break;
            }
            if (p > 0 && !win.dirty[m]) continue;
            changed |=
                refine_merge(tree, m, model, opt, engine, ec, win, stats, p == 0, allow_snake,
                             ctx);
        }
        stats.passes = p + 1;
        if (!changed || stats.cancelled) break;
    }

    const RootTiming t1 = engine.root_timing(root);
    stats.final_skew_ps = t1.max_ps - t1.min_ps;
    return stats;
}

}  // namespace ctsim::cts
