#include "cts/wire_reclaim.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "cts/balance.h"
#include "cts/checkpoint.h"
#include "cts/incremental_timing.h"
#include "cts/maze.h"
#include "cts/phase_profile.h"
#include "cts/refine_common.h"
#include "util/dag_executor.h"
#include "util/thread_pool.h"

namespace ctsim::cts {

namespace {

using refine_detail::ArrivalWindows;
using refine_detail::MergeSide;
using refine_detail::read_side;

/// Smallest delay move worth an edit [ps].
constexpr double kMovePs = 1e-3;
/// Smallest wire change worth an edit [um].
constexpr double kWireEps = 1e-2;
/// Predicted net reclaim below which a merge is not granted [um].
constexpr double kMinGrantUm = 2.0;
/// Geometric coincidence test for ballast stages [um].
constexpr double kSnakePosEps = 1e-6;
/// A ballast removal may land at most this far past its target; the
/// schedule's push-down re-routes smaller landings, larger ones are
/// rejected (the removal stays for a sweep with more room).
constexpr double kOvershootPs = 1.0;

/// A trimmable fully-snaked wire on one side's chain: electrical
/// length above `node`, zero geometric span, driven by the buffer
/// directly above. Stage wires are NOT listed here (MergeSide covers
/// them); routed chain wires follow their traces and are never
/// trimmable.
struct TrimWire {
    int node{-1};
    int driver{0};
    int load{0};
    double wire{0.0};
};

/// One side of a merge as the reclamation pass sees it: the stage
/// knob (refine_common.h) plus the single-child chain below it down
/// to the next merge or sink -- snakable wires, at most one removable
/// ballast stage per sweep, and the merge the chain lands on (the
/// capacity/assignment link of the schedule).
struct Side {
    MergeSide ms;
    std::vector<TrimWire> snakes;  ///< top-down; excludes the stage wire
    int ballast{-1};               ///< topmost removable ballast buffer
    int ballast_parent{-1};
    int below{-1};  ///< first merge at/below the chain's end, -1 = sink
};

bool scan_side(const ClockTree& tree, const delaylib::DelayModel& model,
               delaylib::EvalCache& ec, int iso, Side& out) {
    out.snakes.clear();
    out.ballast = -1;
    out.ballast_parent = -1;
    out.below = -1;
    if (!read_side(tree, model, ec, iso, out.ms)) return false;
    // Walk the single-child buffer chain below the knob. Each wire
    // above a chain node is a full stage driven by the buffer above
    // it; only fully-snaked wires (coincident endpoints) are balance
    // ballast -- routed wires follow their traces.
    int n = out.ms.knob;
    while (tree.node(n).kind == NodeKind::buffer && tree.node(n).children.size() == 1) {
        const int c = tree.node(n).children[0];
        const bool coincident =
            geom::manhattan(tree.node(n).pos, tree.node(c).pos) < kSnakePosEps;
        if (coincident) {
            if (out.ballast < 0) {
                out.ballast = n;
                out.ballast_parent = tree.node(n).parent;
            }
            if (tree.node(c).parent_wire_um > kWireEps)
                out.snakes.push_back(
                    {c, tree.node(n).buffer_type,
                     model.load_type_for_cap(tree.root_input_cap_ff(
                         c, model.technology(), model.buffers())),
                     tree.node(c).parent_wire_um});
        }
        n = c;
    }
    if (tree.node(n).kind == NodeKind::merge) out.below = n;
    return true;
}

/// One planned tree edit of a side move (applied in order).
struct PlannedEdit {
    enum class Kind { set_wire, remove_ballast };
    Kind kind{Kind::set_wire};
    int node{-1};  ///< set_wire: wire above this node; remove_ballast: the ballast
    double new_wire_um{0.0};
};

/// A side's planned reclamation: model-predicted speedup (positive =
/// this side's subtree gets faster), net wirelength removed (negative
/// for a give-back) and the edits realizing it.
struct SideMove {
    double achieved_ps{0.0};
    double reclaim_um{0.0};
    std::vector<PlannedEdit> edits;
};

struct RemovalPlan {
    bool ok{false};
    double freed_ps{0.0};      ///< delay the removal itself frees
    int stage_load{0};         ///< load class of the stage wire after removal
    double stage_hi{0.0};      ///< slew-limited stage range after removal
    bool knob_removal{false};  ///< ballast IS the knob (stage re-lands on its child)
};

RemovalPlan plan_removal(const ClockTree& tree, const delaylib::DelayModel& model,
                         delaylib::EvalCache& ec, const Side& s) {
    RemovalPlan rp;
    if (s.ballast < 0) return rp;
    const TreeNode& x = tree.node(s.ballast);
    const int c = x.children[0];
    const int load_c = model.load_type_for_cap(
        tree.root_input_cap_ff(c, model.technology(), model.buffers()));
    const double snake_wire = tree.node(c).parent_wire_um;
    const double freed_stage = ec.stage_delay(x.buffer_type, load_c, snake_wire);
    rp.knob_removal = s.ballast == s.ms.knob;
    if (rp.knob_removal) {
        rp.stage_load = load_c;
        rp.stage_hi = std::max(s.ms.lo, ec.max_feasible_run(s.ms.btype, load_c));
        // The stage wire is re-solved inside [lo, stage_hi] right
        // after the splice, so slew feasibility is by construction.
        rp.freed_ps = freed_stage;
        rp.ok = true;
        return rp;
    }
    // Deep ballast: the splice leaves its parent driving the same
    // wire into the ballast's child -- only slew-safe when that run
    // holds the target at the heavier load.
    const TreeNode& p = tree.node(s.ballast_parent);
    if (p.kind != NodeKind::buffer) return rp;
    if (x.parent_wire_um > ec.max_feasible_run(p.buffer_type, load_c)) return rp;
    const int load_x = model.load_type_for_cap(
        model.buffers().type(x.buffer_type).input_cap_ff(model.technology()));
    rp.freed_ps = freed_stage +
                  ec.stage_delay(p.buffer_type, load_x, x.parent_wire_um) -
                  ec.stage_delay(p.buffer_type, load_c, x.parent_wire_um);
    rp.stage_load = s.ms.load;
    rp.stage_hi = s.ms.hi;
    rp.ok = true;
    return rp;
}

/// Trim slack of the stage wire [ps].
double stage_give(delaylib::EvalCache& ec, const MergeSide& m) {
    return std::max(0.0, ec.stage_delay(m.btype, m.load, m.wire) -
                             ec.stage_delay(m.btype, m.load, m.lo));
}

double snake_gives(delaylib::EvalCache& ec, const Side& s) {
    double sum = 0.0;
    for (const TrimWire& w : s.snakes)
        sum += std::max(0.0, ec.stage_delay(w.driver, w.load, w.wire) -
                                 ec.stage_delay(w.driver, w.load, 0.0));
    return sum;
}

/// Largest delay this side's OWN wires can shed [ps], honest about
/// the ballast quantum: a removal is counted only when its smallest
/// reachable landing (all the freed delay the re-solved stage wire
/// cannot give back) connects to the continuous range -- a gapped
/// removal cannot be scheduled without overshooting, so advertising
/// it would make ancestors trim against slack this side cannot
/// deliver (the 20-30 ps imbalance cliff the schedule exists to
/// avoid).
double side_slack(const ClockTree& tree, const delaylib::DelayModel& model,
                  delaylib::EvalCache& ec, const Side& s) {
    const double cont = stage_give(ec, s.ms) + snake_gives(ec, s);
    const RemovalPlan rp = plan_removal(tree, model, ec, s);
    if (!rp.ok) return cont;
    const double stage_now = ec.stage_delay(s.ms.btype, s.ms.load, s.ms.wire);
    const double before = stage_now + rp.freed_ps;
    const double removal_min =
        before - ec.stage_delay(s.ms.btype, rp.stage_load, rp.stage_hi);
    const double removal_max =
        before - ec.stage_delay(s.ms.btype, rp.stage_load, s.ms.lo);
    if (removal_min <= cont + kOvershootPs) return std::max(cont, removal_max);
    return cont;
}

/// Plan the edits realizing a `t` ps speedup on side `s` (t >= 0;
/// trims and at most one ballast removal). Pure; the caller applies
/// the edits (or discards a dry run) and trusts achieved_ps, not t.
SideMove plan_side(const ClockTree& tree, const delaylib::DelayModel& model,
                   delaylib::EvalCache& ec, const Side& s, double t,
                   const SynthesisOptions& opt) {
    SideMove mv;
    if (t < kMovePs) return mv;
    const MergeSide& m = s.ms;
    const int iters = opt.binary_search_iters;
    const double stage_now = ec.stage_delay(m.btype, m.load, m.wire);

    const auto plan_trim_only = [&]() {
        // Consume continuous gives top-down: the stage wire first,
        // then the fully-snaked chain wires.
        double remaining = t;
        {
            const double give = stage_give(ec, m);
            const double use = std::min(remaining, give);
            if (use >= kMovePs) {
                const double w = std::clamp(
                    refine_detail::solve_stage_wire(ec, m.btype, m.load, m.lo, m.wire,
                                                    stage_now - use, iters),
                    m.lo, m.wire);
                if (w < m.wire - kWireEps) {
                    mv.edits.push_back({PlannedEdit::Kind::set_wire, m.knob, w});
                    const double got = stage_now - ec.stage_delay(m.btype, m.load, w);
                    mv.achieved_ps += got;
                    mv.reclaim_um += m.wire - w;
                    remaining -= got;
                }
            }
        }
        for (const TrimWire& sw : s.snakes) {
            if (remaining < kMovePs) break;
            const double now = ec.stage_delay(sw.driver, sw.load, sw.wire);
            const double give =
                std::max(0.0, now - ec.stage_delay(sw.driver, sw.load, 0.0));
            const double use = std::min(remaining, give);
            if (use < kMovePs) continue;
            const double w = std::clamp(
                refine_detail::solve_stage_wire(ec, sw.driver, sw.load, 0.0, sw.wire,
                                                now - use, iters),
                0.0, sw.wire);
            if (w >= sw.wire - kWireEps) continue;
            mv.edits.push_back({PlannedEdit::Kind::set_wire, sw.node, w});
            const double got = now - ec.stage_delay(sw.driver, sw.load, w);
            mv.achieved_ps += got;
            mv.reclaim_um += sw.wire - w;
            remaining -= got;
        }
    };

    const double continuous = stage_give(ec, m) + snake_gives(ec, s);
    if (t <= continuous + kMovePs) {
        plan_trim_only();
        return mv;
    }

    // Continuous range exhausted: remove the ballast stage and land
    // the stage wire on the remainder (trimming past it or giving
    // part of the freed delay back).
    const RemovalPlan rp = plan_removal(tree, model, ec, s);
    if (rp.ok) {
        const int child = tree.node(s.ballast).children[0];
        const double snake_wire = tree.node(child).parent_wire_um;
        const int stage_node = rp.knob_removal ? child : m.knob;
        const double before = stage_now + rp.freed_ps;
        const double target =
            std::clamp(before - t, ec.stage_delay(m.btype, rp.stage_load, m.lo),
                       ec.stage_delay(m.btype, rp.stage_load, rp.stage_hi));
        const double w = std::clamp(
            refine_detail::solve_stage_wire(ec, m.btype, rp.stage_load, m.lo,
                                            rp.stage_hi, target, iters),
            m.lo, rp.stage_hi);
        const double achieved = before - ec.stage_delay(m.btype, rp.stage_load, w);
        const double reclaim = snake_wire + (m.wire - w);
        if (achieved <= t + kOvershootPs && reclaim > 0.0) {
            mv.edits.push_back({PlannedEdit::Kind::remove_ballast, s.ballast, 0.0});
            if (rp.knob_removal || std::abs(w - m.wire) > kWireEps)
                mv.edits.push_back({PlannedEdit::Kind::set_wire, stage_node, w});
            mv.achieved_ps = achieved;
            mv.reclaim_um = reclaim;
            return mv;
        }
    }
    plan_trim_only();
    return mv;
}

struct SweepCounts {
    int trims{0};
    int removals{0};
};

void apply_move(ClockTree& tree, IncrementalTiming& engine, EditJournal& journal,
                const SideMove& mv, SweepCounts& counts) {
    for (const PlannedEdit& e : mv.edits) {
        switch (e.kind) {
            case PlannedEdit::Kind::set_wire:
                journal.record_wire(e.node, tree.node(e.node).parent_wire_um);
                tree.node(e.node).parent_wire_um = e.new_wire_um;
                engine.wire_changed(e.node);
                ++counts.trims;
                break;
            case PlannedEdit::Kind::remove_ballast: {
                const int child = tree.node(e.node).children[0];
                remove_snake_stage(tree, e.node, journal);
                engine.wire_changed(child);
                ++counts.removals;
                break;
            }
        }
    }
}

/// Per-merge state of one sweep's schedule.
struct MergePlan {
    bool shaped{false};
    Side A, B;
    double delta{0.0};   ///< mx[A.iso] - mx[B.iso] at sweep start
    double slackA{0.0};  ///< own-wire slack (granted merges donate it)
    double slackB{0.0};
    double r{0.0};         ///< balanced subtree speedup capacity [ps]
    double predicted{0.0};  ///< local predicted reclaim [um], for ranking
    bool granted{false};
};

/// Scan one merge into its MergePlan slot: shape, sweep-start
/// imbalance, own-wire slacks and the ranking proxy (the wire this
/// merge's own slack would reclaim if the schedule routed all of
/// it). Pure reads of (tree, win) plus EvalCache values -- safe to
/// fan out, one disjoint slot per merge.
void scan_merge(const ClockTree& tree, const delaylib::DelayModel& model,
                delaylib::EvalCache& ec, const SynthesisOptions& opt,
                const ArrivalWindows& win, int m, MergePlan& mp) {
    const TreeNode& node = tree.node(m);
    if (node.kind != NodeKind::merge || node.children.size() != 2) return;
    if (!scan_side(tree, model, ec, node.children[0], mp.A) ||
        !scan_side(tree, model, ec, node.children[1], mp.B))
        return;
    mp.shaped = true;
    mp.delta = win.mx[mp.A.ms.iso] - win.mx[mp.B.ms.iso];
    mp.slackA = side_slack(tree, model, ec, mp.A);
    mp.slackB = side_slack(tree, model, ec, mp.B);
    const double tA = std::min(mp.slackA, mp.slackB + mp.delta);
    if (tA >= kMovePs) {
        const SideMove mvA = plan_side(tree, model, ec, mp.A, tA, opt);
        const SideMove mvB =
            plan_side(tree, model, ec, mp.B,
                      std::clamp(mvA.achieved_ps - mp.delta, 0.0, mp.slackB), opt);
        mp.predicted = mvA.reclaim_um + mvB.reclaim_um;
    }
}

SweepCounts run_sweep(ClockTree& tree, const std::vector<std::pair<int, int>>& merges,
                      const std::vector<int>& deps, const std::vector<char>& top_merge,
                      const delaylib::DelayModel& model, delaylib::EvalCache& ec,
                      const SynthesisOptions& opt, IncrementalTiming& engine,
                      const ArrivalWindows& win, int batch, EditJournal& journal,
                      util::ThreadPool* pool) {
    const bool parallel = pool != nullptr && pool->size() > 1 && merges.size() > 1;

    // --- scan + rank ----------------------------------------------
    // The scan is a pure read fan-out (disjoint MergePlan slots);
    // candidate collection and ranking stay serial so grants are a
    // deterministic function of the predicted values alone.
    std::vector<MergePlan> plan(tree.size());
    if (!parallel) {
        for (const auto& [negdepth, m] : merges)
            scan_merge(tree, model, ec, opt, win, m, plan[m]);
    } else {
        pool->parallel_for(static_cast<int>(merges.size()), [&](int idx) {
            profile::ScopedPhase sp(profile::Phase::reclaim);
            delaylib::EvalCache& tec = eval_cache_for(model, opt);
            scan_merge(tree, model, tec, opt, win, merges[idx].second,
                       plan[merges[idx].second]);
        });
    }
    std::vector<std::pair<double, int>> cand;  // (predicted um, id)
    for (const auto& [negdepth, m] : merges)
        if (plan[m].predicted >= kMinGrantUm) cand.push_back({plan[m].predicted, m});
    std::sort(cand.begin(), cand.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
    const int take = std::min<int>(batch, static_cast<int>(cand.size()));
    for (int i = 0; i < take; ++i) plan[cand[i].second].granted = true;

    SweepCounts counts;
    if (take == 0) return counts;

    // --- capacity (bottom-up min-propagation) ---------------------
    // r(m): the speedup m's subtree can deliver with BOTH sides
    // landing on it exactly -- the side's own slack (granted merges
    // only) plus whatever the merge below the chain can deliver,
    // minus the pre-existing imbalance the slower side must first
    // close. Balance everywhere is what keeps the root skew pinned
    // while the tree gets faster and shorter.
    for (const auto& [negdepth, m] : merges) {
        MergePlan& mp = plan[m];
        if (!mp.shaped) continue;
        const double sA = mp.A.below >= 0 ? plan[mp.A.below].r : 0.0;
        const double sB = mp.B.below >= 0 ? plan[mp.B.below].r : 0.0;
        const double rA = sA + (mp.granted ? mp.slackA : 0.0);
        const double rB = sB + (mp.granted ? mp.slackB : 0.0);
        mp.r = std::max(0.0, std::min(rA - std::max(mp.delta, 0.0),
                                      rB - std::max(-mp.delta, 0.0)));
    }

    // --- assignment (top-down) ------------------------------------
    // Top merges take their full capacity (a uniform speedup of
    // everything below the analysis root is pure insertion-delay
    // reduction); every merge splits its target into own-wire trims
    // (granted) and a push-down to the merge below each chain,
    // re-deriving the push-down from the ACHIEVED own trim so
    // solve/quantization noise lands in the later sweeps' truth walk
    // instead of compounding down the spine.
    std::vector<double> alloc(tree.size(), 0.0);
    // Plan one merge's two side moves and push the remainder down its
    // chains. Reads this merge's alloc[] (written only by its nearest
    // ancestor merge) and its own side chains (written only by its
    // own planned edits -- ancestor edits stop at the chain ABOVE
    // this merge), so with the ancestor applied it reads exactly the
    // serial tree.
    const auto plan_merge = [&](int m, delaylib::EvalCache& cache, SideMove& outA,
                                SideMove& outB) {
        MergePlan& mp = plan[m];
        if (!mp.shaped) return;
        if (top_merge[m]) alloc[m] = mp.r;
        const double u = std::min(alloc[m], mp.r);
        if (u < kMovePs && std::abs(mp.delta) < kMovePs) return;
        const auto side = [&](Side& s, double d_fix, double slack, SideMove& out) {
            double t = std::min(u + d_fix, (s.below >= 0 ? plan[s.below].r : 0.0) +
                                               (mp.granted ? slack : 0.0));
            const double own = mp.granted ? std::min(t, slack) : 0.0;
            out = plan_side(tree, model, cache, s, own, opt);
            if (s.below >= 0)
                alloc[s.below] = std::clamp(t - out.achieved_ps, 0.0, plan[s.below].r);
        };
        side(mp.A, std::max(mp.delta, 0.0), mp.slackA, outA);
        side(mp.B, std::max(-mp.delta, 0.0), mp.slackB, outB);
    };
    if (!parallel) {
        for (std::size_t i = merges.size(); i-- > 0;) {
            // A trip mid-assignment stops planning further moves; the
            // caller then rolls the partial batch back through the
            // journal, so stopping anywhere in this loop is safe.
            if (opt.cancel && opt.cancel->cancelled()) break;
            SideMove mvA, mvB;
            plan_merge(merges[i].second, ec, mvA, mvB);
            if (!mvA.edits.empty()) apply_move(tree, engine, journal, mvA, counts);
            if (!mvB.edits.empty()) apply_move(tree, engine, journal, mvB, counts);
        }
    } else {
        // DAG walk (docs/parallelism.md): node j is the j-th merge of
        // the REVERSED (shallowest-first) list, so rank order is the
        // serial top-down visit order -- the journal records the
        // node-for-node identical edit sequence and rollback stays
        // exact. Planning (including the alloc[] push-down, consumed
        // by dependents' runs) happens in the run phase; tree edits,
        // engine notifications and the journal in the commit lane.
        // Ballast removal only splices links (no arena growth), so
        // concurrent plan reads need no tree lock: every node a plan
        // touches is on its own spine, committed before it runs.
        const std::size_t n = merges.size();
        util::DagExecutor dag;
        std::vector<std::pair<SideMove, SideMove>> moves(n);
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t i = n - 1 - j;
            const int m = merges[i].second;
            dag.add_node(
                [&, j, m] {
                    profile::ScopedPhase sp(profile::Phase::reclaim);
                    delaylib::EvalCache& tec = eval_cache_for(model, opt);
                    plan_merge(m, tec, moves[j].first, moves[j].second);
                },
                [&, j] {
                    // Uncounted poll, mirroring the serial loop head:
                    // the trip point never shows in the returned tree
                    // (the caller rolls the batch back wholesale), so
                    // it needs no deterministic placement -- stopping
                    // the lane just avoids planning a doomed batch.
                    if (opt.cancel && opt.cancel->cancelled()) {
                        dag.request_stop();
                        return;
                    }
                    profile::ScopedPhase sp(profile::Phase::reclaim);
                    if (!moves[j].first.edits.empty())
                        apply_move(tree, engine, journal, moves[j].first, counts);
                    if (!moves[j].second.edits.empty())
                        apply_move(tree, engine, journal, moves[j].second, counts);
                });
            // deps names each merge's nearest ancestor in the
            // deepest-first list; reversed, the ancestor sits at a
            // LOWER node index -- the executor's required direction.
            if (deps[i] >= 0) dag.add_edge(static_cast<int>(n - 1 - deps[i]),
                                           static_cast<int>(j));
        }
        dag.execute(pool);
        profile::add_seconds(profile::Phase::exec_idle, dag.stats().idle_s);
        profile::count_events(profile::Counter::dag_tasks,
                              static_cast<std::uint64_t>(dag.stats().committed));
        profile::count_events(profile::Counter::dag_steals, dag.stats().steals);
    }
    return counts;
}

}  // namespace

WireReclaimStats reclaim_wire(ClockTree& tree, int root, const delaylib::DelayModel& model,
                              const SynthesisOptions& opt, IncrementalTiming& engine,
                              util::ThreadPool* pool, const ReclaimCheckpoint* resume) {
    profile::ScopedPhase phase(profile::Phase::reclaim);
    const auto wall0 = std::chrono::steady_clock::now();
    WireReclaimStats stats;
    delaylib::EvalCache& ec = eval_cache_for(model, opt);

    // Ballast removal never adds or removes merge nodes, so one
    // deepest-first list serves every sweep -- and since it never
    // restructures merge ancestry either, so does the dependency
    // relation the DAG sweeps hang their edges on.
    const std::vector<std::pair<int, int>> merges =
        refine_detail::merges_deepest_first(tree, root);
    std::vector<int> deps;
    if (pool != nullptr && pool->size() > 1 && merges.size() > 1)
        deps = refine_detail::nearest_ancestor_merge(tree, root, merges);

    // The top merge: the unique merge with no other merge between it
    // and the analysis root, on a `root` that is a whole tree
    // (parentless; the root may be a buffer/steiner chain above it).
    // Only it may take a free common-mode allocation -- when `root`
    // hangs under a larger tree, shifting the subtree's total latency
    // would unbalance the parent merge OUTSIDE this pass's
    // verification view, and two sibling top merges under a bare
    // fan-out root would shift against each other; both cases seed
    // nothing and reclaim only through balance fixes.
    std::vector<char> top_merge(tree.size(), 0);
    if (tree.node(root).parent < 0) {
        int top_count = 0;
        int top_id = -1;
        for (const auto& [negdepth, m] : merges) {
            bool top = true;
            for (int a = tree.node(m).parent; a >= 0; a = tree.node(a).parent) {
                if (tree.node(a).kind == NodeKind::merge) {
                    top = false;
                    break;
                }
                if (a == root) break;
            }
            if (top) {
                ++top_count;
                top_id = m;
            }
        }
        if (top_count == 1) top_merge[top_id] = 1;
    }

    TimingReport rep = engine.report(root);
    double skew_budget = 0.0;
    double slew_budget = 0.0;
    int batch = 0;
    int first_sweep = 0;
    if (resume != nullptr) {
        // Continue a cut pass at its next sweep boundary: the
        // accumulated stats, the loop cursor and the (possibly
        // halved) batch grant come from the snapshot -- and so do the
        // WHOLE-pass budgets, which were frozen against the PRE-pass
        // engine report that the partially reclaimed tree can no
        // longer reproduce. `rep` itself needs no persistence: the
        // engine is a pure function of the tree, so the recomputed
        // report equals the cut run's last verified one bit-for-bit.
        stats = resume->stats;
        stats.cancelled = false;
        stats.wall_s = 0.0;
        skew_budget = resume->skew_budget_ps;
        slew_budget = resume->slew_budget_ps;
        batch = resume->batch;
        first_sweep = resume->next_sweep;
    } else {
        stats.initial_skew_ps = rep.skew_ps();
        stats.final_skew_ps = rep.skew_ps();
        stats.initial_wirelength_um = tree.wire_length_below(root);
        stats.final_wirelength_um = stats.initial_wirelength_um;
        // The WHOLE pass's verified budgets: skew against the
        // pre-pass engine skew plus the tolerance, worst component
        // slew against the pre-pass worst (or the synthesis target,
        // whichever is larger -- trims only shorten wires, but a
        // ballast removal rehangs a run on a heavier load).
        skew_budget = rep.skew_ps() + std::max(0.0, opt.wire_reclaim_skew_tol_ps);
        slew_budget = std::max(rep.worst_slew_ps, opt.slew_target_ps) + 0.5;
        batch = std::max(1, opt.wire_reclaim_batch);
    }
    if (merges.empty()) return stats;

    ArrivalWindows win;
    const int passes = std::max(1, opt.wire_reclaim_passes);
    for (int p = first_sweep; p < passes && batch > 0; ++p) {
        // Cooperative cancellation at the sweep boundary: the tree is
        // in its last verified state here, so stopping is free.
        if (opt.cancel && opt.cancel->checked()) {
            stats.cancelled = true;
            break;
        }
        // The previous sweep's verification walk doubles as this
        // sweep's measurement: one truth walk per sweep.
        win.rebuild(tree, root, rep);

        EditJournal journal;
        const SweepCounts counts = run_sweep(tree, merges, deps, top_merge, model, ec,
                                             opt, engine, win, batch, journal, pool);
        if (opt.cancel && opt.cancel->cancelled()) {
            // Tripped mid-sweep: the batch is unverified. Undo it
            // wholesale (recorded inverse edits, engine re-notified)
            // so the returned tree is exactly the last verified one.
            journal.undo(tree, engine);
            stats.cancelled = true;
            break;
        }
        if (journal.empty()) break;
        stats.passes = p + 1;

        TimingReport ver = engine.report(root);
        if (std::getenv("CTSIM_RECLAIM_DEBUG"))
            std::fprintf(stderr,
                         "reclaim sweep %d: batch %d edits %d skew %.3f (budget %.3f) "
                         "slew %.3f (budget %.3f)\n",
                         p, batch, counts.trims + counts.removals, ver.skew_ps(),
                         skew_budget, ver.worst_slew_ps, slew_budget);
        if (ver.skew_ps() > skew_budget || ver.worst_slew_ps > slew_budget) {
            // The compounded model error of this batch exceeded the
            // budget: restore the exact pre-batch tree (and engine
            // state) and retry with half the grants. `rep` still
            // describes the restored tree, so the next sweep re-ranks
            // identically and grants a prefix.
            journal.undo(tree, engine);
            ++stats.batches_rolled_back;
            batch /= 2;
        } else {
            ++stats.batches_accepted;
            stats.trims += counts.trims;
            stats.snake_removals += counts.removals;
            rep = std::move(ver);
            stats.final_skew_ps = rep.skew_ps();
        }
        // Sweep-boundary snapshot (cts/checkpoint.h): accepted or
        // rolled back alike, the tree is in a VERIFIED state here --
        // exactly what a resumed pass must continue from. Publish
        // failure is non-fatal (the pass keeps its in-memory state).
        if (opt.checkpoint != nullptr) {
            ReclaimCheckpoint ck;
            ck.stats = stats;
            ck.next_sweep = p + 1;
            ck.batch = batch;
            ck.skew_budget_ps = skew_budget;
            ck.slew_budget_ps = slew_budget;
            (void)opt.checkpoint->save(CheckpointPhase::reclaim_sweep, tree, &ck);
        }
    }

    stats.final_wirelength_um = tree.wire_length_below(root);
    stats.reclaimed_um = stats.initial_wirelength_um - stats.final_wirelength_um;
    stats.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
    return stats;
}

}  // namespace ctsim::cts
