#include "cts/hstructure.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>

#include "cts/incremental_timing.h"

namespace ctsim::cts {

namespace {

/// Saved attachment of a child root, so pairings can be undone/redone.
struct Attachment {
    int child{-1};
    int parent{-1};
    double wire{0.0};
};

/// Detach notifies BEFORE the disconnect so the engine can still walk
/// the parent chain: the component containing the wire above `child`
/// and every ancestor aggregate go stale. (The child's own subtree is
/// untouched by the move, but subtree_replaced is the notification
/// whose contract covers arbitrary structural change, and ablation
/// runs are not hot enough to justify a narrower promise.)
Attachment detach(ClockTree& tree, int child, IncrementalTiming& engine) {
    Attachment a{child, tree.node(child).parent, tree.node(child).parent_wire_um};
    engine.subtree_replaced(child);
    tree.disconnect(child);
    return a;
}

/// Reattach notifies AFTER the connect: the child's subtree is intact
/// (its cached aggregates stay warm), so only the new containing
/// component and the aggregates above it need dirtying -- exactly
/// wire_changed's footprint.
void reattach(ClockTree& tree, const Attachment& a, IncrementalTiming& engine) {
    tree.connect(a.parent, a.child, a.wire);
    engine.wire_changed(a.child);
}

double skew_of(const RootTiming& t) { return t.max_ps - t.min_ps; }

}  // namespace

std::pair<int, int> hstructure_check(ClockTree& tree, int u, int v, HStructureContext ctx,
                                     const delaylib::DelayModel& model,
                                     const SynthesisOptions& opt, HStructureStats& stats,
                                     IncrementalTiming& engine, const SynthesisContext* sctx) {
    if (opt.hstructure == HStructureMode::off) return {u, v};
    const auto ru = ctx.records->find(u);
    const auto rv = ctx.records->find(v);
    if (ru == ctx.records->end() || rv == ctx.records->end()) return {u, v};

    const int a = ru->second.left_root, b = ru->second.right_root;
    const int c = rv->second.left_root, d = rv->second.right_root;
    stats.checks += 1;

    const auto rt = [&](int n) { return ctx.timing->at(n); };
    const auto lvl = [&](int n) { return LevelNode{n, tree.node(n).pos, rt(n).max_ps}; };
    const auto commit = [&](const MergeRecord& m1, const MergeRecord& m2) {
        (*ctx.records)[m1.merge_node] = m1;
        (*ctx.records)[m2.merge_node] = m2;
        (*ctx.timing)[m1.merge_node] = m1.timing;
        (*ctx.timing)[m2.merge_node] = m2.timing;
        return std::make_pair(m1.merge_node, m2.merge_node);
    };

    // Candidate re-pairings of the four grandchildren (index 0 is the
    // already-routed original pairing (a,b),(c,d)).
    const std::array<std::array<int, 4>, 3> pairings = {{
        {a, b, c, d},
        {a, c, b, d},
        {a, d, b, c},
    }};

    if (opt.hstructure == HStructureMode::reestimate) {
        // Method 1: judge by eq. 4.1 edge costs only.
        int best = 0;
        double best_cost = std::numeric_limits<double>::max();
        for (int p = 0; p < 3; ++p) {
            const auto& q = pairings[p];
            const double cost = edge_cost(lvl(q[0]), lvl(q[1]), opt) +
                                edge_cost(lvl(q[2]), lvl(q[3]), opt);
            if (cost < best_cost) {
                best_cost = cost;
                best = p;
            }
        }
        if (best == 0) return {u, v};
        stats.flips += 1;
        for (int child : {a, b, c, d}) detach(tree, child, engine);
        const auto& q = pairings[best];
        const MergeRecord m1 =
            merge_route(tree, q[0], q[1], rt(q[0]), rt(q[1]), model, opt, engine, sctx);
        const MergeRecord m2 =
            merge_route(tree, q[2], q[3], rt(q[2]), rt(q[3]), model, opt, engine, sctx);
        return commit(m1, m2);
    }

    // Method 2: actually route the alternative pairings and judge by
    // the worse merge-node skew ("potentially, the skew of the merge
    // node of n1 and n2 depends on max(skew(n1), skew(n2))").
    struct Candidate {
        MergeRecord m1;
        MergeRecord m2;
        std::array<Attachment, 4> att;  ///< child attachments in this pairing
        double score{0.0};
    };

    const std::array<Attachment, 4> original = {
        detach(tree, a, engine), detach(tree, b, engine), detach(tree, c, engine),
        detach(tree, d, engine)};

    int best = 0;
    double best_score = std::max(skew_of(ru->second.timing), skew_of(rv->second.timing));
    std::array<std::optional<Candidate>, 3> cand;
    for (int p = 1; p < 3; ++p) {
        const auto& q = pairings[p];
        Candidate cd;
        cd.m1 = merge_route(tree, q[0], q[1], rt(q[0]), rt(q[1]), model, opt, engine, sctx);
        cd.att[0] = detach(tree, q[0], engine);
        cd.att[1] = detach(tree, q[1], engine);
        cd.m2 = merge_route(tree, q[2], q[3], rt(q[2]), rt(q[3]), model, opt, engine, sctx);
        cd.att[2] = detach(tree, q[2], engine);
        cd.att[3] = detach(tree, q[3], engine);
        cd.score = std::max(skew_of(cd.m1.timing), skew_of(cd.m2.timing));
        if (cd.score + 1e-12 < best_score) {
            best_score = cd.score;
            best = p;
        }
        cand[p] = std::move(cd);
    }

    if (best == 0) {
        for (const Attachment& s : original) reattach(tree, s, engine);
        return {u, v};
    }
    stats.flips += 1;
    for (const Attachment& s : cand[best]->att) reattach(tree, s, engine);
    return commit(cand[best]->m1, cand[best]->m2);
}

}  // namespace ctsim::cts
