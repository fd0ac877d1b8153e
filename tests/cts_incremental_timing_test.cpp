// Property tests for cts::IncrementalTiming: after ANY sequence of
// edits (wire re-route, buffer swap, subtree replace), the incremental
// report must match batch analyze() on every sink, in both pessimistic
// and propagated modes. A separate purity check pins the engine:
// cached state must never leak into results (a fresh engine over the
// same tree returns bit-identical numbers).
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "cts/incremental_timing.h"
#include "cts/merge_routing.h"
#include "cts_test_util.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::random_sinks;

constexpr double kTol = 1e-9;

/// Engines under test, one per slew mode, kept in sync with the tree
/// through the notification API.
struct EnginePair {
    IncrementalTiming propagated;
    IncrementalTiming pessimistic;

    EnginePair(const ClockTree& tree, const delaylib::DelayModel& model)
        : propagated(tree, model, {-1, 80.0, true}),
          pessimistic(tree, model, {-1, 80.0, false}) {}

    void wire_changed(int n) {
        propagated.wire_changed(n);
        pessimistic.wire_changed(n);
    }
    void buffer_changed(int n) {
        propagated.buffer_changed(n);
        pessimistic.buffer_changed(n);
    }
    void subtree_replaced(int n) {
        propagated.subtree_replaced(n);
        pessimistic.subtree_replaced(n);
    }
};

void expect_matches_batch(const ClockTree& tree, int root, IncrementalTiming& engine,
                          bool propagate, const char* what) {
    TimingOptions opt;
    opt.input_slew_ps = 80.0;
    opt.propagate_slews = propagate;
    const TimingReport batch = analyze(tree, root, analytic(), opt);
    const TimingReport incr = engine.report(root);

    ASSERT_EQ(incr.sinks.size(), batch.sinks.size()) << what;
    for (std::size_t i = 0; i < batch.sinks.size(); ++i) {
        EXPECT_EQ(incr.sinks[i].node, batch.sinks[i].node) << what << " sink " << i;
        EXPECT_NEAR(incr.sinks[i].arrival_ps, batch.sinks[i].arrival_ps, kTol)
            << what << " sink " << i;
        EXPECT_NEAR(incr.sinks[i].slew_ps, batch.sinks[i].slew_ps, kTol)
            << what << " sink " << i;
    }
    EXPECT_NEAR(incr.max_arrival_ps, batch.max_arrival_ps, kTol) << what;
    EXPECT_NEAR(incr.min_arrival_ps, batch.min_arrival_ps, kTol) << what;
    EXPECT_NEAR(incr.worst_slew_ps, batch.worst_slew_ps, kTol) << what;

    const RootTiming rt = engine.root_timing(root);
    EXPECT_NEAR(rt.max_ps, batch.max_arrival_ps, kTol) << what;
    EXPECT_NEAR(rt.min_ps, batch.min_arrival_ps, kTol) << what;
}

/// A realistic tree: run the full synthesizer on random sinks.
SynthesisResult synthesized_tree(int nsinks, unsigned seed) {
    SynthesisOptions o;
    o.num_threads = 1;
    const auto sinks = random_sinks(nsinks, 20000.0, seed);
    return synthesize(sinks, analytic(), o);
}

/// Apply one random edit and notify the engines. Returns a label for
/// diagnostics.
const char* random_edit(ClockTree& tree, int root, std::mt19937& rng, EnginePair& engines) {
    std::uniform_int_distribution<int> pick_op(0, 2);
    std::uniform_int_distribution<int> pick_node(0, tree.size() - 1);
    switch (pick_op(rng)) {
        case 0: {  // wire re-route: stretch/shrink a snaked wire
            for (int tries = 0; tries < 64; ++tries) {
                const int n = pick_node(rng);
                if (n == root || tree.node(n).parent < 0) continue;
                const double geo = geom::manhattan(tree.node(n).pos,
                                                   tree.node(tree.node(n).parent).pos);
                std::uniform_real_distribution<double> factor(1.0, 2.0);
                tree.node(n).parent_wire_um = std::max(geo, 1.0) * factor(rng);
                engines.wire_changed(n);
                return "wire re-route";
            }
            return "wire re-route (skipped)";
        }
        case 1: {  // buffer swap
            for (int tries = 0; tries < 64; ++tries) {
                const int n = pick_node(rng);
                if (tree.node(n).kind != NodeKind::buffer) continue;
                const int count = analytic().buffers().count();
                tree.node(n).buffer_type = (tree.node(n).buffer_type + 1) % count;
                engines.buffer_changed(n);
                return "buffer swap";
            }
            return "buffer swap (skipped)";
        }
        default: {  // subtree replace: swap one child for a fresh stage
            for (int tries = 0; tries < 64; ++tries) {
                const int n = pick_node(rng);
                const TreeNode& node = tree.node(n);
                if (node.kind == NodeKind::sink || node.kind == NodeKind::buffer ||
                    node.children.empty())
                    continue;
                std::uniform_int_distribution<int> pick_child(
                    0, static_cast<int>(node.children.size()) - 1);
                const int old_child = node.children[pick_child(rng)];
                tree.disconnect(old_child);
                const int buf = tree.add_buffer(tree.node(n).pos, 0);
                const int sink = tree.add_sink(
                    {tree.node(n).pos.x + 150.0, tree.node(n).pos.y}, 12.0);
                tree.connect(buf, sink, 150.0);
                tree.connect(n, buf, 80.0);
                engines.subtree_replaced(n);
                return "subtree replace";
            }
            return "subtree replace (skipped)";
        }
    }
}

TEST(IncrementalTiming, MatchesBatchOnFreshSynthesizedTree) {
    SynthesisResult res = synthesized_tree(40, 11);
    EnginePair engines(res.tree, analytic());
    expect_matches_batch(res.tree, res.root, engines.propagated, true, "fresh propagated");
    expect_matches_batch(res.tree, res.root, engines.pessimistic, false, "fresh pessimistic");
}

TEST(IncrementalTiming, MatchesBatchAfterRandomEditSequences) {
    for (unsigned seed : {3u, 17u, 91u}) {
        SynthesisResult res = synthesized_tree(32, seed);
        EnginePair engines(res.tree, analytic());
        std::mt19937 rng(seed * 7 + 1);
        for (int step = 0; step < 60; ++step) {
            const char* what = random_edit(res.tree, res.root, rng, engines);
            SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step << ": "
                                            << what);
            expect_matches_batch(res.tree, res.root, engines.propagated, true, "propagated");
            expect_matches_batch(res.tree, res.root, engines.pessimistic, false,
                                 "pessimistic");
        }
    }
}

TEST(IncrementalTiming, MatchesBatchAtInteriorRootsAfterEdits) {
    SynthesisResult res = synthesized_tree(24, 5);
    EnginePair engines(res.tree, analytic());
    std::mt19937 rng(99);
    // Interleave edits with queries at interior subtree roots (the
    // synthesis access pattern: merge-local roots, then the top).
    std::vector<int> buffer_roots;
    for (int i = 0; i < res.tree.size(); ++i)
        if (res.tree.node(i).kind == NodeKind::buffer) buffer_roots.push_back(i);
    ASSERT_FALSE(buffer_roots.empty());
    for (int step = 0; step < 30; ++step) {
        random_edit(res.tree, res.root, rng, engines);
        const int r = buffer_roots[step % buffer_roots.size()];
        expect_matches_batch(res.tree, r, engines.propagated, true, "interior propagated");
        expect_matches_batch(res.tree, r, engines.pessimistic, false, "interior pessimistic");
    }
}

TEST(IncrementalTiming, ReportSurvivesInterleavedInteriorQueries) {
    // Regression: a direct root_timing() at an interior buffer re-keys
    // that head's component cache at the root input slew. The cached
    // ancestor aggregates stay valid (they are pure values), so a
    // later report() early-terminates at the root -- it must still
    // re-validate descendant components at the slews the walk
    // delivers, or it emits arrivals computed at the wrong slew.
    SynthesisResult res = synthesized_tree(60, 13);
    EnginePair engines(res.tree, analytic());
    (void)engines.propagated.report(res.root);
    for (int i = 0; i < res.tree.size(); ++i)
        if (res.tree.node(i).kind == NodeKind::buffer)
            (void)engines.propagated.root_timing(i);  // re-keys interior heads
    expect_matches_batch(res.tree, res.root, engines.propagated, true,
                         "report after interior queries");
}

TEST(IncrementalTiming, EngineIsPureFunctionOfTree) {
    // The engine must stay a pure function of the tree: a fresh engine
    // over the same structure returns bit-identical numbers regardless
    // of the edit/cache history (this is what makes parallel synthesis
    // bit-for-bit equal to serial).
    SynthesisResult res = synthesized_tree(32, 23);
    EnginePair warm(res.tree, analytic());
    std::mt19937 rng(4242);
    (void)warm.propagated.root_timing(res.root);
    for (int step = 0; step < 40; ++step) random_edit(res.tree, res.root, rng, warm);

    IncrementalTiming fresh(res.tree, analytic(), {-1, 80.0, true});
    const RootTiming a = warm.propagated.root_timing(res.root);
    const RootTiming b = fresh.root_timing(res.root);
    EXPECT_EQ(a.max_ps, b.max_ps);
    EXPECT_EQ(a.min_ps, b.min_ps);

    const TimingReport ra = warm.propagated.report(res.root);
    const TimingReport rb = fresh.report(res.root);
    ASSERT_EQ(ra.sinks.size(), rb.sinks.size());
    for (std::size_t i = 0; i < ra.sinks.size(); ++i) {
        EXPECT_EQ(ra.sinks[i].node, rb.sinks[i].node);
        EXPECT_EQ(ra.sinks[i].arrival_ps, rb.sinks[i].arrival_ps);
        EXPECT_EQ(ra.sinks[i].slew_ps, rb.sinks[i].slew_ps);
    }
}

TEST(IncrementalTiming, LeafTrimReTimesDirtyConeOnly) {
    // A wire trim near the leaves must NOT re-evaluate the whole tree:
    // only the component holding the wire and the components below it
    // see a changed input slew; every other component is served from
    // cache (ancestors only recombine their aggregates).
    SynthesisResult res = synthesized_tree(64, 31);
    IncrementalTiming engine(res.tree, analytic(), {-1, 80.0, true});
    (void)engine.root_timing(res.root);
    const std::uint64_t cold = engine.evaluated_components();
    ASSERT_GT(cold, 50u);  // the tree is nontrivial

    // The sink whose nearest buffer ancestor heads the smallest subtree.
    int knob = -1;
    std::size_t best = static_cast<std::size_t>(res.tree.size()) + 1;
    for (int i = 0; i < res.tree.size(); ++i) {
        if (res.tree.node(i).kind != NodeKind::sink || res.tree.node(i).parent < 0) continue;
        int head = res.tree.node(i).parent;
        while (res.tree.node(head).kind != NodeKind::buffer && res.tree.node(head).parent >= 0)
            head = res.tree.node(head).parent;
        const std::size_t size = res.tree.subtree(head).size();
        if (size < best) {
            best = size;
            knob = i;
        }
    }
    ASSERT_GE(knob, 0);
    res.tree.node(knob).parent_wire_um += 1.0;
    engine.wire_changed(knob);
    (void)engine.root_timing(res.root);
    const std::uint64_t delta = engine.evaluated_components() - cold;
    EXPECT_GE(delta, 1u);
    EXPECT_LE(delta, cold / 4);
}

TEST(IncrementalTiming, EngineTimingMatchesBatchAfterEveryMerge) {
    // The invariant that proves every tree edit in merge_route /
    // prebalance is notified to the engine: merging bottom-up through
    // one long-lived engine, the engine's view of each new merge root
    // (and the timing merge_route recorded from it) must match batch
    // subtree_timing on the same tree. A missed wire_changed /
    // subtree_replaced call serves stale timing and diverges here
    // while every other suite stayed green.
    const SynthesisOptions o;
    for (unsigned seed : {2u, 19u}) {
        const auto sinks = random_sinks(40, 22000.0, seed);
        ClockTree tree;
        IncrementalTiming engine(tree, analytic(), synthesis_timing_options(o));
        std::vector<int> roots;
        std::unordered_map<int, RootTiming> timing;
        for (const SinkSpec& s : sinks) {
            roots.push_back(tree.add_sink(s.pos, s.cap_ff, s.name));
            timing[roots.back()] = {0.0, 0.0};
        }
        while (roots.size() > 1) {
            std::vector<int> next;
            for (std::size_t i = 0; i + 1 < roots.size(); i += 2) {
                const int a = roots[i], b = roots[i + 1];
                const MergeRecord rec =
                    merge_route(tree, a, b, timing.at(a), timing.at(b), analytic(), o, engine);
                const RootTiming batch = subtree_timing(tree, rec.merge_node, analytic(),
                                                        o.assumed_slew(), /*propagate=*/true);
                SCOPED_TRACE(testing::Message() << "seed " << seed << " merge "
                                                << rec.merge_node);
                EXPECT_NEAR(rec.timing.max_ps, batch.max_ps, kTol);
                EXPECT_NEAR(rec.timing.min_ps, batch.min_ps, kTol);
                timing[rec.merge_node] = rec.timing;
                next.push_back(rec.merge_node);
            }
            if (roots.size() % 2 == 1) next.push_back(roots.back());
            roots = std::move(next);
        }
        tree.validate_subtree(roots[0]);
    }
}

TEST(IncrementalTiming, TrivialRoots) {
    ClockTree t;
    const int s = t.add_sink({1, 2}, 9.0);
    IncrementalTiming engine(t, analytic(), {});
    const RootTiming rt = engine.root_timing(s);
    EXPECT_DOUBLE_EQ(rt.max_ps, 0.0);
    EXPECT_DOUBLE_EQ(rt.min_ps, 0.0);
    const TimingReport rep = engine.report(s);
    ASSERT_EQ(rep.sinks.size(), 1u);
    EXPECT_DOUBLE_EQ(rep.sinks[0].arrival_ps, 0.0);

    // Childless buffer: nothing to time, zero aggregates.
    const int b = t.add_buffer({0, 0}, 1);
    IncrementalTiming engine2(t, analytic(), {});
    const RootTiming bt = engine2.root_timing(b);
    EXPECT_DOUBLE_EQ(bt.max_ps, 0.0);
    EXPECT_DOUBLE_EQ(bt.min_ps, 0.0);
}

TEST(IncrementalTiming, ArenaGrowthIsPickedUpLazily) {
    // Nodes appended after construction (the synthesis pattern: snake
    // stages and routing chains stack above existing roots) need no
    // notification.
    ClockTree t;
    const int b = t.add_buffer({0, 0}, 1);
    const int s = t.add_sink({800, 0}, 12.0);
    t.connect(b, s, 800.0);
    IncrementalTiming engine(t, analytic(), {-1, 80.0, true});
    (void)engine.root_timing(b);

    const int top = t.add_buffer({0, 0}, 2);
    t.connect(top, b, 350.0);
    expect_matches_batch(t, top, engine, true, "grown arena");
}

}  // namespace
}  // namespace ctsim::cts
