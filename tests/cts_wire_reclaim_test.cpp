// Property tests for the engine-verified wirelength reclamation pass
// (cts::reclaim_wire): the verified-batch discipline must keep the
// engine root skew within the pass tolerance, wirelength must be
// monotone non-increasing, rolled-back batches must restore the tree
// (and the engine's view of it) exactly, the pass must terminate
// within its sweep cap, and the engine it drives must stay consistent
// with batch cts::analyze to 1e-9 through every edit and undo (the
// same notification-completeness contract style as
// cts_incremental_timing_test and cts_skew_refine_test).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bench_io/synthetic.h"
#include "cts/balance.h"
#include "cts/incremental_timing.h"
#include "cts/wire_reclaim.h"
#include "cts_test_util.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::random_sinks;

constexpr double kTol = 1e-9;

double honest_skew(const ClockTree& tree, int root, double assumed_slew) {
    const RootTiming t =
        subtree_timing(tree, root, analytic(), assumed_slew, /*propagate=*/true);
    return t.max_ps - t.min_ps;
}

void expect_engine_matches_batch(const ClockTree& tree, int root,
                                 IncrementalTiming& engine, double assumed_slew) {
    TimingOptions topt;
    topt.input_slew_ps = assumed_slew;
    topt.propagate_slews = true;
    const TimingReport batch = analyze(tree, root, analytic(), topt);
    const TimingReport incr = engine.report(root);
    ASSERT_EQ(incr.sinks.size(), batch.sinks.size());
    for (std::size_t i = 0; i < batch.sinks.size(); ++i) {
        EXPECT_EQ(incr.sinks[i].node, batch.sinks[i].node) << "sink " << i;
        EXPECT_NEAR(incr.sinks[i].arrival_ps, batch.sinks[i].arrival_ps, kTol)
            << "sink " << i;
        EXPECT_NEAR(incr.sinks[i].slew_ps, batch.sinks[i].slew_ps, kTol) << "sink " << i;
    }
    EXPECT_NEAR(incr.max_arrival_ps, batch.max_arrival_ps, kTol);
    EXPECT_NEAR(incr.min_arrival_ps, batch.min_arrival_ps, kTol);
}

/// Structural snapshot for exact-restore checks.
struct TreeShape {
    std::vector<int> parent;
    std::vector<double> wire;
    std::vector<std::vector<int>> children;
};

TreeShape snapshot(const ClockTree& tree) {
    TreeShape s;
    for (int i = 0; i < tree.size(); ++i) {
        s.parent.push_back(tree.node(i).parent);
        s.wire.push_back(tree.node(i).parent_wire_um);
        s.children.push_back(tree.node(i).children);
    }
    return s;
}

void expect_same_shape(const ClockTree& tree, const TreeShape& want) {
    ASSERT_EQ(tree.size(), static_cast<int>(want.parent.size()));
    for (int i = 0; i < tree.size(); ++i) {
        EXPECT_EQ(tree.node(i).parent, want.parent[i]) << "node " << i;
        EXPECT_EQ(tree.node(i).parent_wire_um, want.wire[i]) << "node " << i;
        EXPECT_EQ(tree.node(i).children, want.children[i]) << "node " << i;
    }
}

TEST(WireReclaim, NeverWorsensSkewBeyondTolAndNeverAddsWire) {
    for (unsigned seed : {3u, 11u, 29u, 57u}) {
        for (int nsinks : {24, 64}) {
            SynthesisOptions o;
            o.wire_reclaim = false;  // reclaim manually below
            const auto sinks = random_sinks(nsinks, 24000.0, seed);
            SynthesisResult res = synthesize(sinks, analytic(), o);
            const double skew_before = honest_skew(res.tree, res.root, o.assumed_slew());
            const double wl_before = res.tree.wire_length_below(res.root);

            IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
            const WireReclaimStats st =
                reclaim_wire(res.tree, res.root, analytic(), o, engine);

            SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << nsinks);
            EXPECT_LE(st.passes, o.wire_reclaim_passes);
            res.tree.validate_subtree(res.root);
            const double skew_after = honest_skew(res.tree, res.root, o.assumed_slew());
            // The verified budget is the ENGINE skew; the honest batch
            // skew agrees to float noise.
            EXPECT_LE(skew_after, skew_before + o.wire_reclaim_skew_tol_ps + 1e-6)
                << "reclamation worsened the honest skew beyond its verified budget: "
                << skew_before << " -> " << skew_after;
            EXPECT_LE(st.final_skew_ps,
                      st.initial_skew_ps + o.wire_reclaim_skew_tol_ps + 1e-9);
            const double wl_after = res.tree.wire_length_below(res.root);
            EXPECT_LE(wl_after, wl_before + 1e-6) << "reclamation ADDED wirelength";
            EXPECT_NEAR(st.reclaimed_um, wl_before - wl_after, 1e-6);
            EXPECT_NEAR(st.final_wirelength_um, wl_after, 1e-6);
        }
    }
}

TEST(WireReclaim, EngineStaysConsistentWithBatchAnalyzeThroughEditsAndRollbacks) {
    // Every reclamation edit (trim, ballast removal) and every
    // rollback's inverse must be notified to the engine: the engine's
    // report on the final tree must match batch analyze() on every
    // sink. A missed notification
    // serves stale timing and diverges here. A tiny tolerance forces
    // the rollback path to run too.
    for (unsigned seed : {5u, 23u}) {
        SynthesisOptions o;
        o.wire_reclaim = false;
        const auto sinks = random_sinks(48, 26000.0, seed);
        SynthesisResult res = synthesize(sinks, analytic(), o);

        for (double tol : {0.5, 0.0}) {
            SynthesisOptions ro = o;
            ro.wire_reclaim_skew_tol_ps = tol;
            IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
            (void)reclaim_wire(res.tree, res.root, analytic(), ro, engine);
            SCOPED_TRACE(testing::Message() << "seed " << seed << " tol " << tol);
            expect_engine_matches_batch(res.tree, res.root, engine, o.assumed_slew());
        }
    }
}

TEST(WireReclaim, JournalUndoRestoresTreeAndEngineExactly) {
    // Directly exercise the rollback machinery: record a batch of
    // stage-wire trims and a ballast-stage removal through the
    // EditJournal, undo it, and require the tree node-for-node
    // identical to the snapshot AND the engine consistent with batch
    // analyze on it (1e-9) -- the contract reclaim_wire's rollback
    // relies on.
    SynthesisOptions o;
    o.wire_reclaim = false;
    const auto sinks = random_sinks(64, 30000.0, 17);
    SynthesisResult res = synthesize(sinks, analytic(), o);
    ClockTree& tree = res.tree;
    const TreeShape before = snapshot(tree);

    IncrementalTiming engine(tree, analytic(), synthesis_timing_options(o));
    (void)engine.report(res.root);  // populate caches pre-edit

    // A ballast stage: a buffer whose single child sits at the same
    // position (snake_delay's shape) with a real snaked wire below.
    int ballast = -1;
    for (int i = 0; i < tree.size() && ballast < 0; ++i) {
        const TreeNode& n = tree.node(i);
        if (n.kind != NodeKind::buffer || n.children.size() != 1 || n.parent < 0) continue;
        if (tree.node(n.parent).kind != NodeKind::buffer) continue;
        const int c = n.children[0];
        if (geom::manhattan(n.pos, tree.node(c).pos) < 1e-9 &&
            tree.node(c).parent_wire_um > 10.0)
            ballast = i;
    }
    ASSERT_GE(ballast, 0) << "no snake ballast stage in the synthesized tree";

    EditJournal journal;
    // Batch: trim a handful of stage wires above buffers...
    int trimmed = 0;
    for (int i = 0; i < tree.size() && trimmed < 5; ++i) {
        const TreeNode& n = tree.node(i);
        if (n.parent < 0 || n.parent_wire_um < 50.0) continue;
        if (tree.node(n.parent).kind != NodeKind::buffer) continue;
        const double lo = geom::manhattan(n.pos, tree.node(n.parent).pos);
        const double w = std::max(lo, n.parent_wire_um * 0.8);
        if (w >= n.parent_wire_um - 1.0) continue;  // no snaked slack here
        journal.record_wire(i, n.parent_wire_um);
        tree.node(i).parent_wire_um = w;
        engine.wire_changed(i);
        ++trimmed;
    }
    ASSERT_GT(trimmed, 0);
    // ...and remove the ballast stage.
    const int child = tree.node(ballast).children[0];
    remove_snake_stage(tree, ballast, journal);
    engine.wire_changed(child);

    // The edited tree must itself be engine-consistent (notification
    // completeness of the forward edits)...
    tree.validate_subtree(res.root);
    expect_engine_matches_batch(tree, res.root, engine, o.assumed_slew());

    // ...and the undo must restore everything exactly.
    journal.undo(tree, engine);
    EXPECT_TRUE(journal.empty());
    expect_same_shape(tree, before);
    tree.validate_subtree(res.root);
    expect_engine_matches_batch(tree, res.root, engine, o.assumed_slew());
}

TEST(WireReclaim, TerminatesUnderTightBatchAndPassCaps) {
    const auto sinks = random_sinks(48, 22000.0, 41);
    for (int batch : {1, 4}) {
        SynthesisOptions o;
        o.wire_reclaim = false;
        SynthesisResult res = synthesize(sinks, analytic(), o);
        SynthesisOptions ro = o;
        ro.wire_reclaim_batch = batch;
        ro.wire_reclaim_passes = 8;
        IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
        const WireReclaimStats st = reclaim_wire(res.tree, res.root, analytic(), ro, engine);
        EXPECT_LE(st.passes, ro.wire_reclaim_passes);
        EXPECT_LE(st.batches_accepted + st.batches_rolled_back, st.passes);
    }
}

TEST(WireReclaim, DefaultSynthesisRunsThePassAndSkipsItWhenOff) {
    const auto sinks = random_sinks(64, 30000.0, 17);
    SynthesisOptions on;  // defaults: wire_reclaim on
    SynthesisOptions off;
    off.wire_reclaim = false;

    const SynthesisResult a = synthesize(sinks, analytic(), on);
    const SynthesisResult b = synthesize(sinks, analytic(), off);

    EXPECT_GT(a.reclaim.initial_wirelength_um, 0.0);  // the pass ran
    EXPECT_GE(a.reclaim.reclaimed_um, 0.0);
    EXPECT_EQ(b.reclaim.passes, 0);  // pass off: stats stay zero
    EXPECT_EQ(b.reclaim.initial_wirelength_um, 0.0);

    // The pass only ever removes wire relative to the same flow
    // without it, and the reported wirelength reflects the final tree.
    EXPECT_LE(a.wire_length_um, b.wire_length_um + 1e-6);
    EXPECT_NEAR(a.wire_length_um, a.reclaim.final_wirelength_um, 1e-6);
    // The reported root timing reflects the reclaimed tree.
    EXPECT_NEAR(a.root_timing.max_ps - a.root_timing.min_ps, a.reclaim.final_skew_ps, 1e-9);
}

TEST(WireReclaim, NeverAddsWirelengthOnComplexityScalingInstances) {
    // The scal_n100/n200/n400 instances of bench_synth_json (same
    // generator and seeds) on the fitted library: the shipped pass
    // runs strictly after synthesis and refinement, so its own
    // pre-pass measurement is the wirelength this flow produces with
    // the pass off, and the final tree must never exceed it.
    for (int n : {100, 200, 400}) {
        bench_io::BenchmarkSpec spec;
        spec.name = "scal_n" + std::to_string(n);
        spec.sink_count = n;
        spec.die_span_um = 40000.0;
        spec.seed = 11;
        const SynthesisResult res =
            synthesize(bench_io::generate(spec), testutil::fitted_quick(), SynthesisOptions{});
        SCOPED_TRACE(spec.name);
        EXPECT_GT(res.refine.merges_visited, 0);
        EXPECT_GT(res.reclaim.initial_wirelength_um, 0.0);
        EXPECT_LE(res.wire_length_um, res.reclaim.initial_wirelength_um + 1e-6)
            << "wire_reclaim ADDED wirelength";
    }
}

TEST(WireReclaim, SubtreeInvocationStaysConservative) {
    // Called on a merge that still hangs under a larger tree, the
    // pass cannot verify the parent merge a latency shift would
    // unbalance, so it must not seed common-mode reclamation: the
    // WHOLE tree's skew must survive a subtree invocation even
    // though the pass only verified the subtree.
    SynthesisOptions o;
    o.wire_reclaim = false;
    const auto sinks = random_sinks(64, 30000.0, 7);
    SynthesisResult res = synthesize(sinks, analytic(), o);
    const double skew_before = honest_skew(res.tree, res.root, o.assumed_slew());
    const double wl_before = res.tree.wire_length_below(res.root);

    // A mid-depth merge: a grandchild-of-root merge found through the
    // merge-route shape (root -> iso buffer -> chain -> merge).
    int sub = -1;
    for (int i = 0; i < res.tree.size() && sub < 0; ++i)
        if (res.tree.node(i).kind == NodeKind::merge && i != res.root &&
            res.tree.node(i).parent >= 0)
            sub = i;
    ASSERT_GE(sub, 0);

    IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
    const WireReclaimStats st = reclaim_wire(res.tree, sub, analytic(), o, engine);
    res.tree.validate_subtree(res.root);
    EXPECT_LE(res.tree.wire_length_below(res.root), wl_before + 1e-6);
    const double skew_after = honest_skew(res.tree, res.root, o.assumed_slew());
    EXPECT_LE(skew_after, skew_before + o.wire_reclaim_skew_tol_ps + 1e-6)
        << "a subtree invocation moved the WHOLE tree's skew: " << skew_before
        << " -> " << skew_after << " (reclaimed " << st.reclaimed_um << " um)";
}

TEST(WireReclaim, SingleSinkAndTrivialTreesAreNoOps) {
    SynthesisOptions o;
    const SynthesisResult res = synthesize({{{10, 20}, 9.0, "only"}}, analytic(), o);
    EXPECT_EQ(res.reclaim.passes, 0);
    EXPECT_EQ(res.reclaim.trims, 0);

    ClockTree t;
    const int s = t.add_sink({0, 0}, 10.0);
    IncrementalTiming engine(t, analytic(), synthesis_timing_options(o));
    const WireReclaimStats st = reclaim_wire(t, s, analytic(), o, engine);
    EXPECT_EQ(st.passes, 0);
    EXPECT_EQ(st.trims, 0);
    EXPECT_EQ(st.reclaimed_um, 0.0);
}

}  // namespace
}  // namespace ctsim::cts
