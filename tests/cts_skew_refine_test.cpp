// Property tests for the top-down skew refinement pass
// (cts::refine_skew): refinement must never worsen the model root
// skew, must terminate within the sweep cap, and the engine it drives
// must stay consistent with batch cts::analyze on the refined tree to
// 1e-9 (the same notification-completeness contract style as
// cts_incremental_timing_test).
#include <gtest/gtest.h>

#include "cts/incremental_timing.h"
#include "cts/skew_refine.h"
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

TEST(SkewRefine, NeverWorsensModelSkewAndTerminates) {
    for (unsigned seed : {3u, 11u, 29u, 57u}) {
        for (int nsinks : {16, 48}) {
            SynthesisOptions o;
            o.skew_refine = false;  // refine manually below
            const auto sinks = random_sinks(nsinks, 24000.0, seed);
            SynthesisResult res = synthesize(sinks, analytic(), o);
            const double before = honest_skew(res.tree, res.root, o.assumed_slew());

            IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
            const SkewRefineStats stats =
                refine_skew(res.tree, res.root, analytic(), o, engine);

            SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << nsinks);
            EXPECT_LE(stats.passes, 3);  // the pass's sweep cap
            EXPECT_GT(stats.merges_visited, 0);
            res.tree.validate_subtree(res.root);
            const double after = honest_skew(res.tree, res.root, o.assumed_slew());
            EXPECT_LE(after, before + 1e-6)
                << "refinement worsened the honest root skew: " << before << " -> "
                << after;
            // The engine's own before/after bookkeeping must agree in
            // direction with the batch oracle.
            EXPECT_LE(stats.final_skew_ps, stats.initial_skew_ps + 1e-6);
        }
    }
}

TEST(SkewRefine, RefinedTreeMatchesBatchAnalyzeToFloatAssociativity) {
    // Every refinement edit (trim, buffer swap, snake) must be
    // notified to the engine: the engine's report on the refined tree
    // matches batch analyze() on every sink. A missed notification serves stale timing and diverges
    // here.
    for (unsigned seed : {5u, 23u}) {
        SynthesisOptions o;
        o.skew_refine = false;
        const auto sinks = random_sinks(40, 26000.0, seed);
        SynthesisResult res = synthesize(sinks, analytic(), o);

        IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
        (void)refine_skew(res.tree, res.root, analytic(), o, engine);

        TimingOptions topt;
        topt.input_slew_ps = o.assumed_slew();
        topt.propagate_slews = true;
        const TimingReport batch = analyze(res.tree, res.root, analytic(), topt);
        const TimingReport incr = engine.report(res.root);

        SCOPED_TRACE(testing::Message() << "seed " << seed);
        ASSERT_EQ(incr.sinks.size(), batch.sinks.size());
        for (std::size_t i = 0; i < batch.sinks.size(); ++i) {
            EXPECT_EQ(incr.sinks[i].node, batch.sinks[i].node) << "sink " << i;
            EXPECT_NEAR(incr.sinks[i].arrival_ps, batch.sinks[i].arrival_ps, kTol)
                << "sink " << i;
            EXPECT_NEAR(incr.sinks[i].slew_ps, batch.sinks[i].slew_ps, kTol)
                << "sink " << i;
        }
        EXPECT_NEAR(incr.max_arrival_ps, batch.max_arrival_ps, kTol);
        EXPECT_NEAR(incr.min_arrival_ps, batch.min_arrival_ps, kTol);
    }
}

TEST(SkewRefine, DefaultSynthesisRunsThePassAndTightensSkew) {
    const auto sinks = random_sinks(64, 30000.0, 17);
    SynthesisOptions refined;  // defaults: skew_refine on
    SynthesisOptions raw;
    raw.skew_refine = false;

    const SynthesisResult a = synthesize(sinks, analytic(), refined);
    const SynthesisResult b = synthesize(sinks, analytic(), raw);

    EXPECT_GT(a.refine.passes, 0);
    EXPECT_GT(a.refine.merges_visited, 0);
    EXPECT_EQ(b.refine.passes, 0);  // pass off: stats stay zero

    const double skew_refined = honest_skew(a.tree, a.root, refined.assumed_slew());
    const double skew_raw = honest_skew(b.tree, b.root, raw.assumed_slew());
    EXPECT_LE(skew_refined, skew_raw + 1e-6);
    // The reported root timing reflects the refined tree.
    EXPECT_NEAR(a.root_timing.max_ps - a.root_timing.min_ps, a.refine.final_skew_ps, 1e-9);
}

TEST(SkewRefine, RefinementIsNearFixedPointOnSecondInvocation) {
    // A second full pass over an already-refined tree must find the
    // balance essentially settled: the skew it reports cannot move
    // beyond the per-merge tolerance by more than noise.
    const auto sinks = random_sinks(48, 22000.0, 41);
    SynthesisOptions o;  // defaults: refined once inside synthesize
    SynthesisResult res = synthesize(sinks, analytic(), o);

    IncrementalTiming engine(res.tree, analytic(), synthesis_timing_options(o));
    const SkewRefineStats again = refine_skew(res.tree, res.root, analytic(), o, engine);
    // An already-clamped tree sits at sub-tolerance skew; re-running
    // may wiggle within the per-merge tolerance band but not beyond.
    // (0.05 ps is the pass's per-merge tolerance.)
    EXPECT_LE(again.final_skew_ps, again.initial_skew_ps + 2.0 * 0.05);
    EXPECT_LE(again.initial_skew_ps - again.final_skew_ps, 0.5)
        << "second refinement moved the skew substantially; the first did not converge";
    EXPECT_EQ(again.snake_stages, 0) << "an already-refined tree needed new snake stages";
}

TEST(SkewRefine, SingleSinkAndTrivialTreesAreNoOps) {
    SynthesisOptions o;
    const SynthesisResult res = synthesize({{{10, 20}, 9.0, "only"}}, analytic(), o);
    EXPECT_EQ(res.refine.merges_visited, 0);

    ClockTree t;
    const int s = t.add_sink({0, 0}, 10.0);
    IncrementalTiming engine(t, analytic(), synthesis_timing_options(o));
    const SkewRefineStats stats = refine_skew(t, s, analytic(), o, engine);
    EXPECT_EQ(stats.merges_visited, 0);
    EXPECT_EQ(stats.trims, 0);
}

}  // namespace
}  // namespace ctsim::cts
