#include <gtest/gtest.h>

#include <array>

#include "cts/incremental_timing.h"
#include "cts_test_util.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::random_sinks;

SynthesisOptions opts(HStructureMode mode) {
    SynthesisOptions o;
    o.hstructure = mode;
    return o;
}

/// Build two level-1 merges by hand and run the check on them.
struct Fixture {
    ClockTree tree;
    IncrementalTiming engine{tree, analytic(), synthesis_timing_options(SynthesisOptions{})};
    std::unordered_map<int, MergeRecord> records;
    std::unordered_map<int, RootTiming> timing;
    int u{-1}, v{-1};

    explicit Fixture(const std::array<geom::Pt, 4>& pts) {
        const auto& m = analytic();
        SynthesisOptions o;
        std::array<int, 4> s{};
        for (int i = 0; i < 4; ++i) {
            s[i] = tree.add_sink(pts[i], 12.0, util::indexed_name("s", i));
            timing[s[i]] = {0, 0};
        }
        const MergeRecord m1 = merge_route(tree, s[0], s[1], {0, 0}, {0, 0}, m, o, engine);
        const MergeRecord m2 = merge_route(tree, s[2], s[3], {0, 0}, {0, 0}, m, o, engine);
        records[m1.merge_node] = m1;
        records[m2.merge_node] = m2;
        timing[m1.merge_node] = m1.timing;
        timing[m2.merge_node] = m2.timing;
        u = m1.merge_node;
        v = m2.merge_node;
    }
};

TEST(HStructure, OffModeIsIdentity) {
    Fixture f({geom::Pt{0, 0}, {2000, 0}, {0, 2000}, {2000, 2000}});
    HStructureStats stats;
    const auto [nu, nv] =
        hstructure_check(f.tree, f.u, f.v, {&f.records, &f.timing}, analytic(),
                         opts(HStructureMode::off), stats, f.engine);
    EXPECT_EQ(nu, f.u);
    EXPECT_EQ(nv, f.v);
    EXPECT_EQ(stats.checks, 0);
}

TEST(HStructure, KeepingOriginalRestoresTreeExactly) {
    // A well-clustered pairing ((A,B) close, (C,D) close) should win
    // against the crossed pairings; the tree must come back intact.
    Fixture f({geom::Pt{0, 0}, {500, 0}, {8000, 8000}, {8500, 8000}});
    HStructureStats stats;
    const auto [nu, nv] =
        hstructure_check(f.tree, f.u, f.v, {&f.records, &f.timing}, analytic(),
                         opts(HStructureMode::correct), stats, f.engine);
    EXPECT_EQ(stats.checks, 1);
    EXPECT_EQ(nu, f.u);
    EXPECT_EQ(nv, f.v);
    f.tree.validate_subtree(nu);
    f.tree.validate_subtree(nv);
    EXPECT_EQ(f.tree.sinks_below(nu).size(), 2u);
    EXPECT_EQ(f.tree.sinks_below(nv).size(), 2u);
}

TEST(HStructure, CorrectionRepairsInterleavedPairing) {
    // Interleaved clusters: (A,B) spans the die diagonally, as does
    // (C,D); re-pairing by proximity should flip.
    Fixture f({geom::Pt{0, 0}, {8000, 8000}, {400, 100}, {8200, 7900}});
    HStructureStats stats;
    const auto [nu, nv] =
        hstructure_check(f.tree, f.u, f.v, {&f.records, &f.timing}, analytic(),
                         opts(HStructureMode::correct), stats, f.engine);
    EXPECT_EQ(stats.flips, 1);
    EXPECT_TRUE(nu != f.u || nv != f.v);
    f.tree.validate_subtree(nu);
    f.tree.validate_subtree(nv);
    // All four sinks remain reachable, two per new subtree.
    EXPECT_EQ(f.tree.sinks_below(nu).size(), 2u);
    EXPECT_EQ(f.tree.sinks_below(nv).size(), 2u);
    // Records/timing updated for the new roots.
    EXPECT_TRUE(f.records.count(nu));
    EXPECT_TRUE(f.timing.count(nv));
}

TEST(HStructure, ReestimateFlipsOnCostAndRebuilds) {
    Fixture f({geom::Pt{0, 0}, {8000, 8000}, {400, 100}, {8200, 7900}});
    HStructureStats stats;
    const auto [nu, nv] =
        hstructure_check(f.tree, f.u, f.v, {&f.records, &f.timing}, analytic(),
                         opts(HStructureMode::reestimate), stats, f.engine);
    EXPECT_EQ(stats.flips, 1);
    f.tree.validate_subtree(nu);
    f.tree.validate_subtree(nv);
}

TEST(HStructure, FullFlowCorrectionNeverLosesSinks) {
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        const auto sinks = random_sinks(24, 7000.0, seed);
        SynthesisOptions o;
        o.hstructure = HStructureMode::correct;
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        res.tree.validate_subtree(res.root);
        EXPECT_EQ(res.tree.sinks_below(res.root).size(), 24u) << "seed " << seed;
        EXPECT_GT(res.hstats.checks, 0);
    }
}

TEST(HStructure, IncrementalEngineStaysConsistentAcrossRepairing) {
    // H-structure re-pairings move subtrees on the shared tree; the
    // detach/reattach notifications must leave a warmed engine's
    // caches consistent, so its timing after the re-pairing matches
    // the batch oracle to float-associativity. Covers both the
    // flipping and the original-restoring outcome of each method --
    // a stale cache (missed notification) shows up as a ps-scale
    // error, far beyond the 1e-9 bound here.
    const std::array<geom::Pt, 4> interleaved = {
        geom::Pt{0, 0}, {8000, 8000}, {400, 100}, {8200, 7900}};
    const std::array<geom::Pt, 4> clustered = {
        geom::Pt{0, 0}, {500, 0}, {8000, 8000}, {8500, 8000}};
    for (HStructureMode mode : {HStructureMode::correct, HStructureMode::reestimate}) {
        for (const auto& pts : {interleaved, clustered}) {
            Fixture f(pts);
            const SynthesisOptions o = opts(mode);
            IncrementalTiming engine(f.tree, analytic(), synthesis_timing_options(o));
            // Warm every cache the re-pairing will have to invalidate.
            (void)engine.root_timing(f.u);
            (void)engine.root_timing(f.v);

            HStructureStats stats;
            const auto [nu, nv] = hstructure_check(f.tree, f.u, f.v,
                                                   {&f.records, &f.timing}, analytic(), o,
                                                   stats, engine);
            EXPECT_EQ(stats.checks, 1);
            for (int root : {nu, nv}) {
                f.tree.validate_subtree(root);
                const RootTiming e = engine.root_timing(root);
                const RootTiming b =
                    subtree_timing(f.tree, root, analytic(), 80.0, /*propagate=*/true);
                EXPECT_NEAR(e.max_ps, b.max_ps, 1e-9)
                    << "mode " << static_cast<int>(mode) << " flips " << stats.flips;
                EXPECT_NEAR(e.min_ps, b.min_ps, 1e-9);
            }
        }
    }
}

TEST(HStructure, FullFlowWithEngineMatchesOracle) {
    // Integration: a multi-level synthesis with H-structure checks
    // now runs on the persistent engine (it no longer bypasses
    // cts::IncrementalTiming). The engine-computed root timing of the
    // result must track the batch oracle; a missed notification in any
    // of the level's re-pairings would leave a ps-scale stale error.
    for (HStructureMode mode : {HStructureMode::correct, HStructureMode::reestimate}) {
        const auto sinks = random_sinks(24, 9000.0, 4u);
        SynthesisOptions o;
        o.hstructure = mode;
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        EXPECT_GT(res.hstats.checks, 0);
        res.tree.validate_subtree(res.root);
        EXPECT_EQ(res.tree.sinks_below(res.root).size(), 24u);
        const RootTiming oracle =
            subtree_timing(res.tree, res.root, analytic(), 80.0, /*propagate=*/true);
        EXPECT_NEAR(res.root_timing.max_ps, oracle.max_ps, 1.0);
        EXPECT_NEAR(res.root_timing.min_ps, oracle.min_ps, 1.0);
    }
}

class MergeResidualProperty
    : public ::testing::TestWithParam<std::tuple<double, double, unsigned>> {};

TEST_P(MergeResidualProperty, BinarySearchBalancesArbitraryPairs) {
    const auto [dx, imbalance, seed] = GetParam();
    const auto& m = analytic();
    ClockTree t;
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> jitter(-400.0, 400.0);
    const int a0 = t.add_sink({jitter(rng), jitter(rng)}, 12.0);
    const int b = t.add_sink({dx + jitter(rng), jitter(rng)}, 22.0);

    int ra = a0;
    RootTiming ta{0, 0};
    if (imbalance > 0.0) {
        const SnakeResult sr = snake_delay(t, a0, imbalance, m, SynthesisOptions{});
        ra = sr.new_root;
        ta = subtree_timing(t, ra, m, 80.0, true);
    }
    IncrementalTiming engine(t, m, synthesis_timing_options(SynthesisOptions{}));
    const MergeRecord rec = merge_route(t, ra, b, ta, {0, 0}, m, SynthesisOptions{}, engine);
    t.validate_subtree(rec.merge_node);
    // The engine-driven rebalance must land within a couple of ps.
    EXPECT_LT(rec.residual_diff_ps, 2.5)
        << "dx=" << dx << " imb=" << imbalance << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MergeResidualProperty,
                         ::testing::Combine(::testing::Values(300.0, 3000.0, 12000.0),
                                            ::testing::Values(0.0, 60.0, 250.0),
                                            ::testing::Values(1u, 2u)));

}  // namespace
}  // namespace ctsim::cts
