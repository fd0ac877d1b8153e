// Cooperative deadlines and the degradation ladder (docs/robustness.md):
// a tripped CancelToken must always yield a VALID fully-timed tree, the
// diagnostics must record which stage the trip cut short, and -- via
// CancelToken::trip_after -- the cut point must be bit-for-bit
// reproducible. Also covers the input-validation contract and the
// surfaced coarse-to-fine fallback counter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "cts/incremental_timing.h"
#include "cts/maze.h"
#include "cts_test_util.h"
#include "util/cancel.h"
#include "util/status.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::buflib;
using testutil::random_sinks;

SynthesisOptions opts() {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    o.num_threads = 1;  // serial: the poll sequence is deterministic
    return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.buffer_count, b.buffer_count);
    EXPECT_DOUBLE_EQ(a.wire_length_um, b.wire_length_um);
    EXPECT_DOUBLE_EQ(a.root_timing.max_ps, b.root_timing.max_ps);
    EXPECT_DOUBLE_EQ(a.root_timing.min_ps, b.root_timing.min_ps);
    ASSERT_EQ(a.tree.size(), b.tree.size());
    for (int i = 0; i < a.tree.size(); ++i) {
        const TreeNode& na = a.tree.node(i);
        const TreeNode& nb = b.tree.node(i);
        ASSERT_EQ(na.kind, nb.kind) << "node " << i;
        EXPECT_EQ(na.parent, nb.parent) << "node " << i;
        EXPECT_EQ(na.children, nb.children) << "node " << i;
        EXPECT_DOUBLE_EQ(na.parent_wire_um, nb.parent_wire_um) << "node " << i;
        EXPECT_DOUBLE_EQ(na.pos.x, nb.pos.x) << "node " << i;
        EXPECT_DOUBLE_EQ(na.pos.y, nb.pos.y) << "node " << i;
        EXPECT_EQ(na.buffer_type, nb.buffer_type) << "node " << i;
    }
}

// ---- input validation ----------------------------------------------------

TEST(SynthValidation, EmptySinkListIsInvalidInput) {
    try {
        synthesize({}, analytic(), opts());
        FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
        EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input);
    }
}

TEST(SynthValidation, NonFinitePositionNamesTheSink) {
    auto sinks = random_sinks(4, 5000.0, 1);
    sinks[2].pos.x = std::numeric_limits<double>::quiet_NaN();
    try {
        synthesize(sinks, analytic(), opts());
        FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
        EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input);
        EXPECT_NE(e.status().message().find("sink 2"), std::string::npos)
            << e.status().message();
    }
}

TEST(SynthValidation, NonPositiveCapRejected) {
    for (double bad : {0.0, -3.0, std::numeric_limits<double>::infinity()}) {
        auto sinks = random_sinks(3, 5000.0, 2);
        sinks[0].cap_ff = bad;
        try {
            synthesize(sinks, analytic(), opts());
            FAIL() << "expected util::Error for cap " << bad;
        } catch (const util::Error& e) {
            EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input);
        }
    }
}

// ---- deadlines and degradation -------------------------------------------

TEST(Deadline, TrippedRunStillYieldsValidTimedTree) {
    const auto sinks = random_sinks(32, 16000.0, 11);
    // Measure the run's total poll budget with a token that never
    // trips, then cut at points spread across the whole pipeline.
    util::CancelToken probe;
    probe.trip_after(~std::uint64_t{0});
    SynthesisOptions po = opts();
    po.cancel = &probe;
    (void)synthesize(sinks, analytic(), po);
    const std::uint64_t total = probe.checks();
    ASSERT_GT(total, 4u);
    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{5}, total / 2, total}) {
        util::CancelToken tok;
        tok.trip_after(n);
        SynthesisOptions o = opts();
        o.cancel = &tok;
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        // synthesize() itself validates the subtree; re-check the
        // surface invariants here.
        EXPECT_EQ(res.tree.sinks_below(res.root).size(), sinks.size()) << "n=" << n;
        EXPECT_TRUE(std::isfinite(res.root_timing.max_ps)) << "n=" << n;
        EXPECT_GT(res.root_timing.max_ps, 0.0) << "n=" << n;
        ASSERT_TRUE(res.diagnostics.deadline_hit) << "n=" << n;
        EXPECT_NE(res.diagnostics.degraded_at, DegradeStage::none) << "n=" << n;
    }
}

TEST(Deadline, CutPointIsBitForBitReproducible) {
    const auto sinks = random_sinks(32, 16000.0, 13);
    for (std::uint64_t n : {3u, 77u}) {
        util::CancelToken ta, tb;
        ta.trip_after(n);
        tb.trip_after(n);
        SynthesisOptions oa = opts(), ob = opts();
        oa.cancel = &ta;
        ob.cancel = &tb;
        const SynthesisResult a = synthesize(sinks, analytic(), oa);
        const SynthesisResult b = synthesize(sinks, analytic(), ob);
        expect_identical(a, b);
        EXPECT_EQ(a.diagnostics.degraded_at, b.diagnostics.degraded_at);
        EXPECT_EQ(a.diagnostics.degraded_routes, b.diagnostics.degraded_routes);
    }
}

TEST(Deadline, GenerousDeadlineMatchesNoDeadline) {
    const auto sinks = random_sinks(24, 12000.0, 17);
    SynthesisOptions with = opts();
    with.deadline_ms = 1e9;  // hours: must never trip
    const SynthesisResult a = synthesize(sinks, analytic(), with);
    const SynthesisResult b = synthesize(sinks, analytic(), opts());
    EXPECT_FALSE(a.diagnostics.deadline_hit);
    EXPECT_EQ(a.diagnostics.degraded_at, DegradeStage::none);
    expect_identical(a, b);
}

TEST(Deadline, WallClockDeadlineDegradesGracefully) {
    // A sub-microsecond budget trips on the first poll; the run must
    // still complete with a valid tree covering every sink.
    const auto sinks = random_sinks(32, 16000.0, 19);
    SynthesisOptions o = opts();
    o.deadline_ms = 1e-6;
    const SynthesisResult res = synthesize(sinks, analytic(), o);
    EXPECT_EQ(res.tree.sinks_below(res.root).size(), sinks.size());
    EXPECT_TRUE(res.diagnostics.deadline_hit);
    EXPECT_TRUE(std::isfinite(res.root_timing.max_ps));
}

TEST(Deadline, PreTrippedTokenSkipsRefineAndReportsMerging) {
    const auto sinks = random_sinks(24, 12000.0, 23);
    util::CancelToken tok;
    tok.cancel();
    SynthesisOptions o = opts();
    o.cancel = &tok;
    const SynthesisResult res = synthesize(sinks, analytic(), o);
    EXPECT_TRUE(res.diagnostics.deadline_hit);
    EXPECT_EQ(res.diagnostics.degraded_at, DegradeStage::merging);
    EXPECT_TRUE(res.diagnostics.refine_skipped);
    EXPECT_EQ(res.refine.passes, 0);
}

// ---- refine cancellation boundary ----------------------------------------

TEST(Deadline, RefinePreTrippedLeavesTreeUntouched) {
    const auto sinks = random_sinks(24, 12000.0, 29);
    SynthesisOptions o = opts();
    o.skew_refine = false;
    SynthesisResult res = synthesize(sinks, analytic(), o);
    const ClockTree before = res.tree;

    util::CancelToken tok;
    tok.cancel();
    SynthesisOptions po = o;
    po.cancel = &tok;
    IncrementalTiming eng(res.tree, analytic(), synthesis_timing_options(po));
    const SkewRefineStats st = refine_skew(res.tree, res.root, analytic(), po, eng);
    EXPECT_TRUE(st.cancelled);
    ASSERT_EQ(res.tree.size(), before.size());
    for (int i = 0; i < before.size(); ++i) {
        EXPECT_EQ(res.tree.node(i).parent, before.node(i).parent) << i;
        EXPECT_DOUBLE_EQ(res.tree.node(i).parent_wire_um, before.node(i).parent_wire_um)
            << i;
    }
}

// ---- surfaced coarse-to-fine fallback ------------------------------------

TEST(Diagnostics, CoarseToFineFallbackSurfacesInReport) {
    // Same construction as MazeCoarseToFine.InfeasibleCoarsePitch...:
    // a coarse pitch beyond every buffer's feasible run forces the
    // full-grid fallback; the synthesis report must surface it.
    const auto& m = analytic();
    SynthesisOptions o = opts();
    o.grid_cells_per_dim = 24;
    o.grid_max_pitch_um = 1e9;
    o.skew_refine = false;
    const double far = max_feasible_run(m, buflib().largest(), 0, 80.0, 80.0, 1e9);
    const double dist = 7.2 * far;
    const std::vector<SinkSpec> sinks = {{{0, 0}, 12.0, "a"},
                                         {{dist, 0.6 * dist}, 12.0, "b"}};
    const SynthesisResult res = synthesize(sinks, m, o);
    EXPECT_EQ(res.diagnostics.c2f_fallbacks, 1);
    EXPECT_EQ(res.diagnostics.first_c2f_fallback_merge, res.root);
    EXPECT_FALSE(res.diagnostics.deadline_hit);
}

TEST(Diagnostics, CleanRunReportsNothing) {
    const auto sinks = random_sinks(16, 8000.0, 37);
    const SynthesisResult res = synthesize(sinks, analytic(), opts());
    EXPECT_FALSE(res.diagnostics.deadline_hit);
    EXPECT_EQ(res.diagnostics.degraded_at, DegradeStage::none);
    EXPECT_EQ(res.diagnostics.degraded_routes, 0);
    EXPECT_EQ(res.diagnostics.c2f_fallbacks, 0);
    EXPECT_EQ(res.diagnostics.first_c2f_fallback_merge, -1);
}

}  // namespace
}  // namespace ctsim::cts
