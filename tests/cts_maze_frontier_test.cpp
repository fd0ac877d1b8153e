// Maze engine coverage: precomputed delay rows, the sparse bucketed
// frontier against the dense reference sweep, and the coarse-to-fine
// corridor route (see the engine contracts at the top of maze.h).
#include <gtest/gtest.h>

#include <random>

#include "cts/maze_rows.h"
#include "cts/memory_ladder.h"
#include "cts/phase_profile.h"
#include "cts_test_util.h"
#include "util/memory_budget.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::buflib;

SynthesisOptions base_opts() {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    return o;
}

RouteEndpoint endpoint(geom::Pt pos, double dmax, const delaylib::DelayModel& m) {
    RouteEndpoint ep;
    ep.pos = pos;
    ep.load_type = m.load_type_for_cap(12.0);
    ep.delay_max_ps = dmax;
    ep.delay_min_ps = dmax;
    return ep;
}

/// Randomized merge instances shared by the equivalence properties:
/// spans from sub-grid to multi-grid-growth, delay imbalances from
/// balanced to near the in-route reach.
struct Instance {
    RouteEndpoint a, b;
};
std::vector<Instance> random_instances(int count, unsigned seed) {
    const auto& m = analytic();
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> span(300.0, 18000.0);
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    std::uniform_real_distribution<double> imb(0.0, 120.0);
    std::vector<Instance> out;
    for (int i = 0; i < count; ++i) {
        const double s = span(rng);
        Instance inst;
        inst.a = endpoint({1000.0 + s * unit(rng), 1000.0 + s * unit(rng)}, imb(rng), m);
        inst.b = endpoint({1000.0 + s * unit(rng), 1000.0 + s * unit(rng)}, imb(rng), m);
        out.push_back(inst);
    }
    return out;
}

void expect_valid(const MazeResult& r) {
    EXPECT_TRUE(geom::almost_equal(r.side1.trace.back(), r.meet));
    EXPECT_TRUE(geom::almost_equal(r.side2.trace.back(), r.meet));
    const double lim =
        max_feasible_run(analytic(), buflib().largest(), 0, 80.0, 80.0, 1e9);
    EXPECT_LE(r.side1.tail_um, lim * 1.05);
    EXPECT_LE(r.side2.tail_um, lim * 1.05);
}

/// A run-local context whose memory ladder sits at the drop_c2f rung
/// (unlimited budget, so nothing else degrades): routes through it
/// take the plain full-grid path, exactly as a pressured run does.
struct FullGridContext {
    util::MemoryBudget budget{0};
    MemoryLadder ladder{&budget};
    SynthesisContext ctx;
    FullGridContext() {
        ladder.escalate_to(MemoryRung::drop_c2f);
        ctx.memory_ladder = &ladder;
    }
};

// --- precomputed rows -------------------------------------------------

TEST(MazeDelayRows, EntriesAreBitIdenticalToEvalCacheLookups) {
    // The row fill goes through the EvalCache at the cache's own
    // quantization, so reading a row must return exactly what the
    // cache returns for the same length (maze.h contract) -- which is
    // what lets the memory ladder drop the rows without moving a
    // single routing decision. Compared against a private cache that
    // never fed the rows.
    const auto& m = analytic();
    const SynthesisOptions o = base_opts();
    const DelayRows& rows = delay_rows_for(eval_cache_for(m, o));
    delaylib::EvalCache::Config cfg;
    cfg.model = &m;
    cfg.assumed_slew_ps = o.assumed_slew();
    cfg.target_slew_ps = o.slew_target_ps;
    cfg.intelligent_sizing = o.intelligent_sizing;
    delaylib::EvalCache ec(cfg);
    ASSERT_EQ(rows.tmax, buflib().largest());
    ASSERT_EQ(static_cast<int>(rows.rows.size()), buflib().count());
    for (int l = 0; l < buflib().count(); ++l) {
        EXPECT_EQ(rows.run_limit[l], maze_run_cap(ec, rows.tmax, l)) << "l=" << l;
        const DelayRows::LoadRow& row = rows.rows[l];
        ASSERT_GT(row.wire_delay.size(), 1u);
        for (std::size_t i = 0; i < row.wire_delay.size(); ++i) {
            const double len = static_cast<double>(i) * delaylib::EvalCache::kQuantumUm;
            ASSERT_EQ(DelayRows::index_of(len), static_cast<int>(i));
            EXPECT_EQ(row.wire_delay[i], ec.wire_delay(rows.tmax, l, len)) << l << "/" << i;
            const auto t = ec.choose_buffer(l, len);
            EXPECT_EQ(row.choice[i], t ? *t : -1) << l << "/" << i;
            if (t) {
                EXPECT_EQ(row.stage_delay[i], ec.stage_delay(*t, l, len)) << l << "/" << i;
            }
        }
    }
}

// --- bucketed frontier ------------------------------------------------

TEST(MazeBucketFrontier, CostEquivalentToDenseSweep) {
    // The dense reference (maze_route_reference) computes the exact
    // DP optimum over the full grid. The bucketed frontier may stop
    // early, but its meet's delay difference must stay within the
    // stated band of the optimum: the early-exit tolerance plus the
    // frontier bounds' monotonicity slack (see maze.h). The bucket
    // route runs on the full grid (drop_c2f rung) so the only delta
    // is the expansion strategy.
    const auto& m = analytic();
    const double tol = kMazeMeetTolPs + 2.0 * kMazeMonoSlackPs;
    FullGridContext full;
    for (const Instance& inst : random_instances(30, 11u)) {
        const MazeResult rd = maze_route_reference(inst.a, inst.b, m, base_opts());
        const MazeResult rb = maze_route(inst.a, inst.b, m, base_opts(), &full.ctx);
        expect_valid(rb);
        EXPECT_FALSE(rb.c2f_fallback);
        EXPECT_LE(std::abs(rb.d1_ps - rb.d2_ps), std::abs(rd.d1_ps - rd.d2_ps) + tol)
            << "a=(" << inst.a.pos.x << "," << inst.a.pos.y << ") d=" << inst.a.delay_max_ps
            << " b=(" << inst.b.pos.x << "," << inst.b.pos.y << ") d="
            << inst.b.delay_max_ps;
    }
}

// --- coarse-to-fine ---------------------------------------------------

TEST(MazeCoarseToFine, CostEquivalentToFullGridRoute) {
    const auto& m = analytic();
    FullGridContext full;
    for (const Instance& inst : random_instances(30, 13u)) {
        const MazeResult rf = maze_route(inst.a, inst.b, m, base_opts(), &full.ctx);
        const MazeResult rc = maze_route(inst.a, inst.b, m, base_opts());  // shipped
        expect_valid(rc);
        // The corridor restricts candidates, so the c2f meet can be
        // somewhat worse in diff; the binary-search and rebalance
        // stages absorb this band (and the fallback covers failures).
        EXPECT_LE(std::abs(rc.d1_ps - rc.d2_ps), std::abs(rf.d1_ps - rf.d2_ps) + 15.0);
    }
}

TEST(MazeCoarseToFine, InfeasibleCoarsePitchFallsBackToFullGrid) {
    // Force a coarse grid whose pitch exceeds every buffer's feasible
    // run: coarse labels die two cells from each source, the coarse
    // pass finds no meet, and maze_route must silently re-route on
    // the full grid (maze.h fallback contract).
    const auto& m = analytic();
    SynthesisOptions o = base_opts();
    o.grid_cells_per_dim = 24;      // >= the c2f engage threshold
    o.grid_max_pitch_um = 1e9;      // no dynamic growth
    const double far = max_feasible_run(m, buflib().largest(), 0, 80.0, 80.0, 1e9);
    const double dist = 7.2 * far;  // fine pitch 0.3*far, coarse ~1.4*far

    PhaseProfile s;
    SynthesisContext ctx;
    ctx.profile = &s;
    const MazeResult r = maze_route(endpoint({0, 0}, 0.0, m),
                                    endpoint({dist, 0.6 * dist}, 0.0, m), m, o, &ctx);

    EXPECT_EQ(s.c2f_coarse_routes, 1u);
    EXPECT_EQ(s.c2f_fallbacks, 1u);
    EXPECT_EQ(s.c2f_refined, 0u);
    // The fallback route is a working full-resolution result.
    EXPECT_TRUE(geom::almost_equal(r.side1.trace.back(), r.meet));
    EXPECT_GE(r.side1.buffers.size() + r.side2.buffers.size(), 2u);
}

TEST(MazeCoarseToFine, RefinementServesLargeMerges) {
    // Sanity: on an ordinary large merge the corridor refinement (not
    // the fallback) serves the result.
    const auto& m = analytic();
    PhaseProfile s;
    SynthesisContext ctx;
    ctx.profile = &s;
    const MazeResult r = maze_route(endpoint({0, 0}, 0.0, m),
                                    endpoint({15000, 9000}, 0.0, m), m, base_opts(), &ctx);
    EXPECT_EQ(s.maze_calls, 1u);
    EXPECT_GT(s.maze_s, 0.0);
    EXPECT_EQ(s.c2f_refined, 1u);
    EXPECT_EQ(s.c2f_fallbacks, 0u);
    expect_valid(r);
}

}  // namespace
}  // namespace ctsim::cts
