#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench_io/synthetic.h"
#include "cts_test_util.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::random_sinks;

SynthesisOptions opts(int threads) {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    o.num_threads = threads;
    return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.buffer_count, b.buffer_count);
    EXPECT_EQ(a.tree.size(), b.tree.size());
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

/// A pooled run (`threads` resolving to more than one worker) must
/// have routed its wide levels through the executor and its narrow
/// top levels in place: one task per pooled merge, and fewer than
/// the sinks - 1 merges of the whole tree.
void expect_mixed_levels(const SynthesisResult& r, std::size_t sinks, int threads) {
    if (util::ThreadPool::resolve_thread_count(threads) < 2) return;  // no pool
    EXPECT_GT(r.profile.dag_tasks, 0u) << "no level went to the pool";
    EXPECT_LT(r.profile.dag_tasks, sinks - 1) << "no level routed in place";
}

TEST(ParallelSynth, BitForBitIdenticalToSerial) {
    const auto sinks = random_sinks(160, 40000.0, 7);
    const auto serial = synthesize(sinks, analytic(), opts(1));
    EXPECT_EQ(serial.profile.dag_tasks, 0u);
    for (int threads : {2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const auto par = synthesize(sinks, analytic(), opts(threads));
        expect_identical(serial, par);
        expect_mixed_levels(par, sinks.size(), threads);
    }
}

TEST(ParallelSynth, HardwareThreadCountMatchesSerial) {
    const auto sinks = random_sinks(160, 36000.0, 21);
    const auto serial = synthesize(sinks, analytic(), opts(1));
    const auto par = synthesize(sinks, analytic(), opts(0));  // 0 = hardware threads
    expect_identical(serial, par);
    expect_mixed_levels(par, sinks.size(), 0);
}

TEST(ParallelSynth, IdenticalAcrossRepeatedRuns) {
    // The pooled label grids and per-thread caches must not leak state
    // between synthesize calls.
    const auto sinks = random_sinks(160, 60000.0, 3);
    const auto first = synthesize(sinks, analytic(), opts(3));
    const auto second = synthesize(sinks, analytic(), opts(3));
    expect_identical(first, second);
    expect_mixed_levels(first, sinks.size(), 3);
}

TEST(ParallelSynth, OddRootCountAndSeedPassthrough) {
    // Odd root counts on pooled levels (165 -> 83 -> 42 roots) and on
    // serial ones exercise the seed-node passthrough interleaved with
    // parallel commits.
    const auto sinks = random_sinks(165, 42000.0, 5);
    const auto serial = synthesize(sinks, analytic(), opts(1));
    const auto par = synthesize(sinks, analytic(), opts(4));
    expect_identical(serial, par);
    expect_mixed_levels(par, sinks.size(), 4);
    EXPECT_EQ(serial.tree.sinks_below(serial.root).size(), 165u);
}

TEST(ParallelSynth, ThreadByPhaseMatrixMatchesSerial) {
    // The merge alone, and followed by the serial refine pass on the
    // run's engine, at every interesting width (1 = no pool, 2/3 =
    // contended lane, 0 = hardware width): each cell must be
    // bit-identical to the single-threaded run of the SAME phase set,
    // so a determinism leak is attributed to a phase, not just to
    // "parallel".
    const auto sinks = random_sinks(160, 40000.0, 11);
    for (bool refine : {false, true}) {
        SynthesisOptions so = opts(1);
        so.skew_refine = refine;
        const auto serial = synthesize(sinks, analytic(), so);
        for (int threads : {1, 2, 3, 0}) {
            SynthesisOptions o = opts(threads);
            o.skew_refine = refine;
            SCOPED_TRACE(std::string(refine ? "merge+refine" : "merge-only") +
                         " threads=" + std::to_string(threads));
            const auto par = synthesize(sinks, analytic(), o);
            expect_identical(serial, par);
            expect_mixed_levels(par, sinks.size(), threads);
        }
    }
}

TEST(ParallelSynth, HStructureModesMatchSerial) {
    // H-structure re-pairings run serially on the shared tree before
    // each level's DAG, on the run's engine; under a pool that engine
    // is re-created after every pooled level instead of living for
    // the whole run, and engine purity must keep the trees identical. (Re-timing them
    // with batch subtree_timing instead drifts by float ulps, which
    // flips re-pairing decisions on this instance.)
    bench_io::BenchmarkSpec spec;
    spec.name = "scal_n200";
    spec.sink_count = 200;
    spec.die_span_um = 40000.0;
    spec.seed = 11;
    const auto sinks = bench_io::generate(spec);
    for (HStructureMode mode : {HStructureMode::reestimate, HStructureMode::correct}) {
        SynthesisOptions so = opts(1);
        so.hstructure = mode;
        const auto serial = synthesize(sinks, testutil::fitted_quick(), so);
        for (int threads : {2, 3}) {
            SynthesisOptions o = so;
            o.num_threads = threads;
            SCOPED_TRACE("hstructure " + std::to_string(static_cast<int>(mode)) +
                         " threads=" + std::to_string(threads));
            const auto par = synthesize(sinks, testutil::fitted_quick(), o);
            expect_identical(serial, par);
            expect_mixed_levels(par, sinks.size(), threads);
        }
    }
}

TEST(ParallelSynth, RefineDeadlineCutsMatchSerial) {
    // Deadline-cut x DAG interaction. Counted polls inside the merge
    // phase are consumed by concurrently running routes, so per-poll
    // attribution there is schedule-dependent (cts_deadline_test pins
    // the serial contract) -- but their TOTAL is a sum over routes,
    // order-independent. Cuts landing past the merge phase hit the
    // serial refine pass's per-merge polls, so the degraded tree must
    // be bit-identical to the serial run cut at the same count, at any
    // width.
    const auto sinks = random_sinks(40, 21000.0, 11);

    util::CancelToken mprobe;
    mprobe.trip_after(~std::uint64_t{0});
    SynthesisOptions mo = opts(1);
    mo.skew_refine = false;
    mo.cancel = &mprobe;
    (void)synthesize(sinks, analytic(), mo);
    const std::uint64_t merge_polls = mprobe.checks();

    util::CancelToken probe;
    probe.trip_after(~std::uint64_t{0});
    SynthesisOptions po = opts(1);
    po.cancel = &probe;
    (void)synthesize(sinks, analytic(), po);
    const std::uint64_t total = probe.checks();
    ASSERT_GT(total, merge_polls + 2) << "refine consumed no polls";

    for (std::uint64_t n :
         {merge_polls + 1, merge_polls + (total - merge_polls) / 2, total - 1}) {
        util::CancelToken st;
        st.trip_after(n);
        SynthesisOptions so = opts(1);
        so.cancel = &st;
        const auto serial = synthesize(sinks, analytic(), so);
        ASSERT_TRUE(serial.diagnostics.deadline_hit) << "n=" << n;
        for (int threads : {2, 3, 0}) {
            util::CancelToken tok;
            tok.trip_after(n);
            SynthesisOptions o = opts(threads);
            o.cancel = &tok;
            SCOPED_TRACE("cut n=" + std::to_string(n) + " threads=" + std::to_string(threads));
            const auto par = synthesize(sinks, analytic(), o);
            expect_identical(serial, par);
            expect_mixed_levels(par, sinks.size(), threads);
            EXPECT_EQ(serial.diagnostics.deadline_hit, par.diagnostics.deadline_hit);
            EXPECT_EQ(serial.diagnostics.degraded_at, par.diagnostics.degraded_at);
        }
    }
}

TEST(ParallelSynth, RefineAddsNoExecutorTasksUnderAPool) {
    // Refine is serial: under a pool, only the merge loop feeds the
    // executor, so turning refine on must not change the task count.
    const auto sinks = random_sinks(40, 21000.0, 11);
    std::uint64_t tasks[2] = {0, 0};
    for (bool refine : {false, true}) {
        SynthesisOptions o = opts(2);
        o.skew_refine = refine;
        tasks[refine] = synthesize(sinks, analytic(), o).profile.dag_tasks;
    }
    EXPECT_GT(tasks[0], 0u) << "the pooled merge loop ran no executor tasks";
    EXPECT_LT(tasks[0], sinks.size() - 1) << "no level routed in place";
    EXPECT_EQ(tasks[0], tasks[1]);
}

TEST(ParallelSynth, ProfileCountersAreWidthInvariant) {
    // Each pooled route bills a private profile that its rank-ordered
    // commit folds into the run's, so the routing counters are the
    // serial run's at every width -- no global state, no smearing.
    const auto sinks = random_sinks(48, 40000.0, 13);
    const PhaseProfile serial = synthesize(sinks, analytic(), opts(1)).profile;
    EXPECT_GE(serial.maze_calls, sinks.size() - 1);
    EXPECT_GT(serial.c2f_coarse_routes, 0u);
    EXPECT_EQ(serial.dag_tasks, 0u);
    for (int threads : {2, 3}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const PhaseProfile par = synthesize(sinks, analytic(), opts(threads)).profile;
        EXPECT_EQ(par.maze_calls, serial.maze_calls);
        EXPECT_EQ(par.c2f_coarse_routes, serial.c2f_coarse_routes);
        EXPECT_EQ(par.c2f_refined, serial.c2f_refined);
        EXPECT_EQ(par.c2f_fallbacks, serial.c2f_fallbacks);
        EXPECT_GT(par.dag_tasks, 0u);
        EXPECT_LT(par.dag_tasks, sinks.size() - 1);
    }
}

}  // namespace
}  // namespace ctsim::cts
