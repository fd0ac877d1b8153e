// Schedule-fuzzing determinism suite for the DAG-executor pipeline
// (docs/parallelism.md): DagExecutor::set_test_fuzz makes every
// executor in the process dispatch its ranks in a seeded permutation,
// so each seed drives the pooled levels of the merge loop
// through a different interleaving of run phases before the serial
// levels and the refine pass run on the run's engine.
// The determinism contract says the OUTPUT is a pure function of the
// graph -- commits publish in rank order no matter what the schedule
// does -- so every seed at every width must reproduce the serial tree
// node-for-node and the pass stats field-for-field. A single
// mismatch here means a run phase read state that a commit writes
// (the exact bug class the executor exists to make impossible), which
// no fixed-schedule test would catch.
#include <gtest/gtest.h>

#include <cstdint>

#include "cts_test_util.h"
#include "util/cancel.h"
#include "util/dag_executor.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::random_sinks;

struct FuzzGuard {
    explicit FuzzGuard(unsigned seed) { util::DagExecutor::set_test_fuzz(seed); }
    ~FuzzGuard() { util::DagExecutor::set_test_fuzz(0); }
};

SynthesisOptions opts(int threads) {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    o.num_threads = threads;
    return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b,
                      const char* what) {
    EXPECT_EQ(a.root, b.root) << what;
    EXPECT_EQ(a.levels, b.levels) << what;
    EXPECT_EQ(a.buffer_count, b.buffer_count) << what;
    EXPECT_DOUBLE_EQ(a.wire_length_um, b.wire_length_um) << what;
    EXPECT_DOUBLE_EQ(a.root_timing.max_ps, b.root_timing.max_ps) << what;
    EXPECT_DOUBLE_EQ(a.root_timing.min_ps, b.root_timing.min_ps) << what;
    ASSERT_EQ(a.tree.size(), b.tree.size()) << what;
    for (int i = 0; i < a.tree.size(); ++i) {
        const TreeNode& na = a.tree.node(i);
        const TreeNode& nb = b.tree.node(i);
        ASSERT_EQ(na.kind, nb.kind) << what << " node " << i;
        ASSERT_EQ(na.parent, nb.parent) << what << " node " << i;
        ASSERT_EQ(na.children, nb.children) << what << " node " << i;
        ASSERT_DOUBLE_EQ(na.parent_wire_um, nb.parent_wire_um) << what << " node " << i;
        ASSERT_DOUBLE_EQ(na.pos.x, nb.pos.x) << what << " node " << i;
        ASSERT_DOUBLE_EQ(na.pos.y, nb.pos.y) << what << " node " << i;
        ASSERT_EQ(na.buffer_type, nb.buffer_type) << what << " node " << i;
    }
    // The pass stats pin the DECISION SEQUENCE, not just the end
    // state: a schedule that reached the same tree through different
    // refine moves is still a determinism bug.
    EXPECT_EQ(a.refine.passes, b.refine.passes) << what;
    EXPECT_EQ(a.refine.merges_visited, b.refine.merges_visited) << what;
    EXPECT_EQ(a.refine.trims, b.refine.trims) << what;
    EXPECT_EQ(a.refine.buffer_swaps, b.refine.buffer_swaps) << what;
    EXPECT_EQ(a.refine.snake_stages, b.refine.snake_stages) << what;
    EXPECT_DOUBLE_EQ(a.refine.final_skew_ps, b.refine.final_skew_ps) << what;
}

constexpr unsigned kSeeds = 20;
constexpr int kWidths[] = {2, 3, 8};

void fuzz_matrix(const std::vector<SinkSpec>& sinks, const char* label) {
    const SynthesisResult serial = synthesize(sinks, analytic(), opts(1));
    for (int threads : kWidths) {
        for (unsigned seed = 1; seed <= kSeeds; ++seed) {
            FuzzGuard fuzz(seed);
            const SynthesisResult par = synthesize(sinks, analytic(), opts(threads));
            std::string what = std::string(label) + " threads=" +
                               std::to_string(threads) + " seed=" + std::to_string(seed);
            expect_identical(serial, par, what.c_str());
            // Both kinds of level ran: the wide bottom levels through
            // the pool, the narrow top ones in place (one executor
            // task per pooled merge, sinks - 1 merges in all).
            EXPECT_GT(par.profile.dag_tasks, 0u) << what;
            EXPECT_LT(par.profile.dag_tasks, sinks.size() - 1) << what;
            if (testing::Test::HasFatalFailure()) return;
        }
    }
}

// Two instances with different level shapes: a wide even-count
// spread (several pooled levels, then serial ones; long refine
// spines) and a smaller odd-count one whose 16-pair bottom level is
// the narrowest that is pooled (seed-node passthrough interleaves
// unpaired roots with committed merges).
TEST(ScheduleFuzz, WideInstanceMatchesSerialUnderAllSchedules) {
    fuzz_matrix(random_sinks(160, 40000.0, 7), "wide");
}

TEST(ScheduleFuzz, OddInstanceMatchesSerialUnderAllSchedules) {
    fuzz_matrix(random_sinks(33, 16000.0, 29), "odd");
}

// Deadline cuts interact with the fuzzed schedules through the
// counted polls. Inside the merge phase the routes poll a shared
// counter concurrently, so WHICH route sees poll #n is
// schedule-dependent there (the serial-only caveat cts_deadline_test
// documents) -- but the TOTAL a completed merge phase consumes is a
// sum over routes, hence order-independent. Past that boundary the
// poll sequence is deterministic again by construction: the serial
// refine pass polls once per merge in its deepest-first visit order.
// A token tripping after n > merge-phase polls must therefore cut the
// SAME merge -- and degrade to the same tree -- at any width, under
// any schedule.
TEST(ScheduleFuzz, RefineDeadlineCutsLandIdenticallyUnderAllSchedules) {
    const auto sinks = random_sinks(33, 16000.0, 29);

    // The merge-phase poll budget: probe with refine off (it does not
    // change the merge phase, only runs after it).
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
         {merge_polls + 1, merge_polls + (total - merge_polls) / 2, total}) {
        util::CancelToken st;
        st.trip_after(n);
        SynthesisOptions so = opts(1);
        so.cancel = &st;
        const SynthesisResult serial = synthesize(sinks, analytic(), so);
        for (unsigned seed = 1; seed <= 6; ++seed) {
            FuzzGuard fuzz(seed);
            util::CancelToken pt;
            pt.trip_after(n);
            SynthesisOptions o = opts(3);
            o.cancel = &pt;
            const SynthesisResult par = synthesize(sinks, analytic(), o);
            std::string what = "cut n=" + std::to_string(n) + " seed=" +
                               std::to_string(seed);
            expect_identical(serial, par, what.c_str());
            EXPECT_EQ(serial.diagnostics.deadline_hit, par.diagnostics.deadline_hit)
                << what;
            EXPECT_EQ(serial.diagnostics.degraded_at, par.diagnostics.degraded_at)
                << what;
            if (testing::Test::HasFatalFailure()) return;
        }
    }
}

}  // namespace
}  // namespace ctsim::cts
