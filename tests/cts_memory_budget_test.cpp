// Memory budgets through the whole pipeline: an unlimited budget
// measures the run's peak, and a sweep of caps down to half that peak
// must ALWAYS yield either a valid fully-timed tree with the
// degradation rung recorded, or a clean typed resource_exhaustion --
// never a crash, leak, or invalid tree. Part of the `stress` ctest
// label (runs under ASan and TSan in CI).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "cts_test_util.h"
#include "util/memory_budget.h"
#include "util/status.h"

namespace ctsim::cts {
namespace {

using testutil::analytic;
using testutil::random_sinks;

SynthesisOptions opts() {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    o.num_threads = 1;
    return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.buffer_count, b.buffer_count);
    EXPECT_DOUBLE_EQ(a.wire_length_um, b.wire_length_um);
    ASSERT_EQ(a.tree.size(), b.tree.size());
    for (int i = 0; i < a.tree.size(); ++i) {
        const TreeNode& na = a.tree.node(i);
        const TreeNode& nb = b.tree.node(i);
        ASSERT_EQ(na.kind, nb.kind) << "node " << i;
        EXPECT_EQ(na.parent, nb.parent) << "node " << i;
        EXPECT_EQ(na.children, nb.children) << "node " << i;
        EXPECT_DOUBLE_EQ(na.parent_wire_um, nb.parent_wire_um) << "node " << i;
        EXPECT_EQ(na.buffer_type, nb.buffer_type) << "node " << i;
    }
}

/// Valid-tree surface invariants (synthesize() validates the subtree
/// internally; this re-checks what a caller depends on).
void expect_valid(const SynthesisResult& res, std::size_t sink_count) {
    EXPECT_EQ(res.tree.sinks_below(res.root).size(), sink_count);
    EXPECT_TRUE(std::isfinite(res.root_timing.max_ps));
    EXPECT_GT(res.root_timing.max_ps, 0.0);
}

TEST(MemoryBudgetSynth, UnlimitedBudgetMeasuresPeakAndChangesNothing) {
    const auto sinks = random_sinks(32, 16000.0, 81);
    const SynthesisResult plain = synthesize(sinks, analytic(), opts());

    util::MemoryBudget meter(0);  // unlimited: pure measurement
    SynthesisOptions o = opts();
    o.memory_budget = &meter;
    const SynthesisResult metered = synthesize(sinks, analytic(), o);

    // Measurement must be free: no refusal can ever happen, so the
    // tree is identical and no rung was climbed.
    expect_identical(metered, plain);
    EXPECT_EQ(metered.diagnostics.memory_rung, MemoryRung::none);
    EXPECT_GT(metered.diagnostics.memory_peak_bytes, 0u);
    EXPECT_EQ(metered.diagnostics.memory_peak_bytes, meter.peak());
    EXPECT_EQ(meter.used(), 0u);  // everything was released
}

TEST(MemoryBudgetSynth, CapAtPeakStaysNominal) {
    const auto sinks = random_sinks(32, 16000.0, 81);
    util::MemoryBudget meter(0);
    SynthesisOptions mo = opts();
    mo.memory_budget = &meter;
    const SynthesisResult plain = synthesize(sinks, analytic(), mo);
    const std::uint64_t peak = meter.peak();
    ASSERT_GT(peak, 0u);

    // A cap exactly at the measured peak: the same reservation
    // sequence replays under it, so nothing is refused.
    util::MemoryBudget capped(peak);
    SynthesisOptions o = opts();
    o.memory_budget = &capped;
    const SynthesisResult res = synthesize(sinks, analytic(), o);
    expect_identical(res, plain);
    EXPECT_EQ(res.diagnostics.memory_rung, MemoryRung::none);
    EXPECT_EQ(capped.used(), 0u);
}

TEST(MemoryBudgetSynth, SweepDownToHalfPeakAlwaysDegradesOrFailsCleanly) {
    // THE acceptance sweep: caps from the measured peak down to 50%.
    // Every run must end in one of exactly two states.
    const auto sinks = random_sinks(48, 20000.0, 83);
    util::MemoryBudget meter(0);
    SynthesisOptions mo = opts();
    mo.memory_budget = &meter;
    (void)synthesize(sinks, analytic(), mo);
    const std::uint64_t peak = meter.peak();
    ASSERT_GT(peak, 0u);

    for (const double frac : {1.0, 0.9, 0.8, 0.7, 0.6, 0.5}) {
        const auto cap = static_cast<std::uint64_t>(static_cast<double>(peak) * frac);
        util::MemoryBudget budget(cap);
        SynthesisOptions o = opts();
        o.memory_budget = &budget;
        try {
            const SynthesisResult res = synthesize(sinks, analytic(), o);
            // State 1: a VALID fully-timed tree, the rung on record.
            expect_valid(res, sinks.size());
            if (frac < 1.0 && res.diagnostics.memory_rung != MemoryRung::none) {
                EXPECT_NE(res.diagnostics.memory_rung, MemoryRung::exhausted);
            }
            EXPECT_LE(res.diagnostics.memory_peak_bytes, cap) << "frac " << frac;
        } catch (const util::Error& e) {
            // State 2: a clean TYPED failure -- the ladder was spent.
            EXPECT_EQ(e.status().code(), util::StatusCode::resource_exhaustion)
                << "frac " << frac << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find("exhausted"), std::string::npos)
                << e.what();
        }
        // Leak check either way: every reservation was returned (the
        // ladder's destructor releases its shared charge too).
        EXPECT_EQ(budget.used(), 0u) << "frac " << frac;
    }
}

TEST(MemoryBudgetSynth, DegradedSerialRunIsDeterministic) {
    // Under num_threads=1 the ladder escalates at deterministic
    // points, so two runs under the same tight cap must be identical
    // trees with the same recorded rung (the budget-degraded goldens
    // rely on exactly this).
    const auto sinks = random_sinks(32, 16000.0, 89);
    util::MemoryBudget meter(0);
    SynthesisOptions mo = opts();
    mo.memory_budget = &meter;
    (void)synthesize(sinks, analytic(), mo);
    const std::uint64_t cap = (meter.peak() * 7) / 10;

    auto run = [&](SynthesisResult& out, MemoryRung& rung) {
        util::MemoryBudget budget(cap);
        SynthesisOptions o = opts();
        o.memory_budget = &budget;
        try {
            out = synthesize(sinks, analytic(), o);
            rung = out.diagnostics.memory_rung;
            return true;
        } catch (const util::Error&) {
            rung = MemoryRung::exhausted;
            return false;
        }
    };
    SynthesisResult a, b;
    MemoryRung ra{}, rb{};
    const bool oka = run(a, ra);
    const bool okb = run(b, rb);
    EXPECT_EQ(oka, okb);
    EXPECT_EQ(ra, rb);
    if (oka && okb) expect_identical(a, b);
}

TEST(MemoryBudgetSynth, BudgetMbOptionInstallsRunLocalBudget) {
    // The CLI path: a generous --memory-budget-mb must behave exactly
    // like no budget, while recording the peak in the diagnostics.
    const auto sinks = random_sinks(24, 12000.0, 97);
    const SynthesisResult plain = synthesize(sinks, analytic(), opts());
    SynthesisOptions o = opts();
    o.memory_budget_mb = 4096.0;
    const SynthesisResult res = synthesize(sinks, analytic(), o);
    expect_identical(res, plain);
    EXPECT_EQ(res.diagnostics.memory_rung, MemoryRung::none);
    EXPECT_GT(res.diagnostics.memory_peak_bytes, 0u);
}

TEST(MemoryBudgetSynth, TinyBudgetFailsTypedNotCrash) {
    // A cap far below anything workable: the ladder walks all rungs
    // and must surface the typed error, never a crash or a bad tree.
    const auto sinks = random_sinks(24, 12000.0, 101);
    util::MemoryBudget budget(1024);  // 1 KB
    SynthesisOptions o = opts();
    o.memory_budget = &budget;
    try {
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        // Even this is allowed -- IF the tree is valid.
        expect_valid(res, sinks.size());
    } catch (const util::Error& e) {
        EXPECT_EQ(e.status().code(), util::StatusCode::resource_exhaustion);
    }
    EXPECT_EQ(budget.used(), 0u);
}

TEST(MemoryBudgetSynth, PooledRunUnderPressureEqualsSerial) {
    // A budgeted run is serial whatever num_threads says: concurrent
    // routes racing for the budget would make where the ladder
    // escalates, and which routes it coarsens, schedule-dependent.
    // So a num_threads = 4 run under pressure must equal the
    // num_threads = 1 run node for node, every time.
    const auto sinks = random_sinks(64, 24000.0, 5);
    util::MemoryBudget meter(0);
    SynthesisOptions mo = opts();
    mo.memory_budget = &meter;
    (void)synthesize(sinks, analytic(), mo);

    for (const double frac : {0.8, 0.6}) {
        SCOPED_TRACE("frac " + std::to_string(frac));
        const auto cap = static_cast<std::uint64_t>(static_cast<double>(meter.peak()) * frac);
        struct Outcome {
            bool ok{false};
            SynthesisResult res;
        };
        const auto run = [&](int threads) {
            util::MemoryBudget budget(cap);
            SynthesisOptions o = opts();
            o.num_threads = threads;
            o.memory_budget = &budget;
            Outcome out;
            try {
                out.res = synthesize(sinks, analytic(), o);
                out.ok = true;
                expect_valid(out.res, sinks.size());
            } catch (const util::Error& e) {
                EXPECT_EQ(e.status().code(), util::StatusCode::resource_exhaustion)
                    << e.what();
            }
            EXPECT_EQ(budget.used(), 0u);
            return out;
        };
        const Outcome serial = run(1);
        for (int rep = 0; rep < 2; ++rep) {
            const Outcome pooled = run(4);
            ASSERT_EQ(pooled.ok, serial.ok) << "rep " << rep;
            if (!serial.ok) continue;
            expect_identical(pooled.res, serial.res);
            EXPECT_EQ(pooled.res.diagnostics.memory_rung, serial.res.diagnostics.memory_rung);
            EXPECT_EQ(pooled.res.diagnostics.grid_coarsened_routes,
                      serial.res.diagnostics.grid_coarsened_routes);
        }
    }
}

}  // namespace
}  // namespace ctsim::cts
