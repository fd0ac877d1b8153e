#include <gtest/gtest.h>

#include <cmath>

#include "cts/maze.h"
#include "cts_test_util.h"
#include "delaylib/eval_cache.h"

namespace ctsim::delaylib {
namespace {

using testutil::analytic;
using testutil::buflib;

EvalCache::Config config(const DelayModel& m, double assumed_slew_ps = 80.0) {
    EvalCache::Config cfg;
    cfg.model = &m;
    cfg.assumed_slew_ps = assumed_slew_ps;
    cfg.target_slew_ps = 80.0;
    cfg.intelligent_sizing = true;
    return cfg;
}

TEST(EvalCache, HitEqualsUncachedValueAtQuantizedLength) {
    const auto& m = analytic();
    EvalCache ec(config(m));
    for (int d = 0; d < buflib().count(); ++d) {
        for (int l = 0; l < buflib().count(); ++l) {
            for (double len : {0.0, 13.7, 101.3, 757.9, 1500.2, 3333.3}) {
                const double q = ec.quantize(len);
                EXPECT_DOUBLE_EQ(ec.wire_delay(d, l, len), m.wire_delay(d, l, 80.0, q));
                EXPECT_DOUBLE_EQ(ec.wire_slew(d, l, len), m.wire_slew(d, l, 80.0, q));
                EXPECT_DOUBLE_EQ(ec.stage_delay(d, l, len),
                                 m.buffer_delay(d, l, 80.0, q) + m.wire_delay(d, l, 80.0, q));
                // Second query of the same key must be a hit with the
                // identical value.
                const auto before = ec.stats().hits;
                EXPECT_DOUBLE_EQ(ec.wire_delay(d, l, len), m.wire_delay(d, l, 80.0, q));
                EXPECT_GT(ec.stats().hits, before);
            }
        }
    }
}

TEST(EvalCache, QuantizationErrorBounded) {
    const auto& m = analytic();
    EvalCache ec(config(m));
    // Quantization moves the query by at most quantum/2; the induced
    // delay/slew error is bounded by that times the local slope, well
    // under half a ps for all library pairs.
    for (int d = 0; d < buflib().count(); ++d) {
        for (int l = 0; l < buflib().count(); ++l) {
            for (double len = 1.0; len < 3000.0; len += 97.3) {
                EXPECT_NEAR(ec.wire_delay(d, l, len), m.wire_delay(d, l, 80.0, len), 0.5);
                EXPECT_NEAR(ec.wire_slew(d, l, len), m.wire_slew(d, l, 80.0, len), 0.5);
                EXPECT_NEAR(ec.stage_delay(d, l, len),
                            m.buffer_delay(d, l, 80.0, len) + m.wire_delay(d, l, 80.0, len),
                            0.5);
            }
        }
    }
}

TEST(EvalCache, FeasibleRunMatchesRouterBisection) {
    const auto& m = analytic();
    EvalCache ec(config(m));
    for (int d = 0; d < buflib().count(); ++d) {
        for (int l = 0; l < buflib().count(); ++l) {
            const double direct = cts::max_feasible_run(m, d, l, 80.0, 80.0, 1e9);
            EXPECT_DOUBLE_EQ(ec.max_feasible_run(d, l), direct);
            // Memoized on the second query, same value.
            EXPECT_DOUBLE_EQ(ec.max_feasible_run(d, l), direct);
        }
    }
}

TEST(EvalCache, ChooseBufferMatchesDirectAtQuantizedRun) {
    const auto& m = analytic();
    EvalCache ec(config(m));
    for (int l = 0; l < buflib().count(); ++l) {
        for (double run = 10.0; run < 3500.0; run += 133.7) {
            const auto cached = ec.choose_buffer(l, run);
            const auto direct =
                cts::choose_buffer(m, l, ec.quantize(run), 80.0, 80.0, true);
            EXPECT_EQ(cached.has_value(), direct.has_value()) << "l=" << l << " run=" << run;
            if (cached && direct) {
                EXPECT_EQ(*cached, *direct);
            }
        }
    }
}

TEST(EvalCache, ReconfigureFlushesAndRebinds) {
    const auto& m = analytic();
    EvalCache ec(config(m));
    (void)ec.wire_delay(0, 0, 100.0);
    EXPECT_GT(ec.stats().misses, 0u);
    // Same config: entries survive.
    ec.configure(config(m));
    const auto misses = ec.stats().misses;
    (void)ec.wire_delay(0, 0, 100.0);
    EXPECT_EQ(ec.stats().misses, misses);
    // New assumed slew: cache flushed, stats reset, values rebound.
    ec.configure(config(m, 60.0));
    EXPECT_EQ(ec.stats().hits, 0u);
    EXPECT_EQ(ec.stats().misses, 0u);
    EXPECT_DOUBLE_EQ(ec.wire_delay(0, 0, 100.0), m.wire_delay(0, 0, 60.0, 100.0));
}

}  // namespace
}  // namespace ctsim::delaylib
