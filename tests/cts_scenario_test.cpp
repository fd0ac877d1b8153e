// Scenario API contracts (docs/scenarios.md): seed-deterministic
// yield curves, zero-variation Monte-Carlo reproducing nominal
// bit-for-bit, thread-count invariance of the sample fan-out, and the
// serve-side whitelist for the scenario request object.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cts/scenario.h"
#include "cts_test_util.h"
#include "serve/request.h"
#include "util/status.h"

namespace ctsim {
namespace {

std::vector<cts::SinkSpec> sinks_small() {
    return testutil::random_sinks(60, 4000.0, 7);
}

cts::ScenarioSpec mc_spec(int samples = 16, unsigned seed = 1) {
    cts::ScenarioSpec spec;
    spec.mode = cts::ScenarioMode::monte_carlo;
    spec.samples = samples;
    spec.variation.seed = seed;
    return spec;
}

TEST(ScenarioTest, NominalModeReportsSynthesisMetrics) {
    const auto sinks = sinks_small();
    cts::ScenarioSpec spec;  // nominal
    const cts::ScenarioResult r =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, spec);

    cts::SynthesisOptions opt;
    opt.num_threads = 1;
    const cts::SynthesisResult want =
        cts::synthesize(sinks, testutil::fitted_quick(), opt);
    EXPECT_EQ(r.nominal_skew_ps, want.root_timing.max_ps - want.root_timing.min_ps);
    EXPECT_EQ(r.nominal_latency_ps, want.root_timing.max_ps);
    EXPECT_EQ(r.nominal_wirelength_um, want.wire_length_um);
    EXPECT_EQ(r.buffers, want.buffer_count);
    EXPECT_EQ(r.levels, want.levels);
    // Nominal contributes its single point to the yield curve.
    ASSERT_EQ(r.yield_curve_skew_ps.size(), 1u);
    EXPECT_EQ(r.yield_curve_skew_ps[0], r.nominal_skew_ps);
    EXPECT_TRUE(r.samples.empty());
}

TEST(ScenarioTest, YieldCurveDeterministicPerSeedAndRerun) {
    const auto sinks = sinks_small();
    const cts::ScenarioResult a =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, mc_spec(16, 3));
    const cts::ScenarioResult b =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, mc_spec(16, 3));

    // Rerun at the same seed: bit-identical curve and samples.
    ASSERT_EQ(a.yield_curve_skew_ps.size(), 16u);
    EXPECT_EQ(a.yield_curve_skew_ps, b.yield_curve_skew_ps);
    EXPECT_EQ(a.yield_at_target, b.yield_at_target);
    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].skew_ps, b.samples[i].skew_ps) << i;
        EXPECT_EQ(a.samples[i].latency_ps, b.samples[i].latency_ps) << i;
        EXPECT_EQ(a.samples[i].scale_wire_r, b.samples[i].scale_wire_r) << i;
    }

    // The curve is a sorted CDF support.
    EXPECT_TRUE(std::is_sorted(a.yield_curve_skew_ps.begin(),
                               a.yield_curve_skew_ps.end()));

    // A different seed draws different perturbations.
    const cts::ScenarioResult c =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, mc_spec(16, 4));
    EXPECT_NE(a.yield_curve_skew_ps, c.yield_curve_skew_ps);
}

TEST(ScenarioTest, ZeroVariationMonteCarloEqualsNominalExactly) {
    const auto sinks = sinks_small();
    cts::ScenarioSpec spec = mc_spec(8);
    spec.variation.wire_r_pct = 0.0;
    spec.variation.wire_c_pct = 0.0;
    spec.variation.buffer_drive_pct = 0.0;
    const cts::ScenarioResult r =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, spec);
    ASSERT_EQ(r.samples.size(), 8u);
    for (const cts::ScenarioSample& s : r.samples) {
        EXPECT_EQ(s.scale_wire_r, 1.0) << s.index;
        EXPECT_EQ(s.scale_wire_c, 1.0) << s.index;
        EXPECT_EQ(s.scale_buffer_drive, 1.0) << s.index;
        // EXACT equality: the perturbed model with unit scales must be
        // indistinguishable from the nominal one (docs/scenarios.md).
        EXPECT_EQ(s.skew_ps, r.nominal_skew_ps) << s.index;
        EXPECT_EQ(s.latency_ps, r.nominal_latency_ps) << s.index;
    }
}

TEST(ScenarioTest, SampleFanOutThreadCountInvariant) {
    const auto sinks = sinks_small();
    cts::ScenarioSpec spec = mc_spec(12, 9);
    spec.num_threads = 1;
    const cts::ScenarioResult serial =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, spec);
    for (const int t : {2, 0}) {
        spec.num_threads = t;
        const cts::ScenarioResult par =
            cts::run_scenario(sinks, testutil::fitted_quick(), {}, spec);
        EXPECT_EQ(serial.yield_curve_skew_ps, par.yield_curve_skew_ps) << t;
        EXPECT_EQ(serial.yield_at_target, par.yield_at_target) << t;
        ASSERT_EQ(serial.samples.size(), par.samples.size()) << t;
        for (std::size_t i = 0; i < serial.samples.size(); ++i) {
            EXPECT_EQ(serial.samples[i].skew_ps, par.samples[i].skew_ps) << t << " " << i;
            EXPECT_EQ(serial.samples[i].latency_ps, par.samples[i].latency_ps)
                << t << " " << i;
        }
    }
}

TEST(ScenarioTest, CornersRunsAllEightSignCombinations) {
    const auto sinks = sinks_small();
    cts::ScenarioSpec spec;
    spec.mode = cts::ScenarioMode::corners;
    spec.variation.wire_r_pct = 10.0;
    spec.variation.wire_c_pct = 10.0;
    spec.variation.buffer_drive_pct = 10.0;
    const cts::ScenarioResult r =
        cts::run_scenario(sinks, testutil::fitted_quick(), {}, spec);
    ASSERT_EQ(r.samples.size(), 8u);
    for (const cts::ScenarioSample& s : r.samples) {
        EXPECT_TRUE(s.scale_wire_r == 0.9 || s.scale_wire_r == 1.1) << s.index;
        EXPECT_TRUE(s.scale_wire_c == 0.9 || s.scale_wire_c == 1.1) << s.index;
        EXPECT_TRUE(s.scale_buffer_drive == 0.9 || s.scale_buffer_drive == 1.1)
            << s.index;
    }
    // All 8 corners are distinct.
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = i + 1; j < 8; ++j)
            EXPECT_FALSE(r.samples[i].scale_wire_r == r.samples[j].scale_wire_r &&
                         r.samples[i].scale_wire_c == r.samples[j].scale_wire_c &&
                         r.samples[i].scale_buffer_drive ==
                             r.samples[j].scale_buffer_drive)
                << i << " vs " << j;
}

TEST(ScenarioTest, InvalidSpecsAreRejected) {
    const auto sinks = sinks_small();
    const auto expect_invalid = [&](const cts::ScenarioSpec& spec) {
        try {
            cts::run_scenario(sinks, testutil::fitted_quick(), {}, spec);
            FAIL() << "expected invalid_input";
        } catch (const util::Error& e) {
            EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input);
        }
    };
    cts::ScenarioSpec spec = mc_spec();
    spec.samples = 0;
    expect_invalid(spec);
    spec = mc_spec();
    spec.variation.wire_r_pct = -1.0;
    expect_invalid(spec);
    spec = mc_spec();
    spec.variation.wire_c_pct = 101.0;
    expect_invalid(spec);
    spec = mc_spec();
    spec.skew_target_ps = -1.0;
    expect_invalid(spec);
}

// The serve-side whitelist is the scenario API's wire guard: unknown
// keys inside the "scenario" object must be rejected as typed
// invalid_input before any work is admitted.
TEST(ScenarioTest, ServeWhitelistRejectsUnknownScenarioFields) {
    const auto expect_invalid = [](const std::string& line) {
        try {
            serve::parse_request(line);
            FAIL() << "expected invalid_input for: " << line;
        } catch (const util::Error& e) {
            EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input) << line;
        }
    };
    const std::string head =
        "{\"type\":\"scenario\",\"schema_version\":2,"
        "\"synthetic\":{\"sinks\":40},\"scenario\":";
    expect_invalid(head + "{\"mode\":\"monte_carlo\",\"bogus\":1}}");
    expect_invalid(head + "{\"mode\":\"monte_carlo\",\"num_threads\":4}}");
    expect_invalid(head + "{\"mode\":\"warp_speed\"}}");
    expect_invalid(head + "{\"samples\":8}}");  // missing mode

    // The happy path parses and carries the spec through.
    const serve::Request req = serve::parse_request(
        head + "{\"mode\":\"monte_carlo\",\"samples\":8,\"seed\":5,"
               "\"wire_r_pct\":2.5,\"skew_target_ps\":12}}");
    EXPECT_EQ(req.type, serve::RequestType::scenario);
    EXPECT_EQ(req.scenario.mode, cts::ScenarioMode::monte_carlo);
    EXPECT_EQ(req.scenario.samples, 8);
    EXPECT_EQ(req.scenario.variation.seed, 5u);
    EXPECT_EQ(req.scenario.variation.wire_r_pct, 2.5);
    EXPECT_EQ(req.scenario.skew_target_ps, 12.0);
}

}  // namespace
}  // namespace ctsim
