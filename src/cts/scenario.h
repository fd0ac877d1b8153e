// Declarative synthesis scenarios: variation-aware Monte-Carlo and
// process corners as first-class entry points (docs/scenarios.md).
//
// Everything below rides on two existing contracts:
//
//   * IncrementalTiming purity: every cached value is a pure function
//     of the subtree, the delay model and the input slew.
//     Re-timing a FIXED tree under a perturbed model therefore costs
//     one propagation, not a synthesis -- Monte-Carlo synthesizes the
//     tree ONCE at nominal and prices each sample as one full engine
//     walk with perturbed R/C/drive parameters. Each worker owns one
//     engine and resets it onto every sample's model
//     (IncrementalTiming::reset), so a sample costs the polynomial
//     queries and nothing else.
//   * splitmix64 determinism (util/fault_injection.h idiom): each
//     sample's perturbation scales are pure functions of
//     (seed, sample index, parameter), never of evaluation order, so
//     the yield curve is bit-identical across thread counts and
//     across reruns at a fixed seed.
#ifndef CTSIM_CTS_SCENARIO_H
#define CTSIM_CTS_SCENARIO_H

#include <vector>

#include "cts/synthesizer.h"

namespace ctsim::cts {

enum class ScenarioMode {
    nominal,      ///< one synthesis, no perturbation (the old entry point)
    corners,      ///< all 2^3 sign corners of the variation spec
    monte_carlo,  ///< seed-deterministic sampling of the variation box
};

const char* scenario_mode_name(ScenarioMode m);

/// Relative process-variation box, in percent of nominal. A sample
/// scales each perturbed quantity by 1 + (pct/100) * u with
/// u in [-1, 1] (corners pin u to +/-1). All-zero percentages make
/// every scale EXACTLY 1.0, so a zero-variation Monte-Carlo run
/// reproduces the nominal timing bit-for-bit (pinned by
/// tests/cts_scenario_test.cpp).
struct VariationSpec {
    double wire_r_pct{5.0};        ///< wire resistance (scales wire delay)
    double wire_c_pct{5.0};        ///< wire capacitance (delay + slew)
    double buffer_drive_pct{5.0};  ///< buffer drive strength (cell delay)
    unsigned seed{1};              ///< splitmix64 stream seed
};

struct ScenarioSpec {
    ScenarioMode mode{ScenarioMode::nominal};
    /// Monte-Carlo sample count (corners always runs all 8).
    int samples{64};
    VariationSpec variation;
    /// Yield target [ps]: the reported yield is P(skew <= this).
    double skew_target_ps{10.0};
    /// Worker threads for the sample fan-out (1 = serial, 0 = one per
    /// hardware thread). Results are bit-identical at any width.
    int num_threads{1};
};

/// One perturbed evaluation of the fixed nominal tree.
struct ScenarioSample {
    int index{0};
    double skew_ps{0.0};
    double latency_ps{0.0};  ///< max root-to-sink arrival
    double scale_wire_r{1.0};
    double scale_wire_c{1.0};
    double scale_buffer_drive{1.0};
};

struct ScenarioResult {
    ScenarioMode mode{ScenarioMode::nominal};
    /// The nominal synthesis every mode starts from.
    double nominal_skew_ps{0.0};
    double nominal_latency_ps{0.0};
    double nominal_wirelength_um{0.0};
    int buffers{0};
    int levels{0};
    /// Per-sample metrics in sample-index order (corners /
    /// monte_carlo; empty otherwise).
    std::vector<ScenarioSample> samples;
    /// The empirical skew CDF: sample skews sorted ascending, so
    /// P(skew <= yield_curve_skew_ps[i]) = (i + 1) / N. Nominal mode
    /// contributes its single point.
    std::vector<double> yield_curve_skew_ps;
    /// P(skew <= skew_target_ps) over the curve.
    double yield_at_target{0.0};
    /// Phase profile of the nominal synthesis (the samples' re-timing
    /// is not profiled).
    PhaseProfile profile;
};

/// Validate `spec` (throws util::Error{invalid_input}) and run it.
/// Every mode synthesizes ONCE at nominal with `base`; Monte-Carlo /
/// corners then re-time the fixed tree per sample over a perturbed
/// delay model: the samples split into contiguous ranges, one per
/// worker thread, and each range re-times through one IncrementalTiming
/// reset onto every sample's model. Deterministic: the
/// result is bit-identical across spec.num_threads values and across
/// reruns at a fixed seed.
ScenarioResult run_scenario(const std::vector<SinkSpec>& sinks,
                            const delaylib::DelayModel& model,
                            const SynthesisOptions& base, const ScenarioSpec& spec);

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_SCENARIO_H
