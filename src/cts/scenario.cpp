#include "cts/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "cts/incremental_timing.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ctsim::cts {

namespace {

/// splitmix64 finalizer -- the same mixer util::FaultInjector uses,
/// so scenario sampling shares the repo's one deterministic-hash
/// idiom.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Uniform in [0, 1) from the top 53 bits.
double uniform01(std::uint64_t h) {
    return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// Sample scale for one (seed, sample, parameter) triple:
/// 1 + (pct/100) * u, u uniform in [-1, 1). pct == 0 yields EXACTLY
/// 1.0 -- the zero-variation bit-identity contract rides on that.
double sample_scale(unsigned seed, int sample, int param, double pct) {
    if (pct == 0.0) return 1.0;
    const std::uint64_t h = mix64(static_cast<std::uint64_t>(seed) ^
                                  mix64(static_cast<std::uint64_t>(sample) + 1) ^
                                  mix64(static_cast<std::uint64_t>(param) + 0x5cULL));
    return 1.0 + (pct / 100.0) * (2.0 * uniform01(h) - 1.0);
}

/// Multiplicative perturbation wrapper over an existing model.
///
/// The mapping from the variation box onto the component queries:
/// wire delay scales with the R*C product (both percentages
/// compound), the wire's slew degradation scales with its
/// capacitance, and a weaker (stronger) buffer drive scales the cell
/// delay up (down). A first-order multiplicative model -- the point
/// is deterministic, monotone-in-the-box re-timing, not SPICE
/// fidelity (docs/scenarios.md spells out the approximation).
///
/// Inherits a fresh process-unique instance_id from DelayModel, so
/// any cache keyed on model identity (EvalCache, delay rows) can
/// never conflate perturbed values with nominal ones.
class PerturbedDelayModel final : public delaylib::DelayModel {
  public:
    PerturbedDelayModel(const delaylib::DelayModel& base, double scale_r, double scale_c,
                        double scale_drive)
        : delaylib::DelayModel(base.technology(), base.buffers()),
          base_(&base),
          wire_(scale_r * scale_c),
          slew_(scale_c),
          drive_(scale_drive) {}

    double buffer_delay(int d, int l, double slew_in, double len) const override {
        return base_->buffer_delay(d, l, slew_in, len) * drive_;
    }
    double wire_delay(int d, int l, double slew_in, double len) const override {
        return base_->wire_delay(d, l, slew_in, len) * wire_;
    }
    double wire_slew(int d, int l, double slew_in, double len) const override {
        return base_->wire_slew(d, l, slew_in, len) * slew_;
    }
    delaylib::BranchTiming branch(int d, int l_left, int l_right, double slew_in,
                                  double stem, double left, double right) const override {
        delaylib::BranchTiming t = base_->branch(d, l_left, l_right, slew_in, stem, left, right);
        t.buffer_delay_ps *= drive_;
        t.delay_left_ps *= wire_;
        t.delay_right_ps *= wire_;
        t.slew_left_ps *= slew_;
        t.slew_right_ps *= slew_;
        return t;
    }

  private:
    const delaylib::DelayModel* base_;
    double wire_;   ///< wire-delay scale (r * c)
    double slew_;   ///< end-slew scale (c)
    double drive_;  ///< cell-delay scale (1/drive strength)
};

[[noreturn]] void bad(const std::string& what) {
    util::throw_status(util::Status::invalid_input("run_scenario: " + what));
}

void validate_spec(const ScenarioSpec& spec) {
    const auto pct_ok = [](double p) { return std::isfinite(p) && p >= 0.0 && p <= 100.0; };
    if (!pct_ok(spec.variation.wire_r_pct) || !pct_ok(spec.variation.wire_c_pct) ||
        !pct_ok(spec.variation.buffer_drive_pct))
        bad("variation percentages must be finite and in [0, 100]");
    if (!std::isfinite(spec.skew_target_ps) || spec.skew_target_ps < 0.0)
        bad("skew_target_ps must be finite and >= 0");
    if (spec.mode == ScenarioMode::monte_carlo &&
        (spec.samples < 1 || spec.samples > 100000))
        bad("samples must be in [1, 100000]");
    if (spec.num_threads < 0) bad("num_threads must be >= 0");
}

/// Re-time the fixed nominal tree under one sample's scales through
/// `eng`, reset onto the sample's perturbed model first. A reset engine
/// walks the whole tree afresh, so the sample is bit-identical to a
/// fresh engine's walk whichever worker runs it and whatever that
/// worker timed before.
ScenarioSample retime_sample(const SynthesisResult& nominal,
                             const delaylib::DelayModel& model, IncrementalTiming& eng,
                             int index, double sr, double sc, double sd) {
    PerturbedDelayModel pm(model, sr, sc, sd);
    eng.reset(pm);
    const RootTiming rt = eng.root_timing(nominal.root);
    ScenarioSample s;
    s.index = index;
    s.skew_ps = rt.max_ps - rt.min_ps;
    s.latency_ps = rt.max_ps;
    s.scale_wire_r = sr;
    s.scale_wire_c = sc;
    s.scale_buffer_drive = sd;
    return s;
}

void finish_yield(ScenarioResult& out, double target_ps) {
    out.yield_curve_skew_ps.reserve(out.samples.size());
    for (const ScenarioSample& s : out.samples)
        out.yield_curve_skew_ps.push_back(s.skew_ps);
    if (out.yield_curve_skew_ps.empty())
        out.yield_curve_skew_ps.push_back(out.nominal_skew_ps);
    std::sort(out.yield_curve_skew_ps.begin(), out.yield_curve_skew_ps.end());
    std::size_t under = 0;
    for (const double s : out.yield_curve_skew_ps)
        if (s <= target_ps) ++under;
    out.yield_at_target =
        static_cast<double>(under) / static_cast<double>(out.yield_curve_skew_ps.size());
}

}  // namespace

const char* scenario_mode_name(ScenarioMode m) {
    switch (m) {
        case ScenarioMode::nominal: return "nominal";
        case ScenarioMode::corners: return "corners";
        case ScenarioMode::monte_carlo: return "monte_carlo";
    }
    return "unknown";
}

ScenarioResult run_scenario(const std::vector<SinkSpec>& sinks,
                            const delaylib::DelayModel& model,
                            const SynthesisOptions& base, const ScenarioSpec& spec) {
    validate_spec(spec);

    ScenarioResult out;
    out.mode = spec.mode;

    // Every mode synthesizes once at nominal.
    const SynthesisResult nominal = synthesize(sinks, model, base);
    out.nominal_skew_ps = nominal.root_timing.max_ps - nominal.root_timing.min_ps;
    out.nominal_latency_ps = nominal.root_timing.max_ps;
    out.nominal_wirelength_um = nominal.wire_length_um;
    out.buffers = nominal.buffer_count;
    out.levels = nominal.levels;
    out.profile = nominal.profile;

    // Re-timing samples through the engine configuration the nominal
    // synthesis timed its root with is what makes the zero-perturbation
    // sample equal the nominal result bit-for-bit.
    const IncrementalTiming::Options topt = synthesis_timing_options(base);
    const VariationSpec& var = spec.variation;

    // Per-sample scale triples, fixed up front so the fan-out writes
    // disjoint slots of a pre-sized vector -- the bit-identical-at-
    // any-width shape every parallel stage in this repo uses.
    struct Triple {
        double r, c, d;
    };
    std::vector<Triple> scales;
    if (spec.mode == ScenarioMode::corners) {
        scales.reserve(8);
        for (int mask = 0; mask < 8; ++mask) {
            const auto pin = [&](int bit, double pct) {
                return 1.0 + ((mask >> bit) & 1 ? pct : -pct) / 100.0;
            };
            scales.push_back({pin(0, var.wire_r_pct), pin(1, var.wire_c_pct),
                              pin(2, var.buffer_drive_pct)});
        }
    } else if (spec.mode == ScenarioMode::monte_carlo) {
        scales.reserve(spec.samples);
        for (int i = 0; i < spec.samples; ++i)
            scales.push_back({sample_scale(var.seed, i, 0, var.wire_r_pct),
                              sample_scale(var.seed, i, 1, var.wire_c_pct),
                              sample_scale(var.seed, i, 2, var.buffer_drive_pct)});
    }

    // One engine per worker: the samples split into contiguous index
    // ranges, one per resolved thread, and each range re-times through
    // a single engine reset onto every sample's model. Each sample is a
    // full walk that writes only its own slot, so the split cannot
    // change a bit.
    const int n = static_cast<int>(scales.size());
    out.samples.resize(n);
    const int nranges =
        std::min(util::ThreadPool::resolve_thread_count(spec.num_threads), n);
    const auto run_range = [&](int r) {
        const int lo = static_cast<int>(static_cast<long long>(n) * r / nranges);
        const int hi = static_cast<int>(static_cast<long long>(n) * (r + 1) / nranges);
        IncrementalTiming eng(nominal.tree, model, topt);
        for (int i = lo; i < hi; ++i)
            out.samples[i] = retime_sample(nominal, model, eng, i, scales[i].r, scales[i].c,
                                           scales[i].d);
    };
    if (nranges > 1) {
        util::ThreadPool pool(nranges);
        pool.parallel_for(nranges, run_range);
    } else if (nranges == 1) {
        run_range(0);
    }

    finish_yield(out, spec.skew_target_ps);
    return out;
}

}  // namespace ctsim::cts
