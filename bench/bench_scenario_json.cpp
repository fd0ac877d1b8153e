// Scenario-analysis harness: drives cts::run_scenario over the
// largest complexity_scaling instance and writes BENCH_scenario.json
// so sampling throughput and skew yield are tracked from change to
// change (check_bench_regression.py gates the committed baseline).
//
// Two measurements:
//   1. nominal_wall_s -- the median of five plain syntheses of
//      scal_n800 (the denominator of the MC cost contract; one ~0.1 s
//      run flaps too much for the trend gate).
//   2. Monte Carlo, 64 samples: the whole point of synthesizing once
//      and re-timing the fixed tree per sample is that statistical
//      coverage must cost far less than 64 syntheses. The acceptance
//      gate is mc_cost_ratio = mc_wall_s / nominal_wall_s < 3 --
//      synthesis + 64 perturbed re-timings in under 3 nominal runs.
//
// The MC run repeats at 1, 2 and nproc fan-out threads; every run
// must produce a yield curve BIT-IDENTICAL to the 1-thread run (the
// determinism contract of docs/scenarios.md). Exit 1 on any mismatch
// or on a cost-ratio violation.
//
// Environment:
//   CTSIM_BENCH_QUICK=1  smaller instance + fewer samples (CI smoke)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cts/scenario.h"

namespace {

using namespace ctsim;

double peak_rss_mb() {
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<cts::SinkSpec> make_instance(const char* name, int n, unsigned seed) {
    bench_io::BenchmarkSpec spec;
    spec.name = name;
    spec.sink_count = n;
    spec.die_span_um = 40000.0;
    spec.seed = seed;
    return bench_io::generate(spec);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
    bench::print_header("scenario analysis harness (BENCH_scenario.json)");
    const bool quick = std::getenv("CTSIM_BENCH_QUICK") != nullptr;
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());

    const int mc_sinks = quick ? 200 : 800;
    const int mc_samples = quick ? 16 : 64;
    const char* instance = quick ? "scal_n200" : "scal_n800";

    const std::vector<cts::SinkSpec> sinks = make_instance(instance, mc_sinks, 11);
    cts::SynthesisOptions opt;  // shipped defaults

    (void)bench::fitted();  // pay characterization/load outside the timers

    // 1. Nominal synthesis: the cost unit everything is measured in.
    constexpr int kNominalRuns = 5;
    std::vector<double> nominal_walls;
    for (int i = 0; i < kNominalRuns; ++i) {
        const auto t_nom = std::chrono::steady_clock::now();
        const cts::SynthesisResult nominal = cts::synthesize(sinks, bench::fitted(), opt);
        nominal_walls.push_back(seconds_since(t_nom));
        std::printf("nominal   | %-9s  wall %6.3fs  skew %6.3f ps  wire %8.2f mm\n", instance,
                    nominal_walls.back(), nominal.root_timing.max_ps - nominal.root_timing.min_ps,
                    nominal.wire_length_um / 1000.0);
        std::fflush(stdout);
    }
    std::nth_element(nominal_walls.begin(), nominal_walls.begin() + kNominalRuns / 2,
                     nominal_walls.end());
    const double nominal_wall_s = nominal_walls[kNominalRuns / 2];

    // 2. Monte Carlo at 1 / 2 / nproc fan-out threads. The 1-thread
    // run is the timing + identity reference.
    cts::ScenarioSpec mc;
    mc.mode = cts::ScenarioMode::monte_carlo;
    mc.samples = mc_samples;
    std::vector<int> thread_counts{1, 2, std::max(nproc, 1)};
    std::sort(thread_counts.begin(), thread_counts.end());
    thread_counts.erase(std::unique(thread_counts.begin(), thread_counts.end()),
                        thread_counts.end());

    bool ok = true;
    double mc_wall_s = 0.0;
    cts::ScenarioResult reference;
    for (const int t : thread_counts) {
        mc.num_threads = t;
        const auto t0 = std::chrono::steady_clock::now();
        cts::ScenarioResult r = cts::run_scenario(sinks, bench::fitted(), opt, mc);
        const double wall = seconds_since(t0);
        std::printf("mc %2d thr | %3d samples  wall %6.3fs  %6.1f samples/s  "
                    "yield(<=%.0fps) %.4f\n",
                    t, mc_samples, wall, static_cast<double>(mc_samples) / wall,
                    mc.skew_target_ps, r.yield_at_target);
        std::fflush(stdout);
        if (t == 1) {
            mc_wall_s = wall;
            reference = r;
        } else if (r.yield_curve_skew_ps != reference.yield_curve_skew_ps) {
            std::fprintf(stderr,
                         "BIT-IDENTITY VIOLATION: %d-thread yield curve differs from "
                         "the 1-thread run\n",
                         t);
            ok = false;
        }
    }
    const double mc_cost_ratio = mc_wall_s / std::max(nominal_wall_s, 1e-9);
    const double samples_per_s = static_cast<double>(mc_samples) / std::max(mc_wall_s, 1e-9);
    if (mc_cost_ratio >= 3.0) {
        std::fprintf(stderr,
                     "MC COST VIOLATION: %d samples cost %.2fx one synthesis "
                     "(contract: < 3x)\n",
                     mc_samples, mc_cost_ratio);
        ok = false;
    }

    std::FILE* f = std::fopen("BENCH_scenario.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_scenario.json\n");
        return 2;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"ctsim_scenario\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"nproc\": %d,\n  \"instance\": \"%s\",\n  \"sinks\": %d,\n", nproc,
                 instance, mc_sinks);
    std::fprintf(f, "  \"samples\": %d,\n", mc_samples);
    std::fprintf(f, "  \"nominal_wall_s\": %.6f,\n", nominal_wall_s);
    std::fprintf(f, "  \"mc_wall_s\": %.6f,\n", mc_wall_s);
    std::fprintf(f, "  \"mc_cost_ratio\": %.4f,\n", mc_cost_ratio);
    std::fprintf(f, "  \"samples_per_s\": %.3f,\n", samples_per_s);
    std::fprintf(f, "  \"skew_target_ps\": %.3f,\n", mc.skew_target_ps);
    std::fprintf(f, "  \"yield_at_target\": %.6f,\n", reference.yield_at_target);
    std::fprintf(f, "  \"nominal_skew_ps\": %.6f,\n", reference.nominal_skew_ps);
    std::fprintf(f, "  \"threads_identical\": %s,\n", ok ? "true" : "false");
    std::fprintf(f, "  \"peak_rss_mb\": %.1f\n}\n", peak_rss_mb());
    std::fclose(f);

    std::printf("\nwrote BENCH_scenario.json\nmc cost ratio: %.2fx one synthesis "
                "(%.1f samples/s)\n",
                mc_cost_ratio, samples_per_s);
    std::printf("peak RSS: %.1f MB\n", peak_rss_mb());
    return ok ? 0 : 1;
}
