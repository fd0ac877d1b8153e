// Google-benchmark microbenchmarks of the performance-critical
// primitives: the transient stage solver, delay-library queries, maze
// routing, a full merge, and subtree timing analysis.
#include <benchmark/benchmark.h>

#include <random>

#include "bench/bench_util.h"
#include "circuit/rc_tree.h"
#include "cts/incremental_timing.h"
#include "cts/maze.h"
#include "cts/merge_routing.h"
#include "sim/stage_solver.h"

namespace {

using namespace ctsim;

void bm_stage_transient(benchmark::State& state) {
    const tech::Technology& tk = bench::tek();
    const tech::BufferLibrary& lib = bench::buflib();
    circuit::RcTree t;
    const int end = t.add_wire(0, state.range(0), tk.wire_res_kohm_per_um,
                               tk.wire_cap_ff_per_um,
                               std::max(1, static_cast<int>(state.range(0) / 50)));
    t.add_cap(end, lib.type(0).input_cap_ff(tk));
    const sim::Waveform in = sim::Waveform::ramp(tk.vdd, 80.0, 10.0, 0.5);
    sim::SolverOptions opt;
    opt.dt_ps = 0.5;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::simulate_stage(t, &lib.type(1), in, {}, tk, opt));
    }
}
BENCHMARK(bm_stage_transient)->Arg(500)->Arg(2000)->Arg(4000);

void bm_library_query(benchmark::State& state) {
    const auto& lib = bench::fitted();
    double slew = 20.0, len = 100.0, acc = 0.0;
    for (auto _ : state) {
        acc += lib.wire_slew(1, 0, slew, len) + lib.buffer_delay(1, 0, slew, len);
        slew = slew < 150.0 ? slew + 1.0 : 20.0;
        len = len < 4000.0 ? len + 37.0 : 100.0;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(bm_library_query);

void bm_branch_query(benchmark::State& state) {
    const auto& lib = bench::fitted();
    double x = 100.0, acc = 0.0;
    for (auto _ : state) {
        acc += lib.branch(2, 0, 1, 60.0, x, 2800.0 - x, 0.5 * x).delay_left_ps;
        x = x < 2500.0 ? x + 53.0 : 100.0;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(bm_branch_query);

void bm_maze_route(benchmark::State& state) {
    const auto& model = bench::fitted();
    cts::SynthesisOptions opt;
    cts::RouteEndpoint a, b;
    a.pos = {0, 0};
    b.pos = {static_cast<double>(state.range(0)), 2000.0};
    a.load_type = b.load_type = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cts::maze_route(a, b, model, opt));
    }
}
BENCHMARK(bm_maze_route)->Arg(3000)->Arg(12000)->Arg(40000);

void bm_full_merge(benchmark::State& state) {
    const auto& model = bench::fitted();
    cts::SynthesisOptions opt;
    for (auto _ : state) {
        state.PauseTiming();
        cts::ClockTree t;
        const int a = t.add_sink({0, 0}, 12.0);
        const int b = t.add_sink({8000, 3000}, 20.0);
        cts::IncrementalTiming engine(t, model, cts::synthesis_timing_options(opt));
        state.ResumeTiming();
        benchmark::DoNotOptimize(cts::merge_route(t, a, b, {0, 0}, {0, 0}, model, opt, engine));
    }
}
BENCHMARK(bm_full_merge);

void bm_small_synthesis(benchmark::State& state) {
    const auto& model = bench::fitted();
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> c(0, 10000.0);
    std::vector<cts::SinkSpec> sinks;
    for (int i = 0; i < 32; ++i) sinks.push_back({{c(rng), c(rng)}, 12.0, ""});
    cts::SynthesisOptions opt;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cts::synthesize(sinks, model, opt));
    }
}
BENCHMARK(bm_small_synthesis);

}  // namespace

BENCHMARK_MAIN();
