// Section 4.3: complexity. The paper names nearest-neighbor selection
// in topology generation as the bottleneck (O(n^2 lg n) per level),
// with O(l^2) routing per merge. Here pair selection answers each
// nearest-neighbor query from a uniform bucket grid over the level
// (topology.cpp): a constant number of cells per query plus one
// O(n lg n) sort. Its cost per node grows 4-6x from 16 to 3200 nodes
// (cache effects and the sort), against ~170x for the quadratic scan,
// and routing dominates. We time select_pairs per level, then sweep the
// sink count at fixed die span and the die span at fixed sink count and
// report measured scaling exponents.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "cts/topology.h"

namespace {

using namespace ctsim;

double synth_seconds(int sinks, double span, unsigned seed) {
    bench_io::BenchmarkSpec spec;
    spec.name = "scal";
    spec.sink_count = sinks;
    spec.die_span_um = span;
    spec.seed = seed;
    const auto s = bench_io::generate(spec);
    cts::SynthesisOptions opt;
    // Load (or characterize) the library before the clock starts, so
    // the first sweep point times synthesis alone.
    const auto& model = bench::fitted();
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = cts::synthesize(s, model, opt);
    (void)res;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Best-of-5 microseconds of one select_pairs call on `n` random level
/// nodes (die 10 mm). Latencies are equal (a bottom level: sinks) or
/// spread over `latency_spread_ps` (a level of merged subtrees).
double pairing_us(int n, double latency_spread_ps) {
    std::mt19937 gen(static_cast<unsigned>(n));
    std::uniform_real_distribution<double> coord(0.0, 10000.0);
    std::uniform_real_distribution<double> lat(0.0, latency_spread_ps);
    std::vector<cts::LevelNode> level(n);
    for (int i = 0; i < n; ++i) level[i] = {i, {coord(gen), coord(gen)}, lat(gen)};
    const cts::SynthesisOptions opt;
    std::mt19937 rng(opt.rng_seed);
    const int reps = std::max(3, 400000 / n);
    double best = 1e300;
    std::size_t sink = 0;
    for (int round = 0; round < 5; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) sink += cts::select_pairs(level, opt, rng).pairs.size();
        const double us =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                .count() /
            reps;
        best = std::min(best, us);
    }
    if (sink == 0) std::puts("");  // keep the calls observable
    return best;
}

}  // namespace

int main() {
    bench::print_header("Section 4.3 -- runtime scaling");

    std::printf("select_pairs per level (greedy centroid, die 10 mm, best of 5):\n"
                "%10s %14s %14s %16s\n",
                "nodes", "equal lat [us]", "0-50 ps [us]", "ns/node (equal)");
    for (int n : {16, 32, 64, 128, 200, 800, 3200}) {
        const double eq = pairing_us(n, 0.0);
        std::printf("%10d %14.2f %14.2f %16.1f\n", n, eq, pairing_us(n, 50.0),
                    1000.0 * eq / n);
    }
    std::printf("\n");

    std::printf("sink-count sweep (die 40 mm):\n%10s %12s\n", "sinks", "seconds");
    double t_first = 0.0, t_last = 0.0;
    int n_first = 0, n_last = 0;
    for (int n : {100, 200, 400, 800, 1600, 3200}) {
        const double t = synth_seconds(n, 40000.0, 11);
        std::printf("%10d %12.3f\n", n, t);
        if (n_first == 0) {
            n_first = n;
            t_first = t;
        }
        n_last = n;
        t_last = t;
    }
    const double exp_n = std::log(t_last / t_first) /
                         std::log(static_cast<double>(n_last) / n_first);
    std::printf("measured exponent vs n: %.2f (paper bound: O(n^2 lg n) per level "
                "topology + O(n) merges; here pairing is near-linear per level (table "
                "above) and routing grids are bounded)\n\n",
                exp_n);

    std::printf("die-span sweep (400 sinks):\n%12s %12s\n", "span [mm]", "seconds");
    for (double span : {10000.0, 20000.0, 40000.0, 80000.0}) {
        const double t = synth_seconds(400, span, 13);
        std::printf("%12.0f %12.3f\n", span / 1000.0, t);
    }
    std::printf("(span enters through the dynamically-grown routing grids: the paper's "
                "O(l^2) term)\n");
    return 0;
}
