// Synthesis perf harness: times the complexity_scaling /
// table5_1-style instances in the shipped default configuration,
//
//   default  - serial (num_threads = 1)
//   parallel - one thread per hardware thread (num_threads = 0): the
//              pooled merge loop of docs/parallelism.md over the
//              rank-ordered executor, then the serial refine pass
//
// and writes BENCH_synth.json next to the binary so the performance
// trajectory is tracked from change to change. The whole sweep --
// calibration kernel, then every instance in both modes -- runs
// kRounds times and each cell reports its best wall-clock: single
// runs of these sub-second syntheses flap by 20% on a shared machine,
// and spreading a cell's samples over the whole run keeps one burst
// of foreign load from hitting all of them. Each mode also records
// the per-phase split (maze vs balance vs timing) and the
// coarse-to-fine route/fallback counters of its last run, from that
// run's SynthesisResult::profile.
//
// The file's `calibration_s` is the time of a fixed CPU kernel that
// calls nothing in the library (calibration_kernel_seconds below): the
// regression guard (tools/check_bench_regression.py) divides every
// mode's seconds by it, so baselines from different machines compare
// without a yardstick that moves with the code.
//
// Exit status is nonzero when a parallel run diverges from its serial
// twin (they must be identical).
//
// Environment:
//   CTSIM_BENCH_QUICK=1     drop the largest instances (CI smoke mode)
//   CTSIM_BENCH_RSS_ONLY=1  one shipped-default synthesis per (quick)
//                           instance, printing the per-instance peak
//                           RSS and nothing else -- the sanitizer CI
//                           jobs' memory-footprint trend, cheap enough
//                           to run under ASan/TSan's slowdown
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

namespace {

using namespace ctsim;

/// Process-lifetime peak RSS in MB (ru_maxrss is KB on Linux). The
/// counter is a monotone high-water, so each instance's value is the
/// peak as of the end of that instance -- the first row that jumps it
/// is the one that owns the footprint.
double peak_rss_mb() {
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Machine-speed yardstick: a fixed, deterministic CPU loop that
/// calls nothing in the library, so its time moves with the machine
/// and never with the code under test. It mixes the ingredients of
/// the synthesis hot path -- dependent loads over a table larger than
/// the private caches (like the tree arenas and label grids), polynomial
/// float arithmetic and data-dependent branches.
double calibration_kernel_seconds() {
    constexpr std::size_t kTable = std::size_t{1} << 21;  // 16 MB
    constexpr int kSteps = 3'000'000;
    std::vector<std::uint64_t> table(kTable);
    std::uint64_t x = 0;
    for (std::uint64_t& t : table) {  // splitmix64 fill
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        t = z ^ (z >> 31);
    }
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t idx = 0;
    double acc = 0.0;
    for (int i = 0; i < kSteps; ++i) {
        const std::uint64_t v = table[idx];
        idx = (v ^ static_cast<std::uint64_t>(i)) & (kTable - 1);
        const double u = static_cast<double>(v >> 11) * 0x1p-53;
        acc += ((0.3 * u - 1.7) * u + 2.1) * u;
        if (acc > 1e6) acc -= 1e6;
    }
    const double s = seconds_since(t0);
    volatile double sink = acc;
    (void)sink;
    return s;
}

constexpr int kRounds = 7;

struct ModeResult {
    double seconds{std::numeric_limits<double>::infinity()};  ///< best over rounds
    double wirelength_um{0.0};
    int buffers{0};
    double skew_ps{0.0};
    int tree_nodes{0};
    cts::PhaseProfile phases;
};

struct InstanceRow {
    std::string name;
    int sinks{0};
    double span_um{0.0};
    std::vector<cts::SinkSpec> sink_specs;
    ModeResult serial, parallel;
    bool parallel_identical{true};
    double peak_rss_mb{0.0};  ///< process high-water as of this instance's end
};

/// One timed synthesis folded into `r`: best times so far, quality
/// metrics and phase split of this run.
void run_mode(const std::vector<cts::SinkSpec>& sinks, int threads, ModeResult& r) {
    cts::SynthesisOptions o;
    o.num_threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    const cts::SynthesisResult res = cts::synthesize(sinks, bench::fitted(), o);
    r.seconds = std::min(r.seconds, seconds_since(t0));
    r.phases = res.profile;
    r.wirelength_um = res.wire_length_um;
    r.buffers = res.buffer_count;
    r.skew_ps = res.root_timing.max_ps - res.root_timing.min_ps;
    // Live nodes below the root, consistent with the buffer/wirelength
    // metrics.
    r.tree_nodes = static_cast<int>(res.tree.subtree(res.root).size());
}

/// Wall-clock ratio with a floor against timer noise on sub-ms passes.
double speedup(double serial_s, double parallel_s) {
    return serial_s / std::max(parallel_s, 1e-9);
}

InstanceRow make_row(const std::string& name, int nsinks, double span, unsigned seed) {
    bench_io::BenchmarkSpec spec;
    spec.name = name;
    spec.sink_count = nsinks;
    spec.die_span_um = span;
    spec.seed = seed;
    InstanceRow row;
    row.name = name;
    row.sinks = nsinks;
    row.span_um = span;
    row.sink_specs = bench_io::generate(spec);
    return row;
}

void emit_mode(std::FILE* f, const char* key, const ModeResult& m, bool trailing_comma) {
    std::fprintf(f,
                 "      \"%s\": {\"seconds\": %.6f, \"wirelength_um\": %.3f, "
                 "\"buffers\": %d, \"skew_ps\": %.6f, \"tree_nodes\": %d,\n"
                 "        \"phases\": {\"maze_s\": %.6f, \"balance_s\": %.6f, "
                 "\"timing_s\": %.6f, \"refine_s\": %.6f},\n"
                 "        \"maze_calls\": %llu, \"c2f_coarse\": %llu, "
                 "\"c2f_refined\": %llu, \"c2f_fallbacks\": %llu, "
                 "\"dag_tasks\": %llu}%s\n",
                 key, m.seconds, m.wirelength_um, m.buffers, m.skew_ps, m.tree_nodes,
                 m.phases.maze_s, m.phases.balance_s, m.phases.timing_s,
                 m.phases.refine_s,
                 static_cast<unsigned long long>(m.phases.maze_calls),
                 static_cast<unsigned long long>(m.phases.c2f_coarse_routes),
                 static_cast<unsigned long long>(m.phases.c2f_refined),
                 static_cast<unsigned long long>(m.phases.c2f_fallbacks),
                 static_cast<unsigned long long>(m.phases.dag_tasks),
                 trailing_comma ? "," : "");
}

}  // namespace

int main() {
    bench::print_header("synthesis perf harness (BENCH_synth.json)");
    const bool quick = std::getenv("CTSIM_BENCH_QUICK") != nullptr;

    (void)bench::fitted();  // pay characterization/load outside the timers
    {
        // Pay the one-time delay-row prefill (maze_rows.h; built once
        // per process and shared across threads) outside the timers
        // as well: it amortizes across a whole production run, and
        // folding it into the first (smallest) instance would
        // misprice that row.
        bench_io::BenchmarkSpec warm;
        warm.name = "warmup";
        warm.sink_count = 40;
        warm.die_span_um = 10000.0;
        warm.seed = 1;
        const auto sinks = bench_io::generate(warm);
        (void)cts::synthesize(sinks, bench::fitted(), cts::SynthesisOptions{});
    }

    if (std::getenv("CTSIM_BENCH_RSS_ONLY") != nullptr) {
        // Sanitizer CI mode: synthesize each quick instance once in
        // the shipped default configuration and report the process
        // peak-RSS high-water after each -- the first instance that
        // jumps the number owns the footprint.
        const struct {
            const char* name;
            int n;
            double span;
            unsigned seed;
        } specs[] = {
            {"scal_n100", 100, 40000.0, 11},   {"scal_n200", 200, 40000.0, 11},
            {"scal_n400", 400, 40000.0, 11},   {"scal_span20", 400, 20000.0, 13},
            {"gsrc_r267", 267, 69000.0, 42},
        };
        for (const auto& s : specs) {
            bench_io::BenchmarkSpec spec;
            spec.name = s.name;
            spec.sink_count = s.n;
            spec.die_span_um = s.span;
            spec.seed = s.seed;
            const auto sinks = bench_io::generate(spec);
            cts::SynthesisOptions o;
            o.num_threads = 0;
            (void)cts::synthesize(sinks, bench::fitted(), o);
            std::printf("%-14s peak RSS %7.1f MB\n", s.name, peak_rss_mb());
            std::fflush(stdout);
        }
        return 0;
    }

    std::vector<InstanceRow> rows;
    // complexity_scaling sink-count sweep (die 40 mm), seed 11.
    for (int n : {100, 200, 400, 800, 1600, 3200}) {
        if (quick && n > 400) continue;
        rows.push_back(make_row("scal_n" + std::to_string(n), n, 40000.0, 11));
    }
    // complexity_scaling die-span sweep (400 sinks), seed 13: span
    // stresses the routing grids (the paper's O(l^2) term).
    for (double span : {20000.0, 80000.0}) {
        if (quick && span > 20000.0) continue;
        rows.push_back(
            make_row("scal_span" + std::to_string(static_cast<int>(span / 1000.0)), 400, span, 13));
    }
    // table5_1-style GSRC-r-class synthetic instances.
    for (int n : {267, 598}) {
        if (quick && n > 300) continue;
        rows.push_back(make_row("gsrc_r" + std::to_string(n), n, 69000.0, 42));
    }

    double calibration_s = std::numeric_limits<double>::infinity();
    for (int round = 0; round < kRounds; ++round) {
        calibration_s = std::min(calibration_s, calibration_kernel_seconds());
        for (InstanceRow& row : rows) {
            run_mode(row.sink_specs, 1, row.serial);
            run_mode(row.sink_specs, 0, row.parallel);
            if (round == 0) row.peak_rss_mb = peak_rss_mb();
        }
    }
    std::printf("calibration kernel: %.4f s\n", calibration_s);
    for (InstanceRow& row : rows) {
        const ModeResult& a = row.serial;
        const ModeResult& b = row.parallel;
        row.parallel_identical = a.wirelength_um == b.wirelength_um &&
                                 a.buffers == b.buffers && a.skew_ps == b.skew_ps &&
                                 a.tree_nodes == b.tree_nodes;
        std::printf("%-18s %6d sinks %7.0f um | default %7.3fs  parallel %7.3fs  "
                    "skew %6.3f ps  wl %9.0f um  rss %6.1f MB%s\n",
                    row.name.c_str(), row.sinks, row.span_um, a.seconds, b.seconds, a.skew_ps,
                    a.wirelength_um, row.peak_rss_mb,
                    row.parallel_identical ? "" : "  [PARALLEL MISMATCH]");
    }

    // Largest complexity_scaling instance present in this run.
    const InstanceRow* largest = nullptr;
    for (const InstanceRow& r : rows)
        if (r.name.rfind("scal_n", 0) == 0 && (!largest || r.sinks > largest->sinks))
            largest = &r;

    bool all_identical = true;
    for (const InstanceRow& r : rows) all_identical &= r.parallel_identical;

    std::FILE* f = std::fopen("BENCH_synth.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_synth.json\n");
        return 2;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"ctsim_synth\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "  \"calibration_s\": %.6f,\n", calibration_s);
    std::fprintf(f, "  \"instances\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const InstanceRow& r = rows[i];
        std::fprintf(f, "    {\n      \"name\": \"%s\", \"sinks\": %d, \"span_um\": %.0f,\n",
                     r.name.c_str(), r.sinks, r.span_um);
        emit_mode(f, "default", r.serial, true);
        emit_mode(f, "parallel", r.parallel, true);
        std::fprintf(f, "      \"parallel_speedup\": %.3f,\n",
                     speedup(r.serial.seconds, r.parallel.seconds));
        std::fprintf(f, "      \"peak_rss_mb\": %.1f,\n", r.peak_rss_mb);
        std::fprintf(f, "      \"parallel_identical\": %s\n    }%s\n",
                     r.parallel_identical ? "true" : "false",
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    if (largest)
        std::fprintf(f, "  \"largest_complexity_scaling\": \"%s\",\n", largest->name.c_str());
    std::fprintf(f, "  \"peak_rss_mb\": %.1f,\n", peak_rss_mb());
    std::fprintf(f, "  \"all_parallel_identical\": %s\n}\n", all_identical ? "true" : "false");
    std::fclose(f);

    std::printf("\nwrote BENCH_synth.json\npeak RSS: %.1f MB\n", peak_rss_mb());
    if (largest) {
        const ModeResult& s = largest->serial;
        const ModeResult& p = largest->parallel;
        std::printf("largest %s: %.3fs serial, %.3fs x calibration\n", largest->name.c_str(),
                    s.seconds, s.seconds / calibration_s);
        std::printf("maze/balance/timing/refine split: %.3f / %.3f / %.3f / %.3f s\n",
                    s.phases.maze_s, s.phases.balance_s, s.phases.timing_s,
                    s.phases.refine_s);
        std::printf("parallel: %.3fs (%.2fx over %llu DAG tasks)\n", p.seconds,
                    speedup(s.seconds, p.seconds),
                    static_cast<unsigned long long>(p.phases.dag_tasks));
    }
    return all_identical ? 0 : 1;
}
