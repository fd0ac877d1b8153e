// Serving throughput harness: drives a ServeSession with a mixed
// multi-tenant request workload at 1, 2 and nproc workers and writes
// BENCH_serve.json so requests/sec and tail latency are tracked from
// PR to PR (check_bench_regression.py gates the committed baseline).
//
// The workload is the daemon's acceptance shape: a burst of
// synthetic instances of mixed size/span/seed, some with quality
// passes toggled off, all fed through handle_line as fast as one
// reader can push them, then drained. Throughput is served requests
// over the push+drain wall-clock; p50/p99 come from the session's own
// latency window (what a `stats` request would report).
//
// Every worker count must produce responses BIT-IDENTICAL to the
// 1-worker run (same skew/wirelength/nodes per request id) -- the
// serving contract says concurrency is invisible to tenants. Exit 1
// on any mismatch, rejection or failed request; the queue is sized to
// the whole burst so admission never rejects here.
//
// Environment:
//   CTSIM_BENCH_QUICK=1  smaller burst (CI smoke under sanitizers)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/json.h"
#include "serve/session.h"

namespace {

using namespace ctsim;

double peak_rss_mb() {
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// One response's tenant-visible result, keyed by request id.
struct ResultKey {
    double skew_ps{0.0};
    double wirelength_um{0.0};
    double nodes{0.0};
    bool operator==(const ResultKey&) const = default;
};

struct WorkerRun {
    int workers{0};
    double wall_s{0.0};
    double requests_per_s{0.0};
    serve::StatsSnapshot stats;
    std::map<int, ResultKey> results;
    bool all_ok{true};
};

std::vector<std::string> build_requests(int count) {
    // Mixed tenant shapes: four size classes, varying spans and seeds,
    // two of every three requests with the refine pass off -- the mix
    // a shared daemon actually sees, not a uniform microbenchmark.
    const int sizes[] = {80, 120, 180, 240};
    const double spans[] = {8000.0, 12000.0, 16000.0, 20000.0};
    std::vector<std::string> reqs;
    reqs.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        std::string r = "{\"id\":" + std::to_string(i) + ",\"synthetic\":{\"sinks\":" +
                        std::to_string(sizes[i % 4]) + ",\"span_um\":" +
                        serve::json_number(spans[(i / 4) % 4]) +
                        ",\"seed\":" + std::to_string(i + 1) + "}";
        if (i % 3 != 0) r += ",\"options\":{\"skew_refine\":false}";
        r += "}";
        reqs.push_back(std::move(r));
    }
    return reqs;
}

WorkerRun run_burst(const std::vector<std::string>& reqs, int workers) {
    serve::ServeSession::Config cfg;
    cfg.workers = workers;
    cfg.queue_capacity = static_cast<int>(reqs.size());
    cfg.model = &bench::fitted();
    serve::ServeSession session(cfg);

    std::mutex mu;
    std::vector<std::string> lines;
    const auto emit = [&](const std::string& l) {
        std::lock_guard<std::mutex> lock(mu);
        lines.push_back(l);
    };

    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string& r : reqs) session.handle_line(r, emit);
    session.drain();
    WorkerRun run;
    run.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    run.workers = session.workers();
    run.stats = session.stats();
    run.requests_per_s = static_cast<double>(run.stats.served_ok) /
                         std::max(run.wall_s, 1e-9);

    for (const std::string& l : lines) {
        const serve::Json r = serve::Json::parse(l);
        if (!r.find("ok")->as_bool()) {
            run.all_ok = false;
            std::fprintf(stderr, "request failed: %s\n", l.c_str());
            continue;
        }
        const serve::Json* res = r.find("result");
        run.results[static_cast<int>(r.find("id")->as_number())] = ResultKey{
            res->find("skew_ps")->as_number(), res->find("wirelength_um")->as_number(),
            res->find("nodes")->as_number()};
    }
    return run;
}

}  // namespace

int main() {
    bench::print_header("serving throughput harness (BENCH_serve.json)");
    const bool quick = std::getenv("CTSIM_BENCH_QUICK") != nullptr;
    const int nproc = static_cast<int>(std::thread::hardware_concurrency());
    const int count = quick ? 16 : 48;
    const std::vector<std::string> reqs = build_requests(count);

    (void)bench::fitted();  // pay characterization/load outside the timers

    std::vector<int> worker_counts{1, 2, std::max(nproc, 1)};
    std::sort(worker_counts.begin(), worker_counts.end());
    worker_counts.erase(std::unique(worker_counts.begin(), worker_counts.end()),
                        worker_counts.end());

    std::vector<WorkerRun> runs;
    bool ok = true;
    for (const int w : worker_counts) {
        runs.push_back(run_burst(reqs, w));
        const WorkerRun& r = runs.back();
        std::printf("workers %2d | %5.2f req/s  wall %6.3fs  p50 %7.1f ms  "
                    "p99 %7.1f ms  served %llu  failed %llu  rejected %llu\n",
                    r.workers, r.requests_per_s, r.wall_s, r.stats.p50_ms,
                    r.stats.p99_ms, static_cast<unsigned long long>(r.stats.served_ok),
                    static_cast<unsigned long long>(r.stats.failed),
                    static_cast<unsigned long long>(r.stats.rejected));
        std::fflush(stdout);
        ok &= r.all_ok && r.stats.failed == 0 && r.stats.rejected == 0;
        if (r.results != runs.front().results) {
            std::fprintf(stderr,
                         "BIT-IDENTITY VIOLATION: %d-worker responses differ from "
                         "the 1-worker run\n",
                         r.workers);
            ok = false;
        }
    }

    const double scaling =
        runs.back().requests_per_s / std::max(runs.front().requests_per_s, 1e-9);

    std::FILE* f = std::fopen("BENCH_serve.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_serve.json\n");
        return 2;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"ctsim_serve\",\n  \"quick\": %s,\n",
                 quick ? "true" : "false");
    std::fprintf(f, "  \"nproc\": %d,\n  \"requests\": %d,\n", nproc, count);
    std::fprintf(f, "  \"workers\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const WorkerRun& r = runs[i];
        std::fprintf(f,
                     "    {\"workers\": %d, \"wall_s\": %.6f, "
                     "\"requests_per_s\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                     "\"mean_ms\": %.3f, \"served_ok\": %llu, \"failed\": %llu, "
                     "\"rejected\": %llu, \"degraded\": %llu}%s\n",
                     r.workers, r.wall_s, r.requests_per_s, r.stats.p50_ms,
                     r.stats.p99_ms, r.stats.mean_ms,
                     static_cast<unsigned long long>(r.stats.served_ok),
                     static_cast<unsigned long long>(r.stats.failed),
                     static_cast<unsigned long long>(r.stats.rejected),
                     static_cast<unsigned long long>(r.stats.degraded),
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"scaling_workers\": %d,\n", runs.back().workers);
    std::fprintf(f, "  \"scaling_nproc_vs_1\": %.3f,\n", scaling);
    std::fprintf(f, "  \"all_identical\": %s,\n", ok ? "true" : "false");
    std::fprintf(f, "  \"peak_rss_mb\": %.1f\n}\n", peak_rss_mb());
    std::fclose(f);

    std::printf("\nwrote BENCH_serve.json\nscaling %d workers vs 1: %.2fx\n",
                runs.back().workers, scaling);
    std::printf("peak RSS: %.1f MB\n", peak_rss_mb());
    return ok ? 0 : 1;
}
