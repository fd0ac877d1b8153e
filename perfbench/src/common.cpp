// Fixtures, statistics, the result line, the machine record, workload
// inputs and output checks shared by every workload.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench_io/synthetic.h"
#include "perfbench.h"
#include "serve/json.h"

namespace perfbench {

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
    return std::chrono::duration<double>(t1 - t0).count();
}

double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int nproc() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

const tech::Technology& tek() {
    static const tech::Technology t = tech::Technology::ptm45_aggressive();
    return t;
}

const tech::BufferLibrary& buflib() {
    static const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tek());
    return lib;
}

std::unique_ptr<delaylib::FittedLibrary> load_library() {
    return delaylib::FittedLibrary::load_or_characterize(kLibraryCache, tek(), buflib());
}

void on_fresh_thread(const std::function<void()>& fn) {
    std::exception_ptr err;
    std::thread t([&] {
        try {
            fn();
        } catch (...) {
            err = std::current_exception();
        }
    });
    t.join();
    malloc_trim(0);
    if (err) std::rethrow_exception(err);
}

// --- statistics ---------------------------------------------------------

double mean(const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size())));
    return v[i - 1];
}

double peak_rss_mb() {
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- result line ------------------------------------------------------------

void Outcome::check(const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
}

void Outcome::add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string Outcome::json() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i) out += ", ";
        out += serve::json_quote(metrics[i].name) + ": {\"value\": " +
               serve::json_number(metrics[i].value) +
               ", \"unit\": " + serve::json_quote(metrics[i].unit) + "}";
    }
    out += "}}";
    return out;
}

// --- machine record -----------------------------------------------------

namespace {

/// A fixed amount of dependent integer work (~50 ms on one core).
std::uint64_t burn() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

}  // namespace

Machine probe_machine() {
    Machine m;
    m.nproc = nproc();
    std::ifstream cpu("/proc/cpuinfo");
    for (std::string line; std::getline(cpu, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) m.cpu_model = line.substr(colon + 2);
            break;
        }
    }
    if (m.cpu_model.empty()) m.cpu_model = "unknown";

    std::atomic<std::uint64_t> sink{0};
    auto t0 = Clock::now();
    sink += burn();
    const double one = seconds_since(t0);
    t0 = Clock::now();
    std::vector<std::thread> ts;
    for (int i = 0; i < m.nproc; ++i) ts.emplace_back([&] { sink += burn(); });
    for (std::thread& t : ts) t.join();
    const double all = seconds_since(t0);
    m.effective_cores = all > 0.0 ? m.nproc * one / all : 1.0;
    m.burn_ms = 1e3 * one;
    return m;
}

// --- workload inputs ----------------------------------------------------

std::vector<cts::SinkSpec> instance_sinks(const char* name, unsigned seed) {
    bench_io::BenchmarkSpec spec = *bench_io::find_benchmark(name);
    spec.seed = seed;
    return bench_io::generate(spec);
}

std::vector<std::vector<cts::SinkSpec>> instance_set(const char* name, unsigned seed, int count) {
    std::vector<std::vector<cts::SinkSpec>> out;
    for (int k = 0; k < count; ++k)
        out.push_back(instance_sinks(name, seed + 1000003u * static_cast<unsigned>(k)));
    return out;
}

cts::ScenarioSpec monte_carlo_spec(int samples, unsigned seed) {
    cts::ScenarioSpec spec;
    spec.mode = cts::ScenarioMode::monte_carlo;
    spec.samples = samples;
    spec.variation.seed = seed;
    spec.num_threads = 1;
    return spec;
}

// --- output checks --------------------------------------------------------

TreeSummary summarize(const cts::SynthesisResult& r) {
    TreeSummary s;
    s.wirelength_um = r.wire_length_um;
    s.skew_ps = r.root_timing.max_ps - r.root_timing.min_ps;
    s.latency_ps = r.root_timing.max_ps;
    s.buffers = r.buffer_count;
    s.nodes = r.tree.size();
    s.levels = r.levels;
    return s;
}

namespace {

std::string describe(const TreeSummary& s) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "wl=%.17g skew=%.17g lat=%.17g buffers=%d nodes=%d levels=%d",
                  s.wirelength_um, s.skew_ps, s.latency_ps, s.buffers, s.nodes, s.levels);
    return buf;
}

}  // namespace

std::string check_same_tree(const TreeSummary& expect, const TreeSummary& got) {
    if (expect == got) return {};
    return "tree differs: expected " + describe(expect) + ", got " + describe(got);
}

std::string check_simulation(const sim::NetlistSimReport& rep, double slew_limit_ps) {
    if (!rep.complete) return "simulation incomplete: a sink never transitioned";
    if (!(rep.worst_slew_ps <= slew_limit_ps))
        return "simulated worst slew " + std::to_string(rep.worst_slew_ps) +
               " ps exceeds the limit " + std::to_string(slew_limit_ps) + " ps";
    if (!std::isfinite(rep.skew_ps) || rep.skew_ps <= 0.0) return "simulated skew not positive";
    return {};
}

std::string check_same_yield(const cts::ScenarioResult& expect, const cts::ScenarioResult& got) {
    if (expect.yield_curve_skew_ps != got.yield_curve_skew_ps)
        return "Monte-Carlo yield curve did not repeat";
    if (expect.yield_at_target != got.yield_at_target ||
        expect.nominal_skew_ps != got.nominal_skew_ps)
        return "Monte-Carlo nominal record did not repeat";
    if (expect.yield_curve_skew_ps.empty()) return "empty yield curve";
    return {};
}

ServeExpect standalone(const ServeRequest& req, const delaylib::DelayModel& model) {
    cts::SynthesisOptions opt = req.options;
    opt.num_threads = 1;
    ServeExpect out;
    if (req.scenario) {
        cts::ScenarioSpec spec = req.spec;
        spec.num_threads = 1;
        out.scenario = cts::run_scenario(req.sinks, model, opt, spec);
    } else {
        out.tree = summarize(cts::synthesize(req.sinks, model, opt));
    }
    return out;
}

std::string check_serve_response(const std::string& response, const ServeRequest& req,
                                 const ServeExpect& want) {
    serve::Json r;
    try {
        r = serve::Json::parse(response);
    } catch (const std::exception& e) {
        return std::string("unparsable response: ") + e.what();
    }
    const serve::Json* ok = r.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool())
        return "request failed: " + response.substr(0, 300);
    const auto num = [](const serve::Json* obj, const char* key) {
        const serve::Json* v = obj != nullptr ? obj->find(key) : nullptr;
        return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
    };
    if (req.scenario) {
        const serve::Json* sc = r.find("scenario");
        if (sc == nullptr) return "scenario response without a scenario object";
        const cts::ScenarioResult& w = want.scenario;
        const serve::Json* nominal = sc->find("nominal");
        if (num(nominal, "skew_ps") != w.nominal_skew_ps ||
            num(nominal, "wirelength_um") != w.nominal_wirelength_um ||
            num(nominal, "buffers") != w.buffers || num(sc, "yield_at_target") != w.yield_at_target)
            return "scenario response differs from a standalone run_scenario";
        const serve::Json* curve = sc->find("yield_curve_skew_ps");
        if (curve == nullptr || curve->items().size() != w.yield_curve_skew_ps.size())
            return "scenario yield curve length differs";
        for (std::size_t i = 0; i < curve->items().size(); ++i)
            if (curve->items()[i].as_number() != w.yield_curve_skew_ps[i])
                return "scenario yield curve differs from a standalone run_scenario";
        return {};
    }
    const serve::Json* res = r.find("result");
    if (res == nullptr) return "synthesize response without a result object";
    TreeSummary got;
    got.wirelength_um = num(res, "wirelength_um");
    got.skew_ps = num(res, "skew_ps");
    got.latency_ps = num(res, "latency_ps");
    got.buffers = static_cast<int>(num(res, "buffers"));
    got.nodes = static_cast<int>(num(res, "nodes"));
    got.levels = static_cast<int>(num(res, "levels"));
    return check_same_tree(want.tree, got);
}

}  // namespace perfbench
