// The three workloads, their set-up, and the synthesis and yield paths
// every workload runs.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "perfbench.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

/// Tenant nets for the serving pass of the batch and yield workloads:
/// mid-sized block nets of ~10 ms, so 1000 open-loop requests fit in
/// ten seconds at under half of capacity, and 1 in 20 ISPD-shaped nets
/// of 60-100 ms. The p99 then falls among the ISPD-shaped requests,
/// whose service time dwarfs the host's scheduling hiccups; with block
/// nets alone the tail was ~20 ms and moved 50% with them.
ServeMix companion_mix() {
    ServeMix m;
    m.block_min_sinks = 40;
    m.block_max_sinks = 160;
    m.block_min_span_um = 3000.0;
    m.block_max_span_um = 8000.0;
    m.ispd_per_20 = 1;
    return m;
}

void log_stage(const char* stage, Clock::time_point t0, const std::string& detail) {
    std::fprintf(stderr, "perfbench: %s stage %.1f s: %s\n", stage, seconds_since(t0),
                 detail.c_str());
}

}  // namespace

Shape shape_of(const std::string& workload) {
    Shape s;
    s.name = workload;
    if (workload == "batch") {
        s.synth_instance = "r5";
        s.synth_instances = 4;
        s.quality_instance = "r5";
        s.quality_instances = 4;
        s.synth_share = 0.6;
        s.yield_instance = "r1";
        s.yield_samples = 64;
        s.yield_share = 0.1;
        s.mix = companion_mix();
        s.repeats = 1;
    } else if (workload == "yield") {
        s.synth_instance = "r3";
        s.synth_instances = 3;
        s.quality_instance = "r1";
        s.quality_instances = 12;
        s.synth_share = 0.3;
        s.serial_passes = 3;
        s.yield_instance = "r3";
        s.yield_instances = 4;
        s.yield_samples = 512;
        s.yield_share = 0.6;
        s.mix = companion_mix();
        s.repeats = 1;
    } else if (workload == "serve") {
        s.synth_instance = "r3";
        s.synth_instances = 3;
        s.quality_instance = "r1";
        s.quality_instances = 8;
        s.synth_share = 0.3;
        s.serial_passes = 3;
        s.yield_instance = "r1";
        s.yield_samples = 64;
        s.yield_share = 0.1;
        s.mix = ServeMix{};
    } else {
        throw std::invalid_argument("unknown workload \"" + workload + "\"");
    }
    return s;
}

Prepared prepare() {
    Prepared p;
    const Clock::time_point t0 = Clock::now();
    p.model = load_library();
    // The lazy per-process prefill a first synthesis pays.
    std::vector<cts::SinkSpec> tiny(16);
    for (std::size_t i = 0; i < tiny.size(); ++i)
        tiny[i].pos = {250.0 * static_cast<double>(i % 4), 250.0 * static_cast<double>(i / 4)};
    (void)cts::synthesize(tiny, *p.model, cts::SynthesisOptions{});

    serve::ServeSession::Config cfg;
    cfg.workers = std::max(1, nproc() - 1);
    cfg.queue_capacity = kServeQueue;
    cfg.model = p.model.get();
    p.session = std::make_unique<serve::ServeSession>(cfg);
    const ServeRequest warm = serve_requests(companion_mix(), 0, 1).front();
    p.session->handle_line(warm.line(-1), [](const std::string&) {});
    p.session->drain();
    p.setup_s = seconds_since(t0);
    return p;
}

SynthStage run_synth_stage(const std::vector<std::vector<cts::SinkSpec>>& instances,
                           const delaylib::DelayModel& model, double budget_s, int serial_passes,
                           Outcome& outcome, Tracer* tracer) {
    cts::SynthesisOptions serial;
    cts::SynthesisOptions par;
    par.num_threads = nproc();
    const std::size_t count = instances.size();

    std::vector<std::optional<cts::SynthesisResult>> first(count);
    std::vector<std::vector<double>> serial_cpu_s(count);
    std::vector<std::vector<double>> serial_wall_s(count);
    std::vector<std::vector<double>> par_s(count);
    const auto timed = [&](std::size_t k, const cts::SynthesisOptions& opt, const char* span) {
        cts::SynthesisResult r;
        double wall = 0.0;
        double cpu = 0.0;
        on_fresh_thread([&] {
            MaybeScope scope(tracer, span);
            const double c0 = thread_cpu_seconds();
            const Clock::time_point t0 = Clock::now();
            r = cts::synthesize(instances[k], model, opt);
            wall = seconds_since(t0);
            cpu = thread_cpu_seconds() - c0;
        });
        return std::make_tuple(std::move(r), wall, cpu);
    };

    // Each pass runs every instance at nproc threads, and for the first
    // `serial_passes` passes serially too: serial CPU time varies little,
    // parallel wall time a lot. At least kParRuns passes, more while the
    // next pass is expected to fit the budget.
    constexpr int kParRuns = 3;
    const Clock::time_point start = Clock::now();
    double pass_s = 0.0;
    int passes = 0;
    for (; passes < kParRuns || seconds_since(start) + pass_s <= budget_s; ++passes) {
        const Clock::time_point pass_start = Clock::now();
        for (std::size_t k = 0; k < count; ++k) {
            if (passes < serial_passes) {
                auto [rs, wall, cpu] = timed(k, serial, "cts.synthesize.serial");
                serial_wall_s[k].push_back(wall);
                serial_cpu_s[k].push_back(cpu);
                if (!first[k]) {
                    first[k] = std::move(rs);
                    outcome.check({});
                } else {
                    outcome.check(check_same_tree(summarize(*first[k]), summarize(rs)));
                }
            }
            auto [rp, wall, cpu] = timed(k, par, "cts.synthesize.parallel");
            (void)cpu;
            par_s[k].push_back(wall);
            outcome.check(check_same_tree(summarize(*first[k]), summarize(rp)));
        }
        pass_s = seconds_since(pass_start);
    }

    // A parallel run is as fast as its slowest thread, so one stolen
    // vCPU slows the whole run; neighbours' cache traffic slows serial
    // CPU time too. The fastest run of each instance is the one least
    // disturbed by other tenants.
    const auto fastest = [](const std::vector<std::vector<double>>& runs) {
        std::vector<double> best;
        for (const std::vector<double>& v : runs)
            best.push_back(*std::min_element(v.begin(), v.end()));
        return mean(best);
    };
    SynthStage out;
    out.serial_s = fastest(serial_cpu_s);
    out.par_s = fastest(par_s);
    char detail[160];
    std::snprintf(detail, sizeof detail,
                  "%zu instances, %d passes, serial cpu %.4f s wall %.4f s, parallel %.4f s",
                  count, passes, out.serial_s, fastest(serial_wall_s), out.par_s);
    log_stage("synthesis", start, detail);

    for (std::size_t k = 0; k < count; ++k) out.trees.push_back(summarize(*first[k]));
    return out;
}

QualityStage run_quality_stage(const std::vector<std::vector<cts::SinkSpec>>& instances,
                               const delaylib::DelayModel& model, Outcome& outcome,
                               Tracer* tracer) {
    // One serial tree per instance, then a transient simulation at the
    // table5_1 solver step. Each instance gets a thread of its own, so
    // the memory in use at once follows the instance count, not nproc.
    const Clock::time_point start = Clock::now();
    const std::size_t count = instances.size();
    const cts::SynthesisOptions opt;
    std::vector<TreeSummary> trees(count);
    std::vector<sim::NetlistSimReport> reports(count);
    {
        util::ThreadPool pool(static_cast<int>(count));
        pool.parallel_for(static_cast<int>(count), [&](int k) {
            const cts::SynthesisResult r = cts::synthesize(instances[k], model, opt);
            trees[k] = summarize(r);
            std::optional<circuit::Netlist> net;
            {
                MaybeScope scope(tracer, "circuit.netlist");
                net.emplace(r.netlist(tek(), buflib()));
            }
            sim::NetlistSimOptions so;
            so.solver.dt_ps = 1.0;
            MaybeScope scope(tracer, "sim.simulate");
            reports[k] = sim::simulate_netlist(*net, tek(), buflib(), so);
        });
    }
    log_stage("simulation", start, std::to_string(count) + " trees");

    QualityStage out;
    const double n = static_cast<double>(count);
    for (std::size_t k = 0; k < count; ++k) {
        outcome.check(check_simulation(reports[k], opt.slew_limit_ps));
        out.sim_skew_ps += reports[k].skew_ps / n;
        out.model_skew_ps += trees[k].skew_ps / n;
        out.wirelength_um += trees[k].wirelength_um / n;
        out.buffers += trees[k].buffers / n;
    }
    return out;
}

double run_yield_stage(const std::vector<std::vector<cts::SinkSpec>>& instances,
                       const cts::ScenarioSpec& spec, const delaylib::DelayModel& model,
                       double budget_s, Outcome& outcome, cts::ScenarioResult* first_out) {
    const std::size_t count = instances.size();
    std::vector<std::optional<cts::ScenarioResult>> first(count);
    std::vector<std::vector<double>> cpu_s(count);
    std::vector<double> wall_s;
    const Clock::time_point start = Clock::now();
    double pass_s = 0.0;
    int passes = 0;
    for (; passes < 2 || seconds_since(start) + pass_s <= budget_s; ++passes) {
        const Clock::time_point pass_start = Clock::now();
        for (std::size_t k = 0; k < count; ++k) {
            cts::ScenarioResult r;
            on_fresh_thread([&] {
                const double c0 = thread_cpu_seconds();
                const Clock::time_point t0 = Clock::now();
                r = cts::run_scenario(instances[k], model, cts::SynthesisOptions{}, spec);
                wall_s.push_back(seconds_since(t0));
                cpu_s[k].push_back(thread_cpu_seconds() - c0);
            });
            if (!first[k]) {
                outcome.check(r.yield_curve_skew_ps.size() == static_cast<std::size_t>(spec.samples)
                                  ? std::string()
                                  : std::string("yield curve has the wrong sample count"));
                first[k] = std::move(r);
            } else {
                outcome.check(check_same_yield(*first[k], r));
            }
        }
        pass_s = seconds_since(pass_start);
    }
    std::vector<double> best;
    for (const std::vector<double>& v : cpu_s)
        best.push_back(*std::min_element(v.begin(), v.end()));
    char detail[120];
    std::snprintf(detail, sizeof detail, "%zu instances, %d passes, cpu %.4f s wall %.4f s",
                  count, passes, mean(best), median(wall_s));
    log_stage("yield", start, detail);
    if (first_out != nullptr) *first_out = *first.front();
    return mean(best);
}

Outcome run_workload(const RunArgs& a, Prepared& p) {
    Outcome o;
    const Shape& s = a.shape;
    // Synthesis and the yield jobs run between the parts of the serving
    // pass, so its parts sample the host across the whole run.
    SynthStage syn;
    QualityStage q;
    double yield_s = 0.0;
    const auto between = [&](int part) {
        if (part == 0) {
            syn = run_synth_stage(instance_set(s.synth_instance, a.seed, s.synth_instances),
                                  *p.model, s.synth_share * a.seconds, s.serial_passes, o, nullptr);
            q = run_quality_stage(instance_set(s.quality_instance, a.seed, s.quality_instances),
                                  *p.model, o, nullptr);
        } else {
            yield_s = run_yield_stage(instance_set(s.yield_instance, a.seed, s.yield_instances),
                                      monte_carlo_spec(s.yield_samples, a.seed), *p.model,
                                      s.yield_share * a.seconds, o);
        }
    };
    const Clock::time_point serve_start = Clock::now();
    const ServeStage sv = run_serve_stage(*p.session, s, a.seed, a.serve_rate, o, nullptr, between);
    char detail[200];
    std::snprintf(detail, sizeof detail,
                  "%d open-loop at %.0f/s (late %.1f ms) + %dx%d burst, p50 %.2f p99 %.2f ms, "
                  "%.1f/s, peak rss %.1f MB (%.1f MB after the checks)",
                  s.open_requests, a.serve_rate, sv.max_late_ms, kServeBursts, kServeQueue,
                  sv.p50_ms, sv.p99_ms, sv.rps, sv.peak_rss_mb, peak_rss_mb());
    log_stage("workload", serve_start, detail);

    o.add("synth_s", syn.serial_s, "s");
    o.add("synth_par_s", syn.par_s, "s");
    o.add("yield_s", yield_s, "s");
    o.add("serve_p50_ms", sv.p50_ms, "ms");
    o.add("serve_p99_ms", sv.p99_ms, "ms");
    o.add("serve_rps", sv.rps, "1/s");
    o.add("peak_rss_mb", sv.peak_rss_mb, "MB");
    o.add("sim_skew_ps", q.sim_skew_ps, "ps");
    o.add("wirelength_mm", q.wirelength_um / 1000.0, "mm");
    o.add("buffers", q.buffers, "count");
    return o;
}

std::string check_metric_names(const Outcome& o, const std::vector<std::string>& names) {
    std::vector<std::string> got;
    for (const Metric& m : o.metrics) got.push_back(m.name);
    if (got == names) return {};
    std::string out = "printed metrics differ from the declared list:";
    for (const std::string& n : got) out += " " + n;
    return out;
}

std::vector<std::string> end_to_end_metric_names() {
    return {"setup_s",      "synth_s",     "synth_par_s", "yield_s",
            "serve_p50_ms", "serve_p99_ms", "serve_rps",   "peak_rss_mb",
            "sim_skew_ps",  "wirelength_mm", "buffers"};
}

}  // namespace perfbench
