// The traced run: per-layer numbers from spans the benchmark records
// around calls into each module's public functions (nothing inside the
// library is instrumented). It replays the workload's synthesis as
// merge -> fresh timing engine -> refine -> reclaim -> netlist ->
// simulation, probes the router and the DAG executor directly, and
// runs the yield and serving paths with spans.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <thread>

#include "bench_io/synthetic.h"
#include "cts/incremental_timing.h"
#include "cts/maze.h"
#include "cts/skew_refine.h"
#include "cts/topology.h"
#include "perfbench.h"
#include "serve/json.h"
#include "serve/request.h"
#include "util/dag_executor.h"
#include "util/memory_budget.h"
#include "util/thread_pool.h"
// Wire reclamation may be deleted from the library; the benchmark then
// still builds and reports that layer as absent (-1).
#if __has_include("cts/wire_reclaim.h")
#include "cts/wire_reclaim.h"
#endif

namespace perfbench {

namespace {

constexpr double kAbsent = -1.0;

template <class Options>
void reclaim_off(Options& opt) {
    if constexpr (requires { opt.wire_reclaim; }) opt.wire_reclaim = false;
}

struct ReclaimStep {
    bool present{false};
    int accepted{0};
    int rolled_back{0};
    double reclaimed_um{0.0};
};

template <class Tree, class Engine>
ReclaimStep reclaim_step(Tree& tree, int root, const delaylib::DelayModel& model,
                         const cts::SynthesisOptions& opt, Engine& engine) {
    ReclaimStep out;
    if constexpr (requires { reclaim_wire(tree, root, model, opt, engine); }) {
        const auto st = reclaim_wire(tree, root, model, opt, engine);
        out.present = true;
        out.accepted = st.batches_accepted;
        out.rolled_back = st.batches_rolled_back;
        out.reclaimed_um = st.reclaimed_um;
    }
    return out;
}

double median_self(const Tracer& t, const std::string& span) {
    return median(t.self_times(span));
}

struct Replay {
    TreeSummary tree;
    int c2f_fallbacks{0};
    int degraded_routes{0};
    std::uint64_t components{0};
    int refine_moves{0};
    ReclaimStep reclaim;
};

/// synthesize() split at its public seams: merge-only synthesis, a
/// fresh timing engine, refine_skew, then reclaim_wire on that engine.
Replay replay(Tracer& tr, const std::vector<cts::SinkSpec>& sinks,
              const delaylib::DelayModel& model) {
    const cts::SynthesisOptions opt;
    Tracer::Scope whole(tr, "cts.replay");
    {
        std::vector<cts::LevelNode> level(sinks.size());
        for (std::size_t i = 0; i < sinks.size(); ++i)
            level[i] = {static_cast<int>(i), sinks[i].pos, 0.0};
        std::mt19937 rng(opt.rng_seed);
        Tracer::Scope s(tr, "cts.topology.select_pairs");
        (void)cts::select_pairs(level, opt, rng);
    }
    cts::SynthesisOptions merge_only = opt;
    merge_only.skew_refine = false;
    reclaim_off(merge_only);
    std::optional<cts::SynthesisResult> r;
    {
        Tracer::Scope s(tr, "cts.merge_routing");
        r.emplace(cts::synthesize(sinks, model, merge_only));
    }
    Replay out;
    out.c2f_fallbacks = r->diagnostics.c2f_fallbacks;
    out.degraded_routes = r->diagnostics.degraded_routes;

    cts::IncrementalTiming engine(r->tree, model, cts::synthesis_timing_options(opt));
    {
        Tracer::Scope s(tr, "cts.incremental_timing.walk");
        (void)engine.root_timing(r->root);
    }
    out.components = engine.evaluated_components();
    {
        Tracer::Scope s(tr, "cts.skew_refine");
        const cts::SkewRefineStats st = cts::refine_skew(r->tree, r->root, model, opt, engine);
        out.refine_moves = st.trims + st.buffer_swaps + st.snake_stages;
    }
    {
        Tracer::Scope s(tr, "cts.wire_reclaim");
        out.reclaim = reclaim_step(r->tree, r->root, model, opt, engine);
    }
    const cts::RootTiming rt = engine.root_timing(r->root);
    out.tree.wirelength_um = r->tree.wire_length_below(r->root);
    out.tree.skew_ps = rt.max_ps - rt.min_ps;
    out.tree.latency_ps = rt.max_ps;
    out.tree.buffers = r->tree.buffer_count_below(r->root);
    out.tree.nodes = r->tree.size();
    out.tree.levels = r->levels;
    return out;
}

/// maze_route between seeded endpoints `frac` of the die span apart
/// (Manhattan), split randomly between x and y.
void maze_probes(Tracer& tr, const delaylib::DelayModel& model, double die_um, double frac,
                 const std::string& span, unsigned seed, Outcome& o) {
    const cts::SynthesisOptions opt;
    std::mt19937_64 rng(seed * 7919ULL + static_cast<std::uint64_t>(frac * 1024.0));
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    std::uniform_real_distribution<double> cap(8.0, 35.0);
    const double d = frac * die_um;
    for (int k = 0; k < 17; ++k) {
        const double dx = d * u01(rng);
        const double dy = d - dx;
        cts::RouteEndpoint a;
        a.pos = {(die_um - dx) * u01(rng), (die_um - dy) * u01(rng)};
        a.load_type = model.load_type_for_cap(cap(rng));
        cts::RouteEndpoint b;
        b.pos = {a.pos.x + dx, a.pos.y + dy};
        b.load_type = model.load_type_for_cap(cap(rng));
        try {
            // The first route warms this thread's caches; it is not timed.
            if (k == 0) {
                (void)cts::maze_route(a, b, model, opt);
                continue;
            }
            Tracer::Scope s(tr, span);
            (void)cts::maze_route(a, b, model, opt);
            o.check({});
        } catch (const std::exception& e) {
            o.check(std::string("maze_route probe failed: ") + e.what());
        }
    }
}

}  // namespace

Outcome run_layers(const RunArgs& a, Prepared& p, const std::string& machine_json) {
    Outcome o;
    Tracer tr;
    const Shape& s = a.shape;
    const delaylib::DelayModel& model = *p.model;
    const auto sinks = instance_sinks(s.synth_instance, a.seed);
    const auto ysinks = instance_sinks(s.yield_instance, a.seed);

    // --- delaylib ---------------------------------------------------------
    for (int i = 0; i < 5; ++i) {
        Tracer::Scope sc(tr, "delaylib.load");
        (void)load_library();
    }
    {
        Tracer::Scope sc(tr, "delaylib.characterize");
        (void)delaylib::FittedLibrary::characterize(tek(), buflib());
    }
    std::uint64_t queries_per_synth = 0;
    {
        CountingModel counted(model);
        on_fresh_thread([&] { (void)cts::synthesize(sinks, counted, cts::SynthesisOptions{}); });
        queries_per_synth = counted.queries();
    }
    double queries_per_sample = 0.0;
    {
        CountingModel nominal(model);
        CountingModel mc(model);
        cts::ScenarioSpec nominal_spec;
        nominal_spec.num_threads = 1;
        const cts::ScenarioSpec mc_spec = monte_carlo_spec(s.yield_samples, a.seed);
        on_fresh_thread([&] {
            (void)cts::run_scenario(ysinks, nominal, cts::SynthesisOptions{}, nominal_spec);
        });
        on_fresh_thread(
            [&] { (void)cts::run_scenario(ysinks, mc, cts::SynthesisOptions{}, mc_spec); });
        queries_per_sample = (static_cast<double>(mc.queries()) -
                              static_cast<double>(nominal.queries())) /
                             s.yield_samples;
    }

    // --- synthesis end to end, then its replay ----------------------------
    const SynthStage syn = run_synth_stage(
        instance_set(s.synth_instance, a.seed, s.synth_instances), model, 0.0, 1, o, &tr);
    const QualityStage q = run_quality_stage(
        instance_set(s.quality_instance, a.seed, s.quality_instances), model, o, &tr);
    std::optional<Replay> rep;
    for (int i = 0; i < 3; ++i) {
        Replay r;
        on_fresh_thread([&] { r = replay(tr, sinks, model); });
        if (!rep) rep = r;
    }
    const bool identical = rep->tree == syn.trees.front();
    o.check(identical ? std::string() : "replay " + check_same_tree(syn.trees.front(), rep->tree));

    const double die_um = bench_io::find_benchmark(s.synth_instance)->die_span_um;
    on_fresh_thread([&] {
        maze_probes(tr, model, die_um, 1.0 / 16.0, "cts.maze.route.short", a.seed, o);
        maze_probes(tr, model, die_um, 1.0 / 4.0, "cts.maze.route.mid", a.seed, o);
        maze_probes(tr, model, die_um, 1.0, "cts.maze.route.long", a.seed, o);
    });

    // --- util ---------------------------------------------------------------
    constexpr int kDagNodes = 20000;
    {
        util::ThreadPool pool(nproc());
        for (int rep_i = 0; rep_i < 5; ++rep_i) {
            util::DagExecutor dag;
            for (int i = 0; i < kDagNodes; ++i) dag.add_node([] {});
            Tracer::Scope sc(tr, "util.dag_executor");
            dag.execute(&pool);
        }
    }

    // --- memory ---------------------------------------------------------------
    double metered_mb = 0.0;
    {
        util::MemoryBudget budget(0);
        cts::SynthesisOptions opt;
        opt.memory_budget = &budget;
        on_fresh_thread([&] {
            const cts::SynthesisResult r = cts::synthesize(sinks, model, opt);
            metered_mb = static_cast<double>(r.diagnostics.memory_peak_bytes) / (1024.0 * 1024.0);
        });
    }

    // --- scenario: CPU times, like yield_s -------------------------------------
    std::vector<double> nominal_cpu_s;
    {
        cts::ScenarioSpec nominal_spec;
        nominal_spec.num_threads = 1;
        for (int i = 0; i < 3; ++i)
            on_fresh_thread([&] {
                Tracer::Scope sc(tr, "cts.scenario.nominal");
                const double c0 = thread_cpu_seconds();
                (void)cts::run_scenario(ysinks, model, cts::SynthesisOptions{}, nominal_spec);
                nominal_cpu_s.push_back(thread_cpu_seconds() - c0);
            });
    }
    cts::ScenarioResult mc_first;
    const double mc_s = run_yield_stage({ysinks}, monte_carlo_spec(s.yield_samples, a.seed),
                                        model, 0.0, o, &mc_first);
    const double nominal_s = median(nominal_cpu_s);

    // --- serve ------------------------------------------------------------------
    std::vector<std::string> sample;
    for (const ServeRequest& r : serve_requests(s.mix, a.seed, 200))
        sample.push_back(r.line(static_cast<long>(sample.size())));
    double parse_bytes = 0.0;
    {
        Tracer::Scope sc(tr, "serve.json.parse");
        for (int round = 0; round < 5; ++round)
            for (const std::string& line : sample) {
                (void)serve::Json::parse(line);
                parse_bytes += static_cast<double>(line.size());
            }
    }
    for (const std::string& line : sample) {
        Tracer::Scope sc(tr, "serve.request.parse");
        (void)serve::parse_request(line);
    }
    const ServeStage sv = run_serve_stage(*p.session, s, a.seed, a.serve_rate, o, &tr);

    // --- trace overhead: traced (counting model + span) vs plain synthesis,
    // in thread CPU time like synth_s --------------------------------------------
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    {
        CountingModel counted(model);
        on_fresh_thread([&] { (void)cts::synthesize(sinks, counted, cts::SynthesisOptions{}); });
        for (int i = 0; i < 3; ++i) {
            on_fresh_thread([&] {
                const double c0 = thread_cpu_seconds();
                (void)cts::synthesize(sinks, model, cts::SynthesisOptions{});
                plain_s.push_back(thread_cpu_seconds() - c0);
            });
            on_fresh_thread([&] {
                const double c0 = thread_cpu_seconds();
                Tracer::Scope sc(tr, "cts.synthesize.traced");
                (void)cts::synthesize(sinks, counted, cts::SynthesisOptions{});
                traced_s.push_back(thread_cpu_seconds() - c0);
            });
        }
    }

    const auto ms = [](double sec) { return 1e3 * sec; };
    o.add("delaylib.load_ms", ms(median_self(tr, "delaylib.load")), "ms");
    o.add("delaylib.characterize_s", median_self(tr, "delaylib.characterize"), "s");
    o.add("delaylib.queries_per_synth", static_cast<double>(queries_per_synth), "count");
    o.add("delaylib.queries_per_sample", queries_per_sample, "count");
    o.add("cts.topology.select_pairs_ms", ms(median_self(tr, "cts.topology.select_pairs")), "ms");
    o.add("cts.maze.route_us.short", 1e6 * median_self(tr, "cts.maze.route.short"), "us");
    o.add("cts.maze.route_us.mid", 1e6 * median_self(tr, "cts.maze.route.mid"), "us");
    o.add("cts.maze.route_us.long", 1e6 * median_self(tr, "cts.maze.route.long"), "us");
    o.add("cts.merge_routing.phase_s", median_self(tr, "cts.merge_routing"), "s");
    o.add("cts.merge_routing.c2f_fallbacks", rep->c2f_fallbacks, "count");
    o.add("cts.merge_routing.degraded_routes", rep->degraded_routes, "count");
    o.add("cts.incremental_timing.walk_ms", ms(median_self(tr, "cts.incremental_timing.walk")),
          "ms");
    o.add("cts.incremental_timing.components", static_cast<double>(rep->components), "count");
    o.add("cts.skew_refine.s", median_self(tr, "cts.skew_refine"), "s");
    o.add("cts.skew_refine.moves", rep->refine_moves, "count");
    const ReclaimStep& rc = rep->reclaim;
    if (!rc.present) std::fprintf(stderr, "perfbench: layer cts.wire_reclaim absent\n");
    const int batches = rc.accepted + rc.rolled_back;
    o.add("cts.wire_reclaim.s", rc.present ? median_self(tr, "cts.wire_reclaim") : kAbsent, "s");
    o.add("cts.wire_reclaim.accept_ratio",
          rc.present ? (batches > 0 ? static_cast<double>(rc.accepted) / batches : 0.0) : kAbsent,
          "ratio");
    o.add("cts.wire_reclaim.reclaimed_um", rc.present ? rc.reclaimed_um : kAbsent, "um");
    o.add("cts.replay_identical", identical ? 1.0 : 0.0, "flag");
    o.add("util.dag_executor.task_us", 1e6 * median_self(tr, "util.dag_executor") / kDagNodes,
          "us");
    o.add("util.parallel_speedup", syn.par_s > 0.0 ? syn.serial_s / syn.par_s : 0.0, "ratio");
    o.add("cts.memory.metered_peak_mb", metered_mb, "MB");
    o.add("cts.scenario.nominal_s", nominal_s, "s");
    o.add("cts.scenario.sample_ms", ms((mc_s - nominal_s) / s.yield_samples), "ms");
    o.add("cts.scenario.yield_at_target", mc_first.yield_at_target, "ratio");
    o.add("circuit.netlist_ms", ms(median_self(tr, "circuit.netlist")), "ms");
    o.add("sim.simulate_s", median_self(tr, "sim.simulate"), "s");
    o.add("sim.model_gap_ps", q.sim_skew_ps - q.model_skew_ps, "ps");
    o.add("serve.json.parse_mb_s", parse_bytes / 1e6 / median_self(tr, "serve.json.parse"), "MB/s");
    o.add("serve.request.parse_us", 1e6 * median_self(tr, "serve.request.parse"), "us");
    o.add("serve.session.admit_us", median(sv.admit_us), "us");
    o.add("serve.session.queue_ms.p50", percentile(sv.queue_ms, 50.0), "ms");
    o.add("serve.session.queue_ms.p99", percentile(sv.queue_ms, 99.0), "ms");
    o.add("serve.session.service_ms.p50", percentile(sv.service_ms, 50.0), "ms");
    o.add("serve.session.service_ms.p99", percentile(sv.service_ms, 99.0), "ms");
    o.add("serve.session.service_ms.synthesize.p50", percentile(sv.service_synth_ms, 50.0), "ms");
    o.add("serve.session.service_ms.scenario.p50", percentile(sv.service_scenario_ms, 50.0), "ms");
    o.add("serve.generator_late_ms", sv.max_late_ms, "ms");
    o.add("serve.rejected", static_cast<double>(sv.rejected), "count");
    o.add("serve.failed", static_cast<double>(sv.failed), "count");
    const double plain = median(plain_s);
    o.add("trace.overhead_pct", plain > 0.0 ? 100.0 * (median(traced_s) - plain) / plain : 0.0,
          "%");

    if (!tr.write_chrome_json(a.trace_path, machine_json))
        o.check("could not write the trace to " + a.trace_path);
    return o;
}

std::vector<std::string> per_layer_metric_names() {
    return {"delaylib.load_ms",
            "delaylib.characterize_s",
            "delaylib.queries_per_synth",
            "delaylib.queries_per_sample",
            "cts.topology.select_pairs_ms",
            "cts.maze.route_us.short",
            "cts.maze.route_us.mid",
            "cts.maze.route_us.long",
            "cts.merge_routing.phase_s",
            "cts.merge_routing.c2f_fallbacks",
            "cts.merge_routing.degraded_routes",
            "cts.incremental_timing.walk_ms",
            "cts.incremental_timing.components",
            "cts.skew_refine.s",
            "cts.skew_refine.moves",
            "cts.wire_reclaim.s",
            "cts.wire_reclaim.accept_ratio",
            "cts.wire_reclaim.reclaimed_um",
            "cts.replay_identical",
            "util.dag_executor.task_us",
            "util.parallel_speedup",
            "cts.memory.metered_peak_mb",
            "cts.scenario.nominal_s",
            "cts.scenario.sample_ms",
            "cts.scenario.yield_at_target",
            "circuit.netlist_ms",
            "sim.simulate_s",
            "sim.model_gap_ps",
            "serve.json.parse_mb_s",
            "serve.request.parse_us",
            "serve.session.admit_us",
            "serve.session.queue_ms.p50",
            "serve.session.queue_ms.p99",
            "serve.session.service_ms.p50",
            "serve.session.service_ms.p99",
            "serve.session.service_ms.synthesize.p50",
            "serve.session.service_ms.scenario.p50",
            "serve.generator_late_ms",
            "serve.rejected",
            "serve.failed",
            "trace.overhead_pct"};
}

}  // namespace perfbench
