// ctsim command-line interface.
//
// Synthesize a buffered clock tree for a benchmark file or a built-in
// synthetic instance, verify it with the transient simulator, and
// optionally export the SPICE deck.
//
//   ctsim_cli --bench r3                      # synthetic instance
//   ctsim_cli --gsrc r1.bst --slew 80         # real GSRC BST file
//   ctsim_cli --ispd f11.cns --hstructure correct --spice out.sp
//
// Exit status (docs/robustness.md):
//   0  verified tree within the slew limit
//   1  tree synthesized but the verified worst slew exceeds the limit
//   2  usage error (bad flag or flag value, missing file, unknown
//      benchmark)
//   3  invalid input (malformed benchmark file, bad sink list)
//   4  infeasible routing instance
//   5  delay-library cache corruption (only if re-characterization
//      also failed; a corrupt cache normally just triggers a warning)
//   6  resource exhaustion
//   7  deadline exceeded with no usable result
//  10  internal error
#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "bench_io/parsers.h"
#include "bench_io/synthetic.h"
#include "circuit/spice_writer.h"
#include "cts/checkpoint.h"
#include "cts/scenario.h"
#include "cts/synthesizer.h"
#include "delaylib/fitted_library.h"
#include "sim/netlist_sim.h"
#include "tools/cli_args.h"
#include "util/status.h"

namespace {

using ctsim::cli::integer_arg;
using ctsim::cli::number_arg;
using ctsim::cli::usage_error;

void usage() {
    std::printf(
        "usage: ctsim_cli [input] [options]\n"
        "input (one of):\n"
        "  --bench NAME        built-in synthetic instance (r1..r5, f11..fnb1)\n"
        "  --gsrc FILE         GSRC Bookshelf BST sink list\n"
        "  --ispd FILE         ISPD 2009 CNS benchmark\n"
        "options:\n"
        "  --slew-limit PS     hard slew limit (default 100)\n"
        "  --slew PS           synthesis slew target (default 80)\n"
        "  --grid N            routing grid cells per dimension (default 45)\n"
        "  --hstructure MODE   off | reestimate | correct (default off)\n"
        "  --seed-policy P     max-latency | random (default max-latency)\n"
        "  --matching P        greedy | path-growing (default greedy)\n"
        "  --deadline-ms MS    cooperative synthesis deadline; on expiry the\n"
        "                      run degrades gracefully (docs/robustness.md)\n"
        "  --memory-budget-mb MB  soft memory cap; under pressure the run\n"
        "                      degrades along the documented ladder before it\n"
        "                      ever fails (docs/robustness.md)\n"
        "  --checkpoint-dir DIR  crash-safe checkpointing: a snapshot once merging\n"
        "                      finishes, and a rerun with the same input and\n"
        "                      options resumes from it, skipping the merge\n"
        "                      phase (cleared on success)\n"
        "  --library FILE      delay library cache (default ctsim_delaylib_45nm.cache)\n"
        "  --cache-dir DIR     directory for relative cache files (also honors the\n"
        "                      CTSIM_CACHE_DIR environment variable; without either,\n"
        "                      the cache lands in the per-user cache directory --\n"
        "                      $XDG_CACHE_HOME/ctsim or ~/.cache/ctsim -- never the\n"
        "                      current directory)\n"
        "  --spice FILE        export the verified netlist as a SPICE deck\n"
        "  --quiet             only print the summary line\n"
        "scenario analysis (docs/scenarios.md; replaces the verify/SPICE path):\n"
        "  --scenario MODE     nominal | corners | monte_carlo\n"
        "  --samples N         monte_carlo sample count (default 64)\n"
        "  --scenario-seed K   variation seed (default 1); same seed, same curve\n"
        "  --wire-r-pct P      wire resistance variation half-range %% (default 5)\n"
        "  --wire-c-pct P      wire capacitance variation half-range %% (default 5)\n"
        "  --buffer-drive-pct P  buffer drive variation half-range %% (default 5)\n"
        "  --yield-target-ps PS  skew target for the reported yield (default 10)\n"
        "  --scenario-threads N  sample fan-out threads (0 = hardware; default 1)\n");
}

/// Map a structured error to its documented exit status.
int exit_code_for(ctsim::util::StatusCode c) {
    using ctsim::util::StatusCode;
    switch (c) {
        case StatusCode::ok: return 0;
        case StatusCode::invalid_input: return 3;
        case StatusCode::infeasible_route: return 4;
        case StatusCode::cache_corruption: return 5;
        case StatusCode::resource_exhaustion: return 6;
        case StatusCode::deadline_exceeded: return 7;
        case StatusCode::internal: return 10;
    }
    return 10;
}

[[noreturn]] void die(const ctsim::util::Error& e) {
    std::fprintf(stderr, "ctsim_cli: error: %s\n", e.status().to_string().c_str());
    std::exit(exit_code_for(e.status().code()));
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ctsim;
    std::string bench_name, gsrc_file, ispd_file, spice_file, checkpoint_dir;
    std::string library_path = "ctsim_delaylib_45nm.cache";
    cts::SynthesisOptions opt;
    bool quiet = false;
    bool scenario_requested = false;
    cts::ScenarioSpec scenario;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--bench") bench_name = next();
        else if (a == "--gsrc") gsrc_file = next();
        else if (a == "--ispd") ispd_file = next();
        else if (a == "--slew-limit") opt.slew_limit_ps = number_arg(a, next());
        else if (a == "--slew") opt.slew_target_ps = number_arg(a, next());
        else if (a == "--grid")
            opt.grid_cells_per_dim = static_cast<int>(integer_arg(a, next(), 1, INT_MAX));
        else if (a == "--deadline-ms") opt.deadline_ms = number_arg(a, next());
        else if (a == "--memory-budget-mb") opt.memory_budget_mb = number_arg(a, next());
        else if (a == "--checkpoint-dir") checkpoint_dir = next();
        else if (a == "--library") library_path = next();
        else if (a == "--cache-dir") setenv("CTSIM_CACHE_DIR", next(), 1);
        else if (a == "--spice") spice_file = next();
        else if (a == "--quiet") quiet = true;
        else if (a == "--scenario") {
            const std::string m = next();
            scenario_requested = true;
            if (m == "nominal") scenario.mode = cts::ScenarioMode::nominal;
            else if (m == "corners") scenario.mode = cts::ScenarioMode::corners;
            else if (m == "monte_carlo") scenario.mode = cts::ScenarioMode::monte_carlo;
            else usage_error(a, m.c_str(), "nominal | corners | monte_carlo");
        }
        else if (a == "--samples")
            scenario.samples = static_cast<int>(integer_arg(a, next(), INT_MIN, INT_MAX));
        else if (a == "--scenario-seed")
            scenario.variation.seed = static_cast<unsigned>(integer_arg(a, next(), 0, UINT_MAX));
        else if (a == "--wire-r-pct") scenario.variation.wire_r_pct = number_arg(a, next());
        else if (a == "--wire-c-pct") scenario.variation.wire_c_pct = number_arg(a, next());
        else if (a == "--buffer-drive-pct")
            scenario.variation.buffer_drive_pct = number_arg(a, next());
        else if (a == "--yield-target-ps") scenario.skew_target_ps = number_arg(a, next());
        else if (a == "--scenario-threads")
            scenario.num_threads = static_cast<int>(integer_arg(a, next(), INT_MIN, INT_MAX));
        else if (a == "--hstructure") {
            const std::string m = next();
            if (m == "off") opt.hstructure = cts::HStructureMode::off;
            else if (m == "reestimate") opt.hstructure = cts::HStructureMode::reestimate;
            else if (m == "correct") opt.hstructure = cts::HStructureMode::correct;
            else usage_error(a, m.c_str(), "off | reestimate | correct");
        } else if (a == "--seed-policy") {
            const std::string p = next();
            if (p == "max-latency") opt.seed_policy = cts::SeedPolicy::max_latency;
            else if (p == "random") opt.seed_policy = cts::SeedPolicy::random;
            else usage_error(a, p.c_str(), "max-latency | random");
        } else if (a == "--matching") {
            const std::string p = next();
            if (p == "greedy") opt.matching = cts::MatchingPolicy::greedy_centroid;
            else if (p == "path-growing") opt.matching = cts::MatchingPolicy::path_growing;
            else usage_error(a, p.c_str(), "greedy | path-growing");
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage();
            return 2;
        }
    }

    std::vector<cts::SinkSpec> sinks;
    std::string label;
    try {
        if (!bench_name.empty()) {
            const auto spec = bench_io::find_benchmark(bench_name);
            if (!spec) {
                std::fprintf(stderr, "unknown benchmark '%s'\n", bench_name.c_str());
                return 2;
            }
            sinks = bench_io::generate(*spec);
            label = bench_name;
        } else if (!gsrc_file.empty()) {
            std::ifstream in(gsrc_file);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", gsrc_file.c_str());
                return 2;
            }
            sinks = bench_io::parse_gsrc_bst(in, gsrc_file);
            label = gsrc_file;
        } else if (!ispd_file.empty()) {
            std::ifstream in(ispd_file);
            if (!in) {
                std::fprintf(stderr, "cannot open %s\n", ispd_file.c_str());
                return 2;
            }
            sinks = bench_io::parse_ispd09(in, ispd_file);
            label = ispd_file;
        } else {
            usage();
            return 2;
        }
    } catch (const util::Error& e) {
        die(e);
    }

    const tech::Technology tk = tech::Technology::ptm45_aggressive();
    const tech::BufferLibrary lib = tech::BufferLibrary::standard_three(tk);
    util::Status cache_status;
    std::unique_ptr<delaylib::FittedLibrary> model;
    try {
        model = delaylib::FittedLibrary::load_or_characterize(library_path, tk, lib, {},
                                                              &cache_status);
    } catch (const util::Error& e) {
        die(e);
    }
    if (!cache_status.ok())
        std::fprintf(stderr, "ctsim_cli: warning: delay-library cache rejected (%s); "
                             "re-characterized and rewrote it\n",
                     cache_status.to_string().c_str());

    if (!quiet)
        std::printf("%s: %zu sinks, slew target %.0f ps (limit %.0f ps)\n", label.c_str(),
                    sinks.size(), opt.slew_target_ps, opt.slew_limit_ps);

    if (scenario_requested) {
        cts::ScenarioResult sr;
        try {
            sr = cts::run_scenario(sinks, *model, opt, scenario);
        } catch (const util::Error& e) {
            die(e);
        }
        if (!quiet) {
            std::printf("scenario %s: seed %u, %zu samples\n",
                        cts::scenario_mode_name(sr.mode), scenario.variation.seed,
                        sr.samples.size());
            std::printf("nominal: skew=%.3fps latency=%.3fps wire=%.2fmm "
                        "buffers=%d levels=%d\n",
                        sr.nominal_skew_ps, sr.nominal_latency_ps,
                        sr.nominal_wirelength_um / 1000.0, sr.buffers, sr.levels);
        }
        if (!sr.yield_curve_skew_ps.empty()) {
            const std::vector<double>& c = sr.yield_curve_skew_ps;
            const auto at = [&](double q) {
                std::size_t i = static_cast<std::size_t>(q * static_cast<double>(c.size()));
                return c[std::min(i, c.size() - 1)];
            };
            std::printf("skew quantiles: p50=%.3fps p90=%.3fps p100=%.3fps\n", at(0.50),
                        at(0.90), c.back());
        }
        std::printf("%s: yield(skew<=%.1fps)=%.4f over %zu sample%s\n", label.c_str(),
                    scenario.skew_target_ps, sr.yield_at_target,
                    std::max<std::size_t>(sr.samples.size(), 1),
                    sr.samples.size() == 1 ? "" : "s");
        return 0;
    }

    std::unique_ptr<cts::Checkpointer> checkpoint;
    if (!checkpoint_dir.empty()) {
        checkpoint = std::make_unique<cts::Checkpointer>(checkpoint_dir);
        opt.checkpoint = checkpoint.get();
    }

    cts::SynthesisResult result;
    try {
        result = cts::synthesize(sinks, *model, opt);
    } catch (const util::Error& e) {
        die(e);
    }
    const cts::SynthesisDiagnostics& diag = result.diagnostics;
    if (diag.resumed_from != cts::CheckpointPhase::none && !quiet)
        std::printf("resumed from %s checkpoint (%s)\n",
                    cts::checkpoint_phase_name(diag.resumed_from),
                    checkpoint->path().c_str());
    if (!quiet)
        std::printf("tree: %d levels, %d buffers, %.2f mm wire, %d h-flips\n", result.levels,
                    result.buffer_count, result.wire_length_um / 1000.0,
                    result.hstats.flips);
    if (diag.c2f_fallbacks > 0)
        std::fprintf(stderr,
                     "ctsim_cli: warning: %d coarse-to-fine route%s fell back to the "
                     "full grid (first at merge node %d)\n",
                     diag.c2f_fallbacks, diag.c2f_fallbacks == 1 ? "" : "s",
                     diag.first_c2f_fallback_merge);
    if (diag.deadline_hit)
        std::fprintf(stderr,
                     "ctsim_cli: warning: deadline hit during %s; result degraded "
                     "(%d early-closed routes, refine %s)\n",
                     cts::degrade_stage_name(diag.degraded_at), diag.degraded_routes,
                     diag.refine_skipped ? "skipped" : "ran");
    if (diag.memory_rung != cts::MemoryRung::none)
        std::fprintf(stderr,
                     "ctsim_cli: warning: memory budget pressure; degraded to rung "
                     "'%s' (peak %.1f MB of %.1f MB budget, %d coarsened route%s)\n",
                     cts::memory_rung_name(diag.memory_rung),
                     static_cast<double>(diag.memory_peak_bytes) / (1024.0 * 1024.0),
                     opt.memory_budget_mb, diag.grid_coarsened_routes,
                     diag.grid_coarsened_routes == 1 ? "" : "s");

    // A finished run must never be resumed: clear the snapshot now
    // that the tree is in hand (the checkpoint exists to survive a
    // crash or cut BEFORE this point).
    if (checkpoint != nullptr) checkpoint->clear();

    const circuit::Netlist net = result.netlist(tk, lib);
    const sim::NetlistSimReport rep = sim::simulate_netlist(net, tk, lib);

    std::printf("%s: worst_slew=%.1fps skew=%.2fps latency=%.3fns %s%s\n", label.c_str(),
                rep.worst_slew_ps, rep.skew_ps, rep.max_latency_ps / 1000.0,
                rep.worst_slew_ps <= opt.slew_limit_ps ? "PASS" : "SLEW-VIOLATION",
                diag.deadline_hit ? " (degraded)" : "");

    if (!spice_file.empty()) {
        std::ofstream deck(spice_file);
        circuit::write_spice(deck, net, tk, lib);
        if (!quiet) std::printf("wrote %s\n", spice_file.c_str());
    }
    return rep.worst_slew_ps <= opt.slew_limit_ps ? 0 : 1;
}
