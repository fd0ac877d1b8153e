// perfbench: one run of one workload (see README.md and run.py).
//
//   perfbench --workload batch|yield|serve --seed N --seconds S --trace 0|1
//             --serve-rates batch=R,yield=R,serve=R [--trace-out PATH]
//   perfbench --prepare              characterize the delay library once
//   perfbench --setup-only           time one process set-up, print it
//
// The last stdout line of a run is the result object; the line before
// it records the machine.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "perfbench.h"
#include "serve/json.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

double parse_number(const std::string& flag, const std::string& v) {
    try {
        std::size_t used = 0;
        const double d = std::stod(v, &used);
        if (used == v.size()) return d;
    } catch (const std::exception&) {
    }
    usage("bad value for " + flag + ": " + v);
}

/// "batch=100,yield=100,serve=40" -> rate per workload. BENCHMARK.json's
/// command pins the rates and is the same for every workload, so it
/// names each workload's rate.
std::map<std::string, double> parse_rates(const std::string& v) {
    std::map<std::string, double> out;
    std::size_t pos = 0;
    while (pos < v.size()) {
        const std::size_t comma = std::min(v.find(',', pos), v.size());
        const std::string item = v.substr(pos, comma - pos);
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos) usage("bad --serve-rates item: " + item);
        out[item.substr(0, eq)] = parse_number("--serve-rates", item.substr(eq + 1));
        pos = comma + 1;
    }
    return out;
}

std::string machine_json(const Machine& m, const std::string& workload, unsigned seed,
                         bool trace) {
    return "{\"nproc\": " + std::to_string(m.nproc) +
           ", \"cpu_model\": " + serve::json_quote(m.cpu_model) +
           ", \"effective_cores\": " + serve::json_number(m.effective_cores) +
           ", \"burn_ms\": " + serve::json_number(m.burn_ms) +
           ", \"workload\": " + serve::json_quote(workload) + ", \"seed\": " +
           std::to_string(seed) + ", \"trace\": " + (trace ? "1" : "0") + "}";
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, std::string> flags;
    std::set<std::string> switches;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--prepare" || a == "--setup-only") {
            switches.insert(a);
        } else if (a.rfind("--", 0) == 0 && i + 1 < argc) {
            flags[a] = argv[++i];
        } else {
            usage("unexpected argument " + a);
        }
    }

    try {
        RunArgs a;
        if (switches.count("--prepare")) {
            (void)load_library();
            return 0;
        }
        if (switches.count("--setup-only")) {
            const Prepared p = prepare();
            std::printf("{\"setup_s\": %s}\n", serve::json_number(p.setup_s).c_str());
            return 0;
        }

        if (!flags.count("--workload")) usage("--workload is required");
        a.shape = shape_of(flags["--workload"]);
        if (flags.count("--seed"))
            a.seed = static_cast<unsigned>(parse_number("--seed", flags["--seed"]));
        if (flags.count("--seconds")) a.seconds = parse_number("--seconds", flags["--seconds"]);
        const bool trace = flags.count("--trace") && flags["--trace"] != "0";
        if (!flags.count("--serve-rates")) usage("--serve-rates is required");
        const auto rates = parse_rates(flags["--serve-rates"]);
        const auto it = rates.find(a.shape.name);
        if (it == rates.end()) usage("--serve-rates has no rate for " + a.shape.name);
        a.serve_rate = it->second;
        a.trace_path = flags.count("--trace-out") ? flags["--trace-out"] : "perfbench_trace.json";
        if (a.seconds <= 0.0 || a.serve_rate <= 0.0) usage("bad run parameters");

        const Machine m = probe_machine();
        const std::string machine = machine_json(m, a.shape.name, a.seed, trace);
        Prepared p = prepare();
        Outcome o = trace ? run_layers(a, p, machine) : run_workload(a, p);
        if (!trace) o.metrics.insert(o.metrics.begin(), Metric{"setup_s", p.setup_s, "s"});
        const std::string names =
            check_metric_names(o, trace ? per_layer_metric_names() : end_to_end_metric_names());
        if (!names.empty()) throw std::runtime_error(names);

        std::printf("{\"machine\": %s}\n", machine.c_str());
        std::printf("%s\n", o.json().c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
