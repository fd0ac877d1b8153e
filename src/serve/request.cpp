#include "serve/request.h"

#include <cmath>
#include <fstream>
#include <limits>

#include "bench_io/parsers.h"
#include "bench_io/synthetic.h"

namespace ctsim::serve {

namespace {

[[noreturn]] void bad(const std::string& what) {
    util::throw_status(util::Status::invalid_input(what));
}

double require_number(const Json& v, const char* what) {
    if (!v.is_number()) bad(std::string(what) + " must be a number");
    return v.as_number();
}

bool require_bool(const Json& v, const char* what) {
    if (!v.is_bool()) bad(std::string(what) + " must be a boolean");
    return v.as_bool();
}

double finite_nonneg(const Json& v, const char* what) {
    const double d = require_number(v, what);
    if (!std::isfinite(d) || d < 0.0) bad(std::string(what) + " must be finite and >= 0");
    return d;
}

unsigned seed_value(const Json& v, const char* what) {
    const double d = finite_nonneg(v, what);
    // An out-of-range double-to-unsigned cast is UB, not a wrap.
    if (d > static_cast<double>(std::numeric_limits<unsigned>::max()) ||
        d != std::floor(d))
        bad(std::string(what) + " must be an integer in [0, 2^32)");
    return static_cast<unsigned>(d);
}

/// The per-request options overlay. Every key maps to one
/// SynthesisOptions field; anything unrecognized is a typed error so
/// a typo'd knob can't silently run with defaults.
void apply_options(const Json& obj, cts::SynthesisOptions& opt) {
    if (!obj.is_object()) bad("\"options\" must be an object");
    for (const auto& [key, v] : obj.members()) {
        if (key == "slew_limit_ps") {
            opt.slew_limit_ps = finite_nonneg(v, "options.slew_limit_ps");
        } else if (key == "slew_target_ps") {
            opt.slew_target_ps = finite_nonneg(v, "options.slew_target_ps");
        } else if (key == "grid_cells_per_dim") {
            const double d = require_number(v, "options.grid_cells_per_dim");
            if (d < 4 || d > 4096 || d != std::floor(d))
                bad("options.grid_cells_per_dim must be an integer in [4, 4096]");
            opt.grid_cells_per_dim = static_cast<int>(d);
        } else if (key == "rng_seed") {
            opt.rng_seed = seed_value(v, "options.rng_seed");
        } else if (key == "hstructure") {
            const std::string& s = v.is_string() ? v.as_string() : "";
            if (s == "off") opt.hstructure = cts::HStructureMode::off;
            else if (s == "reestimate") opt.hstructure = cts::HStructureMode::reestimate;
            else if (s == "correct") opt.hstructure = cts::HStructureMode::correct;
            else bad("options.hstructure must be \"off\"|\"reestimate\"|\"correct\"");
        } else if (key == "seed_policy") {
            const std::string& s = v.is_string() ? v.as_string() : "";
            if (s == "max_latency") opt.seed_policy = cts::SeedPolicy::max_latency;
            else if (s == "random") opt.seed_policy = cts::SeedPolicy::random;
            else bad("options.seed_policy must be \"max_latency\"|\"random\"");
        } else if (key == "matching") {
            const std::string& s = v.is_string() ? v.as_string() : "";
            if (s == "greedy_centroid") opt.matching = cts::MatchingPolicy::greedy_centroid;
            else if (s == "path_growing") opt.matching = cts::MatchingPolicy::path_growing;
            else bad("options.matching must be \"greedy_centroid\"|\"path_growing\"");
        } else if (key == "skew_refine") {
            opt.skew_refine = require_bool(v, "options.skew_refine");
        } else if (key == "intelligent_sizing") {
            opt.intelligent_sizing = require_bool(v, "options.intelligent_sizing");
        } else if (key == "num_threads") {
            bad("options.num_threads is not a per-request knob: the shared pool owns "
                "parallelism (requests run one-per-worker)");
        } else {
            bad("unknown options key \"" + key + "\"");
        }
    }
}

double pct_value(const Json& v, const char* what) {
    const double d = finite_nonneg(v, what);
    if (d > 100.0) bad(std::string(what) + " must be in [0, 100]");
    return d;
}

/// The scenario-object whitelist (type == "scenario", schema version
/// 2+). Same rule as the options overlay: anything unrecognized is a
/// typed error, so a typo'd field can't silently run with defaults.
void apply_scenario(const Json& obj, cts::ScenarioSpec& spec) {
    if (!obj.is_object()) bad("\"scenario\" must be an object");
    bool have_mode = false;
    for (const auto& [key, v] : obj.members()) {
        if (key == "mode") {
            const std::string& s = v.is_string() ? v.as_string() : "";
            if (s == "nominal") spec.mode = cts::ScenarioMode::nominal;
            else if (s == "corners") spec.mode = cts::ScenarioMode::corners;
            else if (s == "monte_carlo") spec.mode = cts::ScenarioMode::monte_carlo;
            else bad("scenario.mode must be \"nominal\"|\"corners\"|\"monte_carlo\"");
            have_mode = true;
        } else if (key == "samples") {
            const double d = require_number(v, "scenario.samples");
            if (d < 1 || d > 100000 || d != std::floor(d))
                bad("scenario.samples must be an integer in [1, 100000]");
            spec.samples = static_cast<int>(d);
        } else if (key == "seed") {
            spec.variation.seed = seed_value(v, "scenario.seed");
        } else if (key == "wire_r_pct") {
            spec.variation.wire_r_pct = pct_value(v, "scenario.wire_r_pct");
        } else if (key == "wire_c_pct") {
            spec.variation.wire_c_pct = pct_value(v, "scenario.wire_c_pct");
        } else if (key == "buffer_drive_pct") {
            spec.variation.buffer_drive_pct = pct_value(v, "scenario.buffer_drive_pct");
        } else if (key == "skew_target_ps") {
            spec.skew_target_ps = finite_nonneg(v, "scenario.skew_target_ps");
        } else if (key == "num_threads") {
            bad("scenario.num_threads is not a per-request knob: the shared pool owns "
                "parallelism (requests run one-per-worker)");
        } else {
            bad("unknown scenario key \"" + key + "\"");
        }
    }
    if (!have_mode) bad("\"scenario\" needs a \"mode\"");
}

cts::SinkSpec parse_sink(const Json& v, std::size_t index) {
    cts::SinkSpec s;
    const std::string where = "sinks[" + std::to_string(index) + "]";
    if (v.is_array()) {
        // Compact form: [x_um, y_um, cap_ff].
        if (v.items().size() != 3) bad(where + " must be [x, y, cap_ff]");
        s.pos.x = require_number(v.items()[0], (where + "[0]").c_str());
        s.pos.y = require_number(v.items()[1], (where + "[1]").c_str());
        s.cap_ff = require_number(v.items()[2], (where + "[2]").c_str());
    } else if (v.is_object()) {
        const Json* x = v.find("x");
        const Json* y = v.find("y");
        const Json* cap = v.find("cap_ff");
        if (!x || !y) bad(where + " needs \"x\" and \"y\"");
        s.pos.x = require_number(*x, (where + ".x").c_str());
        s.pos.y = require_number(*y, (where + ".y").c_str());
        if (cap) s.cap_ff = require_number(*cap, (where + ".cap_ff").c_str());
        if (const Json* name = v.find("name"); name && name->is_string())
            s.name = name->as_string();
    } else {
        bad(where + " must be an array or object");
    }
    // Value-range validation stays in synthesize() -- it is the single
    // authority on what a legal sink is.
    return s;
}

}  // namespace

Request parse_request(const std::string& line) {
    const Json root = Json::parse(line);
    if (!root.is_object()) bad("request must be a JSON object");

    Request req;
    if (const Json* id = root.find("id")) {
        if (id->is_string()) req.id_json = json_quote(id->as_string());
        else if (id->is_number()) req.id_json = json_number(id->as_number());
        else bad("\"id\" must be a string or number");
    }

    // Wire-contract version (absent => 1): unknown versions are a
    // typed error up front, never a silently half-understood request.
    if (const Json* sv = root.find("schema_version")) {
        const double d = require_number(*sv, "schema_version");
        if (d != std::floor(d) || d < kSchemaVersionMin)
            bad("schema_version must be an integer >= " +
                std::to_string(kSchemaVersionMin));
        if (d > kSchemaVersionMax)
            bad("unsupported schema_version " +
                std::to_string(static_cast<long long>(d)) + " (this server speaks " +
                std::to_string(kSchemaVersionMin) + ".." +
                std::to_string(kSchemaVersionMax) + ")");
        req.schema_version = static_cast<int>(d);
    }

    std::string type = "synthesize";
    if (const Json* t = root.find("type")) {
        if (!t->is_string()) bad("\"type\" must be a string");
        type = t->as_string();
    }
    if (type == "synthesize") req.type = RequestType::synthesize;
    else if (type == "scenario") req.type = RequestType::scenario;
    else if (type == "stats") req.type = RequestType::stats;
    else if (type == "shutdown") req.type = RequestType::shutdown;
    else bad("unknown request type \"" + type + "\"");

    if (req.type == RequestType::scenario &&
        req.schema_version < kScenarioSchemaVersion)
        bad("scenario requests require schema_version >= " +
            std::to_string(kScenarioSchemaVersion));

    if (req.type == RequestType::stats || req.type == RequestType::shutdown) {
        for (const auto& [key, v] : root.members()) {
            (void)v;
            if (key != "id" && key != "type" && key != "schema_version")
                bad("\"" + key + "\" is not valid on a " + type + " request");
        }
        return req;
    }

    auto claim_source = [&](SinkSource s) {
        if (req.source != SinkSource::none)
            bad("request names more than one sink source "
                "(use exactly one of bench/synthetic/gsrc/ispd/sinks)");
        req.source = s;
    };

    bool have_scenario = false;
    for (const auto& [key, v] : root.members()) {
        if (key == "id" || key == "type" || key == "schema_version") {
            continue;
        } else if (key == "scenario") {
            if (req.type != RequestType::scenario)
                bad("\"scenario\" is only valid on a scenario request");
            apply_scenario(v, req.scenario);
            have_scenario = true;
        } else if (key == "bench") {
            if (!v.is_string()) bad("\"bench\" must be a string");
            claim_source(SinkSource::bench);
            req.bench_name = v.as_string();
        } else if (key == "gsrc" || key == "ispd") {
            if (!v.is_string()) bad("\"" + key + "\" must be a path string");
            claim_source(key == "gsrc" ? SinkSource::gsrc : SinkSource::ispd);
            req.path = v.as_string();
        } else if (key == "synthetic") {
            if (!v.is_object()) bad("\"synthetic\" must be an object");
            claim_source(SinkSource::synthetic);
            const Json* n = v.find("sinks");
            if (!n) bad("\"synthetic\" needs a \"sinks\" count");
            const double count = require_number(*n, "synthetic.sinks");
            if (count < 1 || count > 10'000'000 || count != std::floor(count))
                bad("synthetic.sinks must be an integer in [1, 10000000]");
            req.synthetic_sinks = static_cast<int>(count);
            if (const Json* span = v.find("span_um")) {
                req.synthetic_span_um = finite_nonneg(*span, "synthetic.span_um");
                if (req.synthetic_span_um <= 0.0) bad("synthetic.span_um must be > 0");
            }
            if (const Json* seed = v.find("seed"))
                req.synthetic_seed = seed_value(*seed, "synthetic.seed");
        } else if (key == "sinks") {
            if (!v.is_array()) bad("\"sinks\" must be an array");
            claim_source(SinkSource::inline_);
            req.inline_sinks.reserve(v.items().size());
            for (std::size_t i = 0; i < v.items().size(); ++i)
                req.inline_sinks.push_back(parse_sink(v.items()[i], i));
        } else if (key == "options") {
            apply_options(v, req.options);
        } else if (key == "deadline_ms") {
            req.deadline_ms = finite_nonneg(v, "deadline_ms");
        } else if (key == "memory_budget_mb") {
            req.memory_budget_mb = finite_nonneg(v, "memory_budget_mb");
        } else {
            bad("unknown request key \"" + key + "\"");
        }
    }

    if (req.source == SinkSource::none)
        bad(type + " request needs a sink source "
            "(one of bench/synthetic/gsrc/ispd/sinks)");
    if (req.type == RequestType::scenario && !have_scenario)
        bad("scenario request needs a \"scenario\" object");
    return req;
}

std::vector<cts::SinkSpec> resolve_sinks(const Request& req) {
    switch (req.source) {
        case SinkSource::bench: {
            const auto spec = bench_io::find_benchmark(req.bench_name);
            if (!spec) bad("unknown benchmark \"" + req.bench_name + "\"");
            return bench_io::generate(*spec);
        }
        case SinkSource::synthetic: {
            bench_io::BenchmarkSpec spec;
            spec.name = "synthetic";
            spec.sink_count = req.synthetic_sinks;
            spec.die_span_um = req.synthetic_span_um;
            spec.seed = req.synthetic_seed;
            return bench_io::generate(spec);
        }
        case SinkSource::gsrc:
        case SinkSource::ispd: {
            std::ifstream in(req.path);
            if (!in) bad("cannot open instance file \"" + req.path + "\"");
            return req.source == SinkSource::gsrc
                       ? bench_io::parse_gsrc_bst(in, req.path)
                       : bench_io::parse_ispd09(in, req.path);
        }
        case SinkSource::inline_: return req.inline_sinks;
        case SinkSource::none: break;
    }
    bad("request carries no sinks");
}

}  // namespace ctsim::serve
