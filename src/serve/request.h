// Request parsing for the ctsimd serving protocol (docs/serving.md).
//
// A request is one JSON object per line. parse_request() validates the
// whole shape up front -- unknown option keys, conflicting sink
// sources, out-of-range values all raise util::Error{invalid_input}
// BEFORE any synthesis work is admitted, so a malformed request costs
// the server one parse, never a worker slot.
//
// The options overlay is a curated whitelist, not a reflection dump:
// only knobs that are safe to vary per request in a shared process are
// accepted (quality/seed knobs; `num_threads` is rejected because the
// pool, not the tenant, owns parallelism -- each admitted request runs
// confined to one worker).
#ifndef CTSIM_SERVE_REQUEST_H
#define CTSIM_SERVE_REQUEST_H

#include <string>
#include <vector>

#include "cts/options.h"
#include "cts/scenario.h"
#include "cts/synthesizer.h"
#include "serve/json.h"

namespace ctsim::serve {

enum class RequestType { synthesize, scenario, stats, shutdown };

/// Wire-contract versioning (docs/serving.md): a request may carry
/// "schema_version"; absent means 1. The session echoes the version
/// on every response. Versions above the ceiling are rejected with a
/// typed invalid_input (never silently half-served), and features
/// introduced at version N (the scenario request type at 2) require
/// the request to declare at least N.
inline constexpr int kSchemaVersionMin = 1;
inline constexpr int kSchemaVersionMax = 2;
inline constexpr int kScenarioSchemaVersion = 2;

/// Where the request's sinks come from (exactly one per request).
enum class SinkSource {
    none,       ///< stats / shutdown requests carry no sinks
    bench,      ///< named registry instance (bench_io::find_benchmark)
    synthetic,  ///< generated: {"sinks": N, "span_um": S, "seed": K}
    gsrc,       ///< GSRC BST file on the server's filesystem
    ispd,       ///< ISPD 2009 CNS file on the server's filesystem
    inline_,    ///< sink array embedded in the request
};

struct Request {
    /// The request's "id" member as a JSON rendering ("null" when the
    /// request carried none), echoed verbatim into the response so
    /// clients can correlate out-of-order completions.
    std::string id_json{"null"};
    RequestType type{RequestType::synthesize};
    /// Declared wire-contract version (absent => 1), echoed back.
    int schema_version{1};

    SinkSource source{SinkSource::none};
    std::string bench_name;          // source == bench
    std::string path;                // source == gsrc / ispd
    int synthetic_sinks{0};          // source == synthetic
    double synthetic_span_um{10000.0};
    unsigned synthetic_seed{1};
    std::vector<cts::SinkSpec> inline_sinks;  // source == inline_

    /// Defaults + the request's overlay applied. num_threads is pinned
    /// to 1 by the session, not here.
    cts::SynthesisOptions options;
    /// type == scenario: the parsed "scenario" object (strict
    /// whitelist; the session pins its num_threads to 1 too).
    cts::ScenarioSpec scenario;
    double deadline_ms{0.0};
    double memory_budget_mb{0.0};
};

/// Parse one JSON-lines request. Throws util::Error{invalid_input}
/// (with a column diagnostic for syntax errors) on anything malformed.
Request parse_request(const std::string& line);

/// Materialize the request's sink list (reads files / generates /
/// copies inline sinks). Throws util::Error{invalid_input} for an
/// unknown bench name or unreadable/malformed file.
std::vector<cts::SinkSpec> resolve_sinks(const Request& req);

}  // namespace ctsim::serve

#endif  // CTSIM_SERVE_REQUEST_H
