// Unit tests for the serving protocol's JSON reader and request
// validation layer (src/serve/json.h, src/serve/request.h).
#include <gtest/gtest.h>

#include "serve/json.h"
#include "serve/request.h"
#include "util/status.h"

namespace ctsim {
namespace {

using serve::Json;
using serve::Request;
using serve::RequestType;
using serve::SinkSource;

// --- JSON reader -----------------------------------------------------------

TEST(ServeJsonTest, ParsesScalarsAndContainers) {
    const Json v = Json::parse(
        R"({"s":"a\tb","n":-1.5e2,"t":true,"f":false,"z":null,"a":[1,2,3]})");
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.find("s")->as_string(), "a\tb");
    EXPECT_DOUBLE_EQ(v.find("n")->as_number(), -150.0);
    EXPECT_TRUE(v.find("t")->as_bool());
    EXPECT_FALSE(v.find("f")->as_bool());
    EXPECT_TRUE(v.find("z")->is_null());
    ASSERT_EQ(v.find("a")->items().size(), 3u);
    EXPECT_DOUBLE_EQ(v.find("a")->items()[2].as_number(), 3.0);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJsonTest, UnicodeEscapesDecodeToUtf8) {
    const Json v = Json::parse(R"(["Aé€"])");
    EXPECT_EQ(v.items()[0].as_string(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(ServeJsonTest, SyntaxErrorsCarryColumnDiagnostics) {
    try {
        Json::parse(R"({"a": })");
        FAIL() << "expected util::Error";
    } catch (const util::Error& e) {
        EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input);
        EXPECT_EQ(e.status().column(), 7);
    }
}

TEST(ServeJsonTest, RejectsTrailingGarbageAndDeepNesting) {
    EXPECT_THROW(Json::parse("{} {}"), util::Error);
    EXPECT_THROW(Json::parse("1 2"), util::Error);
    // A hostile line of '[' must be a typed error, not a stack
    // overflow.
    EXPECT_THROW(Json::parse(std::string(10000, '[')), util::Error);
}

TEST(ServeJsonTest, NumberRoundTripIsExact) {
    // The bit-identical serving contract rides on this: a double
    // rendered by json_number and re-parsed compares EQUAL.
    for (const double d : {0.6041856874332197, 1332394.3751296662, 1e-300, -3.25}) {
        std::string text = "[";
        text += serve::json_number(d);
        text += "]";
        const Json v = Json::parse(text);
        EXPECT_EQ(v.items()[0].as_number(), d);
    }
}

// --- request validation ----------------------------------------------------

TEST(ServeRequestTest, ParsesFullSynthesizeRequest) {
    const Request req = serve::parse_request(
        R"({"id":"job-7","bench":"r1","options":{"rng_seed":3,"skew_refine":false},)"
        R"("deadline_ms":250,"memory_budget_mb":128})");
    EXPECT_EQ(req.id_json, "\"job-7\"");
    EXPECT_EQ(req.type, RequestType::synthesize);
    EXPECT_EQ(req.source, SinkSource::bench);
    EXPECT_EQ(req.bench_name, "r1");
    EXPECT_EQ(req.options.rng_seed, 3u);
    EXPECT_FALSE(req.options.skew_refine);
    EXPECT_DOUBLE_EQ(req.deadline_ms, 250.0);
    EXPECT_DOUBLE_EQ(req.memory_budget_mb, 128.0);
}

TEST(ServeRequestTest, InlineSinksBothShapes) {
    const Request req = serve::parse_request(
        R"({"sinks":[[10,20,12.5],{"x":30,"y":40,"cap_ff":9,"name":"s1"}]})");
    ASSERT_EQ(req.inline_sinks.size(), 2u);
    EXPECT_DOUBLE_EQ(req.inline_sinks[0].pos.x, 10.0);
    EXPECT_DOUBLE_EQ(req.inline_sinks[0].cap_ff, 12.5);
    EXPECT_EQ(req.inline_sinks[1].name, "s1");
    const auto sinks = serve::resolve_sinks(req);
    EXPECT_EQ(sinks.size(), 2u);
}

TEST(ServeRequestTest, SyntheticSource) {
    const Request req = serve::parse_request(
        R"({"synthetic":{"sinks":100,"span_um":5000,"seed":7}})");
    EXPECT_EQ(req.source, SinkSource::synthetic);
    const auto sinks = serve::resolve_sinks(req);
    EXPECT_EQ(sinks.size(), 100u);
}

TEST(ServeRequestTest, NumericIdEchoesAsNumber) {
    EXPECT_EQ(serve::parse_request(R"({"id":42,"bench":"r1"})").id_json, "42");
}

TEST(ServeRequestTest, StatsAndShutdownRejectSynthesisFields) {
    EXPECT_EQ(serve::parse_request(R"({"type":"stats"})").type, RequestType::stats);
    EXPECT_EQ(serve::parse_request(R"({"type":"shutdown","id":1})").type,
              RequestType::shutdown);
    EXPECT_THROW(serve::parse_request(R"({"type":"stats","bench":"r1"})"), util::Error);
}

/// `line` must fail with a typed invalid_input whose message contains
/// `want`.
void expect_invalid(const std::string& line, const std::string& want = "") {
    try {
        serve::parse_request(line);
        FAIL() << "expected invalid_input for: " << line;
    } catch (const util::Error& e) {
        EXPECT_EQ(e.status().code(), util::StatusCode::invalid_input) << line;
        EXPECT_NE(e.status().message().find(want), std::string::npos)
            << e.status().message();
    }
}

TEST(ServeRequestTest, TypedErrorsForBadRequests) {
    expect_invalid("[1,2,3]");                                  // not an object
    expect_invalid(R"({"type":"explode"})");                    // unknown type
    expect_invalid(R"({"bench":"r1","gsrc":"x.bst"})");         // two sources
    expect_invalid(R"({"options":{}})");                        // no source
    expect_invalid(R"({"bench":"r1","frobnicate":1})");         // unknown key
    expect_invalid(R"({"bench":"r1","options":{"slew_typo":1}})");  // unknown knob
    expect_invalid(R"({"bench":"r1","deadline_ms":-5})");       // negative
    expect_invalid(R"({"bench":"r1","options":{"hstructure":"diagonal"}})");
    expect_invalid(R"({"synthetic":{"span_um":100}})");         // missing count
    expect_invalid(R"({"sinks":[[1,2]]})");                     // short tuple
}

TEST(ServeRequestTest, SeedsMustBeExact32BitIntegers) {
    // A double-to-unsigned cast outside [0, 2^32) is UB, so the
    // parser must reject it as a typed error first.
    expect_invalid(R"({"bench":"r1","options":{"rng_seed":1e18}})");
    expect_invalid(R"({"bench":"r1","options":{"rng_seed":4294967296}})");
    expect_invalid(R"({"bench":"r1","options":{"rng_seed":1.5}})");
    expect_invalid(R"({"synthetic":{"sinks":10,"seed":1e18}})");
    EXPECT_EQ(serve::parse_request(
                  R"({"bench":"r1","options":{"rng_seed":4294967295}})")
                  .options.rng_seed,
              4294967295u);
}

TEST(ServeRequestTest, CountsMustBeIntegers) {
    // A fractional count is a client bug, not a request for the
    // truncated value: it gets the same typed error as
    // scenario.samples, naming the field.
    expect_invalid(R"({"synthetic":{"sinks":2.5}})", "synthetic.sinks");
    expect_invalid(R"({"synthetic":{"sinks":100.000001}})", "synthetic.sinks");
    expect_invalid(R"({"bench":"r1","options":{"grid_cells_per_dim":45.5}})",
                   "options.grid_cells_per_dim");
    expect_invalid(R"({"bench":"r1","options":{"grid_cells_per_dim":3}})",
                   "options.grid_cells_per_dim");
    // Integral values written as decimals are still integers.
    EXPECT_EQ(serve::parse_request(R"({"synthetic":{"sinks":100.0}})").synthetic_sinks,
              100);
    EXPECT_EQ(
        serve::parse_request(R"({"bench":"r1","options":{"grid_cells_per_dim":4e1}})")
            .options.grid_cells_per_dim,
        40);
}

TEST(ServeRequestTest, NumThreadsIsNotATenantKnob) {
    // The pool owns parallelism; a tenant asking for threads must get
    // a typed error, not silent acceptance.
    expect_invalid(R"({"bench":"r1","options":{"num_threads":8}})");
}

TEST(ServeRequestTest, RemovedKnobsGetTheTypedUnknownKeyErrors) {
    // The slew quantum, the pareto sweep and wire reclamation were
    // removed from the wire without a compat shim: old clients get the
    // same typed invalid_input as any other unknown key or mode.
    expect_invalid(R"({"bench":"r1","options":{"timing_slew_quantum_ps":0.25}})",
                   "unknown options key \"timing_slew_quantum_ps\"");
    expect_invalid(R"({"bench":"r1","options":{"wire_reclaim":false}})",
                   "unknown options key \"wire_reclaim\"");
    const std::string head =
        R"({"type":"scenario","schema_version":2,"synthetic":{"sinks":20},"scenario":)";
    expect_invalid(head + R"({"mode":"pareto_sweep"}})", "scenario.mode must be");
    expect_invalid(head + R"({"mode":"nominal","pareto_tols":[0.5]}})",
                   "unknown scenario key \"pareto_tols\"");
}

TEST(ServeRequestTest, SchemaVersioning) {
    // Absent means version 1; declared 1 and 2 are accepted verbatim.
    EXPECT_EQ(serve::parse_request(R"({"bench":"r1"})").schema_version, 1);
    EXPECT_EQ(serve::parse_request(R"({"bench":"r1","schema_version":1})")
                  .schema_version,
              1);
    EXPECT_EQ(serve::parse_request(R"({"bench":"r1","schema_version":2})")
                  .schema_version,
              2);
    // stats/shutdown accept the key too.
    EXPECT_EQ(serve::parse_request(R"({"type":"stats","schema_version":2})")
                  .schema_version,
              2);

    // Above the ceiling, non-integer, or below the floor: typed
    // invalid_input, never silent half-service.
    expect_invalid(R"({"bench":"r1","schema_version":3})");
    expect_invalid(R"({"bench":"r1","schema_version":1.5})");
    expect_invalid(R"({"bench":"r1","schema_version":"two"})");
    expect_invalid(R"({"bench":"r1","schema_version":0})");
}

TEST(ServeRequestTest, ScenarioRequestsRequireVersionTwo) {
    const std::string body =
        R"(,"synthetic":{"sinks":20},"scenario":{"mode":"nominal"}})";
    // Declared v2 parses.
    const Request req =
        serve::parse_request(R"({"type":"scenario","schema_version":2)" + body);
    EXPECT_EQ(req.type, serve::RequestType::scenario);
    EXPECT_EQ(req.scenario.mode, cts::ScenarioMode::nominal);
    // Undeclared (=1) or explicit v1: the feature is versioned.
    expect_invalid(R"({"type":"scenario")" + body);
    expect_invalid(R"({"type":"scenario","schema_version":1)" + body);
    // A scenario request must carry the scenario object, and the
    // object is only valid on a scenario request.
    expect_invalid(R"({"type":"scenario","schema_version":2,)"
                   R"("synthetic":{"sinks":20}})");
    expect_invalid(R"({"schema_version":2,"synthetic":{"sinks":20},)"
                   R"("scenario":{"mode":"nominal"}})");
}

TEST(ServeRequestTest, UnknownBenchAndMissingFileFailTyped) {
    const Request req = serve::parse_request(R"({"bench":"no_such_instance"})");
    EXPECT_THROW(serve::resolve_sinks(req), util::Error);
    const Request freq =
        serve::parse_request(R"({"gsrc":"/nonexistent/instance.bst"})");
    EXPECT_THROW(serve::resolve_sinks(freq), util::Error);
}

}  // namespace
}  // namespace ctsim
