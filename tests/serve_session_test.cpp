// ServeSession behavior: concurrent mixed batches bit-identical to
// standalone synthesis, malformed-line survival, deterministic
// saturation rejection, deadline degradation, and stats accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_io/synthetic.h"
#include "cts_test_util.h"
#include "serve/json.h"
#include "serve/session.h"

namespace ctsim {
namespace {

using serve::Json;
using serve::ServeSession;

/// Thread-safe response collector (workers emit concurrently).
class Capture {
  public:
    ServeSession::Emit emit() {
        return [this](const std::string& line) {
            std::lock_guard<std::mutex> lock(mu_);
            lines_.push_back(line);
        };
    }

    std::vector<Json> parsed() const {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Json> out;
        out.reserve(lines_.size());
        for (const std::string& l : lines_) out.push_back(Json::parse(l));
        return out;
    }

    std::size_t count() const {
        std::lock_guard<std::mutex> lock(mu_);
        return lines_.size();
    }

  private:
    mutable std::mutex mu_;
    std::vector<std::string> lines_;
};

const Json* find_by_id(const std::vector<Json>& responses, double id) {
    for (const Json& r : responses) {
        const Json* rid = r.find("id");
        if (rid && rid->is_number() && rid->as_number() == id) return &r;
    }
    return nullptr;
}

ServeSession::Config quick_config(int workers) {
    ServeSession::Config cfg;
    cfg.workers = workers;
    cfg.model = &testutil::fitted_quick();
    return cfg;
}

TEST(ServeSessionTest, ConcurrentMixedBatchBitIdenticalToStandalone) {
    constexpr int kRequests = 24;  // >= 20 per the serving contract
    ServeSession session(quick_config(4));
    Capture cap;

    struct Mix {
        int sinks;
        double span_um;
        unsigned seed;
        bool skew_refine;
    };
    std::vector<Mix> mixes;
    for (int i = 0; i < kRequests; ++i)
        mixes.push_back({40 + (i % 5) * 30, 4000.0 + 500.0 * (i % 4),
                         static_cast<unsigned>(i + 1), (i % 2) == 0});

    for (int i = 0; i < kRequests; ++i) {
        const Mix& m = mixes[static_cast<std::size_t>(i)];
        const std::string line =
            "{\"id\":" + std::to_string(i) + ",\"synthetic\":{\"sinks\":" +
            std::to_string(m.sinks) + ",\"span_um\":" + serve::json_number(m.span_um) +
            ",\"seed\":" + std::to_string(m.seed) + "},\"options\":{\"skew_refine\":" +
            (m.skew_refine ? "true" : "false") + "}}";
        EXPECT_TRUE(session.handle_line(line, cap.emit()));
    }
    session.drain();
    ASSERT_EQ(cap.count(), static_cast<std::size_t>(kRequests));

    const std::vector<Json> responses = cap.parsed();
    for (int i = 0; i < kRequests; ++i) {
        const Mix& m = mixes[static_cast<std::size_t>(i)];
        const Json* r = find_by_id(responses, i);
        ASSERT_NE(r, nullptr) << "no response for id " << i;
        ASSERT_TRUE(r->find("ok")->as_bool()) << "request " << i << " failed";

        // Standalone reference run with the session's exact option
        // shape: one thread, a metering-only budget, no deadline.
        bench_io::BenchmarkSpec spec;
        spec.name = "synthetic";  // what resolve_sinks names generated instances
        spec.sink_count = m.sinks;
        spec.die_span_um = m.span_um;
        spec.seed = m.seed;
        const auto sinks = bench_io::generate(spec);
        cts::SynthesisOptions opt;
        opt.skew_refine = m.skew_refine;
        opt.num_threads = 1;
        util::MemoryBudget budget(0);
        opt.memory_budget = &budget;
        const cts::SynthesisResult want =
            cts::synthesize(sinks, testutil::fitted_quick(), opt);

        const Json* res = r->find("result");
        ASSERT_NE(res, nullptr);
        EXPECT_EQ(res->find("skew_ps")->as_number(),
                  want.root_timing.max_ps - want.root_timing.min_ps)
            << "request " << i;
        EXPECT_EQ(res->find("wirelength_um")->as_number(), want.wire_length_um)
            << "request " << i;
        EXPECT_EQ(static_cast<int>(res->find("nodes")->as_number()), want.tree.size());
        EXPECT_EQ(static_cast<int>(res->find("buffers")->as_number()),
                  want.buffer_count);
        EXPECT_EQ(static_cast<int>(res->find("levels")->as_number()), want.levels);

        // Per-request profile must be the REQUEST's own, not a smear
        // of whatever the other workers were doing: its counters equal
        // the standalone run's exactly while three other tenants run.
        const Json* prof = r->find("profile");
        ASSERT_NE(prof, nullptr);
        EXPECT_EQ(prof->find("maze_calls")->as_number(),
                  static_cast<double>(want.profile.maze_calls))
            << i;
    }

    const serve::StatsSnapshot s = session.stats();
    EXPECT_EQ(s.received, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.admitted, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.served_ok, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_GT(s.p50_ms, 0.0);
    EXPECT_GE(s.p99_ms, s.p50_ms);
    EXPECT_GT(s.peak_rss_mb, 0.0);
}

TEST(ServeSessionTest, MalformedLinesGetTypedErrorsAndSessionSurvives) {
    ServeSession session(quick_config(1));
    Capture cap;

    EXPECT_TRUE(session.handle_line("this is not json", cap.emit()));
    EXPECT_TRUE(session.handle_line(R"({"bench":})", cap.emit()));
    EXPECT_TRUE(session.handle_line(R"({"id":9,"bench":"r1","bogus_key":1})",
                                    cap.emit()));
    ASSERT_EQ(cap.count(), 3u);
    for (const Json& r : cap.parsed()) {
        EXPECT_FALSE(r.find("ok")->as_bool());
        EXPECT_EQ(r.find("error")->find("code")->as_string(), "invalid_input");
    }

    // The connection survives: a valid request after garbage serves.
    EXPECT_TRUE(session.handle_line(
        R"({"id":10,"synthetic":{"sinks":40,"span_um":3000,"seed":1}})", cap.emit()));
    session.drain();
    const std::vector<Json> all = cap.parsed();
    const Json* ok = find_by_id(all, 10);
    ASSERT_NE(ok, nullptr);
    EXPECT_TRUE(ok->find("ok")->as_bool());

    const serve::StatsSnapshot s = session.stats();
    EXPECT_EQ(s.malformed, 3u);  // every rejected line, syntax or schema
    EXPECT_EQ(s.served_ok, 1u);
}

TEST(ServeSessionTest, QueueSaturationRejectsDeterministically) {
    std::atomic<bool> go{false};
    std::atomic<int> started{0};
    ServeSession::Config cfg = quick_config(1);
    cfg.queue_capacity = 1;
    cfg.before_request = [&] {
        started.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
    };
    ServeSession session(cfg);
    Capture cap;

    const std::string req =
        R"({"id":%,"synthetic":{"sinks":40,"span_um":3000,"seed":1}})";
    const auto line = [&](int id) {
        std::string l = req;
        l.replace(l.find('%'), 1, std::to_string(id));
        return l;
    };

    // #1 admitted; wait until the (held) worker owns it so the queue
    // is empty again -- makes the fill below deterministic.
    EXPECT_TRUE(session.handle_line(line(1), cap.emit()));
    while (started.load() == 0) std::this_thread::yield();
    // #2 fills the queue (capacity 1); #3 must be REJECTED, typed.
    EXPECT_TRUE(session.handle_line(line(2), cap.emit()));
    EXPECT_TRUE(session.handle_line(line(3), cap.emit()));

    ASSERT_EQ(cap.count(), 1u);  // only the rejection emitted so far
    {
        const std::vector<Json> r = cap.parsed();
        EXPECT_EQ(r[0].find("id")->as_number(), 3.0);
        EXPECT_FALSE(r[0].find("ok")->as_bool());
        EXPECT_EQ(r[0].find("error")->find("code")->as_string(),
                  "resource_exhaustion");
    }

    go.store(true);
    session.drain();
    const std::vector<Json> all = cap.parsed();
    EXPECT_TRUE(find_by_id(all, 1)->find("ok")->as_bool());
    EXPECT_TRUE(find_by_id(all, 2)->find("ok")->as_bool());
    const serve::StatsSnapshot s = session.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.served_ok, 2u);
}

TEST(ServeSessionTest, AdmissionBudgetRejectsWhenTokensExhaust) {
    std::atomic<bool> go{false};
    ServeSession::Config cfg = quick_config(2);
    cfg.memory_budget_mb = 100.0;
    cfg.request_token_mb = 80.0;  // one token fits, two do not
    cfg.before_request = [&] {
        while (!go.load()) std::this_thread::yield();
    };
    ServeSession session(cfg);
    Capture cap;

    EXPECT_TRUE(session.handle_line(
        R"({"id":1,"synthetic":{"sinks":40,"span_um":3000,"seed":1}})", cap.emit()));
    // Token charge happens at ADMISSION (handle_line, this thread), so
    // the second rejection is deterministic while #1 is in flight.
    EXPECT_TRUE(session.handle_line(
        R"({"id":2,"synthetic":{"sinks":40,"span_um":3000,"seed":2}})", cap.emit()));
    {
        ASSERT_EQ(cap.count(), 1u);
        const std::vector<Json> r = cap.parsed();
        EXPECT_EQ(r[0].find("id")->as_number(), 2.0);
        EXPECT_EQ(r[0].find("error")->find("code")->as_string(),
                  "resource_exhaustion");
    }
    go.store(true);
    session.drain();
    // The token came back on completion: the next request admits.
    EXPECT_TRUE(session.handle_line(
        R"({"id":3,"synthetic":{"sinks":40,"span_um":3000,"seed":3}})", cap.emit()));
    session.drain();
    EXPECT_TRUE(find_by_id(cap.parsed(), 3)->find("ok")->as_bool());
}

TEST(ServeSessionTest, DeadlineCutDegradesButStillServes) {
    ServeSession session(quick_config(1));
    Capture cap;
    // 600 sinks cannot finish in 1 ms; the response must still be a
    // valid tree with the degradation recorded -- the per-request
    // deadline trades optimality, never validity.
    EXPECT_TRUE(session.handle_line(
        R"({"id":1,"synthetic":{"sinks":600,"span_um":20000,"seed":4},"deadline_ms":1})",
        cap.emit()));
    session.drain();
    const std::vector<Json> r = cap.parsed();
    ASSERT_EQ(r.size(), 1u);
    ASSERT_TRUE(r[0].find("ok")->as_bool());
    EXPECT_GT(r[0].find("result")->find("nodes")->as_number(), 600.0);
    const Json* diag = r[0].find("diagnostics");
    ASSERT_NE(diag, nullptr);
    EXPECT_TRUE(diag->find("deadline_hit")->as_bool());
    EXPECT_NE(diag->find("degraded_at")->as_string(), "none");
    EXPECT_EQ(session.stats().degraded, 1u);
}

TEST(ServeSessionTest, StatsAndShutdownRequests) {
    ServeSession session(quick_config(1));
    Capture cap;
    EXPECT_TRUE(session.handle_line(
        R"({"id":1,"synthetic":{"sinks":40,"span_um":3000,"seed":1}})", cap.emit()));
    EXPECT_TRUE(session.handle_line(R"({"id":2,"type":"stats"})", cap.emit()));
    // Shutdown drains in-flight work, reports, and returns false.
    EXPECT_FALSE(session.handle_line(R"({"id":3,"type":"shutdown"})", cap.emit()));

    const std::vector<Json> all = cap.parsed();
    const Json* stats = find_by_id(all, 2);
    ASSERT_NE(stats, nullptr);
    EXPECT_TRUE(stats->find("ok")->as_bool());
    ASSERT_NE(stats->find("stats"), nullptr);
    const Json* bye = find_by_id(all, 3);
    ASSERT_NE(bye, nullptr);
    EXPECT_TRUE(bye->find("shutdown")->as_bool());
    const Json* served = bye->find("stats")->find("served_ok");
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->as_number(), 1.0);  // shutdown drained #1 first
}

TEST(ServeSessionTest, PerRequestMemoryBudgetDegradesOnlyThatTenant) {
    ServeSession session(quick_config(2));
    Capture cap;
    const std::string instance = R"("synthetic":{"sinks":200,"span_um":12000,"seed":5})";

    // First, an unconstrained run of the instance: its diagnostics
    // report the measured peak (limit-0 budgets still meter).
    EXPECT_TRUE(session.handle_line("{\"id\":1," + instance + "}", cap.emit()));
    session.drain();
    const std::vector<Json> first = cap.parsed();
    const Json* meter = find_by_id(first, 1);
    ASSERT_NE(meter, nullptr);
    ASSERT_TRUE(meter->find("ok")->as_bool());
    EXPECT_EQ(meter->find("diagnostics")->find("memory_rung")->as_string(), "none");
    const double peak_mb =
        meter->find("diagnostics")->find("memory_peak_mb")->as_number();
    ASSERT_GT(peak_mb, 0.0);

    // A starved tenant (60% of its own peak) next to an unconstrained
    // one: the starved run walks the degradation ladder (the cap is
    // below the measured demand, so SOME reservation is refused) or
    // fails typed; the neighbor is untouched -- budgets are
    // per-request, not cross-tenant.
    EXPECT_TRUE(session.handle_line("{\"id\":2," + instance +
                                        ",\"memory_budget_mb\":" +
                                        serve::json_number(peak_mb * 0.6) + "}",
                                    cap.emit()));
    EXPECT_TRUE(session.handle_line("{\"id\":3," + instance + "}", cap.emit()));
    session.drain();
    const std::vector<Json> all = cap.parsed();
    const Json* starved = find_by_id(all, 2);
    const Json* free_run = find_by_id(all, 3);
    ASSERT_NE(starved, nullptr);
    ASSERT_NE(free_run, nullptr);
    ASSERT_TRUE(free_run->find("ok")->as_bool());
    EXPECT_EQ(free_run->find("diagnostics")->find("memory_rung")->as_string(), "none");
    if (starved->find("ok")->as_bool()) {
        EXPECT_NE(starved->find("diagnostics")->find("memory_rung")->as_string(),
                  "none")
            << "a cap below the measured peak must climb the ladder";
    } else {
        EXPECT_EQ(starved->find("error")->find("code")->as_string(),
                  "resource_exhaustion");
    }
}

TEST(ServeSessionTest, MixedSynthAndScenarioTenantsOverVersionedWire) {
    ServeSession session(quick_config(2));
    Capture cap;

    // One scenario tenant (v2 wire) between two synthesis tenants
    // (undeclared = v1): the pool serves both families concurrently.
    const std::string synth =
        R"({"id":%,"synthetic":{"sinks":40,"span_um":3000,"seed":2}})";
    const auto synth_line = [&](int id) {
        std::string l = synth;
        l.replace(l.find('%'), 1, std::to_string(id));
        return l;
    };
    const std::string scenario_line =
        R"({"id":10,"type":"scenario","schema_version":2,)"
        R"("synthetic":{"sinks":50,"span_um":4000,"seed":3},)"
        R"("scenario":{"mode":"monte_carlo","samples":8,"seed":5}})";

    EXPECT_TRUE(session.handle_line(synth_line(1), cap.emit()));
    EXPECT_TRUE(session.handle_line(scenario_line, cap.emit()));
    EXPECT_TRUE(session.handle_line(synth_line(2), cap.emit()));
    session.drain();
    ASSERT_EQ(cap.count(), 3u);

    const std::vector<Json> responses = cap.parsed();
    for (const double id : {1.0, 2.0}) {
        const Json* r = find_by_id(responses, id);
        ASSERT_NE(r, nullptr);
        EXPECT_TRUE(r->find("ok")->as_bool());
        EXPECT_EQ(r->find("schema_version")->as_number(), 1.0);  // undeclared
    }

    const Json* sr = find_by_id(responses, 10.0);
    ASSERT_NE(sr, nullptr);
    ASSERT_TRUE(sr->find("ok")->as_bool());
    EXPECT_EQ(sr->find("schema_version")->as_number(), 2.0);

    // The served yield must be BIT-IDENTICAL to a standalone
    // run_scenario of the same spec under the session's option shape
    // (one thread, metering-only budget); json_number round-trips
    // doubles exactly, so EXPECT_EQ on the parsed values is exact.
    bench_io::BenchmarkSpec bspec;
    bspec.name = "synthetic";
    bspec.sink_count = 50;
    bspec.die_span_um = 4000.0;
    bspec.seed = 3;
    const auto sinks = bench_io::generate(bspec);
    cts::SynthesisOptions opt;
    opt.num_threads = 1;
    util::MemoryBudget budget(0);
    opt.memory_budget = &budget;
    cts::ScenarioSpec spec;
    spec.mode = cts::ScenarioMode::monte_carlo;
    spec.samples = 8;
    spec.variation.seed = 5;
    spec.num_threads = 1;
    const cts::ScenarioResult want =
        cts::run_scenario(sinks, testutil::fitted_quick(), opt, spec);

    const Json* sc = sr->find("scenario");
    ASSERT_NE(sc, nullptr);
    EXPECT_EQ(sc->find("mode")->as_string(), "monte_carlo");
    EXPECT_EQ(sc->find("yield_at_target")->as_number(), want.yield_at_target);
    EXPECT_EQ(sc->find("nominal")->find("skew_ps")->as_number(),
              want.nominal_skew_ps);
    const Json* curve = sc->find("yield_curve_skew_ps");
    ASSERT_NE(curve, nullptr);
    ASSERT_TRUE(curve->is_array());
    ASSERT_EQ(curve->items().size(), want.yield_curve_skew_ps.size());
    for (std::size_t i = 0; i < want.yield_curve_skew_ps.size(); ++i)
        EXPECT_EQ(curve->items()[i].as_number(), want.yield_curve_skew_ps[i]) << i;
    ASSERT_EQ(sc->find("samples")->items().size(), 8u);

    // Per-type accounting: the aggregates still see all three
    // requests, and the split attributes them to the right family.
    const serve::StatsSnapshot s = session.stats();
    EXPECT_EQ(s.received, 3u);
    EXPECT_EQ(s.served_ok, 3u);
    const serve::TypeCounters& ts =
        s.by_type[static_cast<int>(serve::ReqKind::synthesize)];
    const serve::TypeCounters& tc =
        s.by_type[static_cast<int>(serve::ReqKind::scenario)];
    EXPECT_EQ(ts.received, 2u);
    EXPECT_EQ(ts.admitted, 2u);
    EXPECT_EQ(ts.served_ok, 2u);
    EXPECT_EQ(tc.received, 1u);
    EXPECT_EQ(tc.admitted, 1u);
    EXPECT_EQ(tc.served_ok, 1u);
    EXPECT_EQ(tc.failed, 0u);
}

}  // namespace
}  // namespace ctsim
