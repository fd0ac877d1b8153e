// Tests of the benchmark itself: its output checks trip on corrupted
// results, its open-loop generator charges latency from the due time,
// and the metric names it prints are the ones BENCHMARK.json declares.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include "delaylib/analytic_model.h"
#include "perfbench.h"
#include "serve/json.h"

namespace {

using namespace perfbench;
using namespace std::chrono_literals;

const delaylib::AnalyticModel& analytic() {
    static const delaylib::AnalyticModel m(tek(), buflib());
    return m;
}

std::vector<ServeRequest> small_requests() {
    ServeMix mix;
    mix.block_min_sinks = 20;
    mix.block_max_sinks = 40;
    mix.block_min_span_um = 2000.0;
    mix.block_max_span_um = 3000.0;
    mix.ispd_per_20 = 0;
    return serve_requests(mix, 5, 3);
}

/// Serves `req` once through a real session on the analytic model.
std::string serve_once(const ServeRequest& req) {
    serve::ServeSession::Config cfg;
    cfg.workers = 1;
    cfg.model = &analytic();
    serve::ServeSession session(cfg);
    std::string response;
    session.handle_line(req.line(7), [&](const std::string& l) { response = l; });
    session.drain();
    return response;
}

/// Replaces the first digit after `"key":` with a different digit.
std::string corrupt(std::string response, const std::string& key) {
    std::size_t at = response.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key;
    at = response.find_first_of("0123456789", at + key.size() + 3);
    response[at] = response[at] == '9' ? '1' : static_cast<char>(response[at] + 1);
    return response;
}

TEST(Checks, CorruptedSynthesisResponseFails) {
    const ServeRequest req = small_requests()[2];
    ASSERT_FALSE(req.scenario);
    const std::string response = serve_once(req);
    const ServeExpect want = standalone(req, analytic());
    EXPECT_EQ(check_serve_response(response, req, want), "");
    for (const char* key : {"wirelength_um", "skew_ps", "buffers", "nodes"})
        EXPECT_NE(check_serve_response(corrupt(response, key), req, want), "") << key;

    std::string refused = response;
    refused.replace(refused.find("\"ok\":true"), 9, "\"ok\":false");
    EXPECT_NE(check_serve_response(refused, req, want), "");
    EXPECT_NE(check_serve_response("not json", req, want), "");
}

TEST(Checks, CorruptedScenarioResponseFails) {
    const ServeRequest req = small_requests()[0];
    ASSERT_TRUE(req.scenario);
    const std::string response = serve_once(req);
    const ServeExpect want = standalone(req, analytic());
    EXPECT_EQ(check_serve_response(response, req, want), "");
    EXPECT_NE(check_serve_response(corrupt(response, "yield_curve_skew_ps"), req, want), "");
}

TEST(Checks, TreeYieldAndSimulationMismatchesFail) {
    TreeSummary a;
    a.wirelength_um = 1000.0;
    a.buffers = 12;
    TreeSummary b = a;
    EXPECT_EQ(check_same_tree(a, b), "");
    b.buffers = 13;
    EXPECT_NE(check_same_tree(a, b), "");

    cts::ScenarioResult y;
    y.yield_curve_skew_ps = {1.0, 2.0, 3.0};
    cts::ScenarioResult z = y;
    EXPECT_EQ(check_same_yield(y, z), "");
    z.yield_curve_skew_ps[1] = 2.5;
    EXPECT_NE(check_same_yield(y, z), "");

    sim::NetlistSimReport rep;
    rep.complete = true;
    rep.skew_ps = 30.0;
    rep.worst_slew_ps = 90.0;
    EXPECT_EQ(check_simulation(rep, 100.0), "");
    rep.worst_slew_ps = 101.0;
    EXPECT_NE(check_simulation(rep, 100.0), "");
    rep.worst_slew_ps = 90.0;
    rep.complete = false;
    EXPECT_NE(check_simulation(rep, 100.0), "");
}

TEST(Checks, AFailedCheckMakesTheRunIncorrect) {
    Outcome o;
    o.check("");
    EXPECT_TRUE(o.correct());
    o.check("tree differs");
    EXPECT_FALSE(o.correct());
    EXPECT_EQ(o.attempted, 2);
    EXPECT_EQ(o.failed, 1);
    EXPECT_NE(o.json().find("\"correct\": false"), std::string::npos);
}

/// A one-worker stub server whose every request takes `service`.
class StubServer {
  public:
    explicit StubServer(std::chrono::milliseconds service)
        : service_(service), worker_([this] { loop(); }) {}
    ~StubServer() {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        worker_.join();
    }

    Submit submit() {
        return [this](std::size_t, const std::string& line,
                      std::function<void(const std::string&)> respond) {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.emplace_back(line, std::move(respond));
            cv_.notify_all();
        };
    }
    std::function<void()> wait_all() {
        return [this] {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return queue_.empty() && !busy_; });
        };
    }

  private:
    void loop() {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty()) return;
            auto [line, respond] = std::move(queue_.front());
            queue_.pop_front();
            busy_ = true;
            lock.unlock();
            std::this_thread::sleep_for(service_);
            respond("{\"ok\":true}");
            lock.lock();
            busy_ = false;
            cv_.notify_all();
        }
    }

    std::chrono::milliseconds service_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<std::string, std::function<void(const std::string&)>>> queue_;
    bool busy_{false};
    bool stop_{false};
    std::thread worker_;
};

TEST(OpenLoop, StalledServerLatencyGrowsFromDueTime) {
    // 100 requests/s offered to a server that needs 20 ms per request:
    // request i waits behind ~i/2 others, so its latency from the due
    // time grows by ~10 ms per request, although each one is sent on
    // time and served in 20 ms.
    StubServer server(20ms);
    const std::vector<std::string> lines(20, "{}");
    const OpenLoopLog log = run_open_loop(lines, 100.0, server.submit(), server.wait_all());
    const std::vector<double> lat = due_latencies_ms(log);
    ASSERT_EQ(lat.size(), 20u);
    EXPECT_GE(lat[0], 19.0);
    EXPECT_GE(lat[19], lat[0] + 150.0);
    for (std::size_t i = 5; i < lat.size(); i += 5) EXPECT_GT(lat[i], lat[i - 5] + 25.0) << i;
}

TEST(OpenLoop, GeneratorStallIsChargedToTheRequestsBehindIt) {
    // Admission of request 0 blocks for 200 ms. Requests 1..9 are due
    // every 10 ms meanwhile; measured from their due times they carry
    // the rest of the stall, where send-to-done timing would show ~0.
    const Submit submit = [](std::size_t i, const std::string&,
                             std::function<void(const std::string&)> respond) {
        if (i == 0) std::this_thread::sleep_for(200ms);
        respond("{\"ok\":true}");
    };
    const OpenLoopLog log = run_open_loop(std::vector<std::string>(10, "{}"), 100.0, submit, [] {});
    const std::vector<double> lat = due_latencies_ms(log);
    for (std::size_t i = 1; i < lat.size(); ++i) {
        EXPECT_GE(lat[i], 200.0 - 10.0 * static_cast<double>(i) - 5.0) << i;
        EXPECT_LT(1e3 * seconds_between(log.sent[i], log.done[i]), 20.0) << i;
    }
}

TEST(Tracer, SelfTimeExcludesChildren) {
    Tracer tr;
    {
        Tracer::Scope outer(tr, "outer");
        std::this_thread::sleep_for(20ms);
        Tracer::Scope inner(tr, "inner");
        std::this_thread::sleep_for(40ms);
    }
    const std::vector<double> outer = tr.self_times("outer");
    const std::vector<double> inner = tr.self_times("inner");
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_GE(inner[0], 0.039);
    EXPECT_GE(outer[0], 0.019);
    EXPECT_LT(outer[0], inner[0]);
}

std::vector<std::string> declared(const char* kind) {
    std::ifstream f(PERFBENCH_SPEC);
    std::stringstream text;
    text << f.rdbuf();
    const serve::Json spec = serve::Json::parse(text.str());
    std::vector<std::string> names;
    for (const serve::Json& m : spec.find(kind)->items())
        names.push_back(m.find("name")->as_string());
    return names;
}

TEST(Spec, PrintedMetricNamesMatchBenchmarkJson) {
    // The binary refuses to print a result whose metrics differ from
    // these lists (check_metric_names), so the lists are what it prints.
    EXPECT_EQ(end_to_end_metric_names(), declared("end_to_end"));
    EXPECT_EQ(per_layer_metric_names(), declared("per_layer"));
}

TEST(Spec, RenamedDroppedOrReorderedMetricIsRefused) {
    const std::vector<std::string> names = end_to_end_metric_names();
    Outcome o;
    for (const std::string& n : names) o.add(n, 1.0, "s");
    EXPECT_EQ(check_metric_names(o, names), "");

    Outcome renamed = o;
    renamed.metrics[3].name = "yield_ms";
    EXPECT_NE(check_metric_names(renamed, names), "");
    Outcome dropped = o;
    dropped.metrics.pop_back();
    EXPECT_NE(check_metric_names(dropped, names), "");
    Outcome swapped = o;
    std::swap(swapped.metrics[1], swapped.metrics[2]);
    EXPECT_NE(check_metric_names(swapped, names), "");
}

TEST(Spec, WorkloadsBuildTheirShapes) {
    for (const char* w : {"batch", "yield", "serve"}) {
        const Shape s = shape_of(w);
        EXPECT_EQ(s.name, w);
        EXPECT_GE(s.open_requests, 1000);
        EXPECT_LE(s.synth_share + s.yield_share, 1.0);
    }
    EXPECT_THROW(shape_of("nope"), std::invalid_argument);
}

}  // namespace
