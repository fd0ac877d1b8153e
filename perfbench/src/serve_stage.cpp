// The serving path: request mixes, the open-loop generator, and one
// timed pass over an in-process ServeSession (open loop, then bursts
// the size of the queue), checked against standalone runs afterwards.
#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include "perfbench.h"
#include "serve/json.h"
#include "serve/session.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

std::string sinks_json(const std::vector<cts::SinkSpec>& sinks) {
    std::string out = "[";
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        if (i) out += ',';
        out += '[' + serve::json_number(sinks[i].pos.x) + ',' +
               serve::json_number(sinks[i].pos.y) + ',' + serve::json_number(sinks[i].cap_ff) +
               ']';
    }
    return out + ']';
}

std::vector<cts::SinkSpec> random_net(std::mt19937_64& rng, int count, double span_um,
                                      double cap_min_ff, double cap_max_ff) {
    std::uniform_real_distribution<double> coord(0.0, span_um);
    std::uniform_real_distribution<double> cap(cap_min_ff, cap_max_ff);
    std::vector<cts::SinkSpec> sinks(static_cast<std::size_t>(count));
    for (cts::SinkSpec& s : sinks) {
        s.pos = {coord(rng), coord(rng)};
        s.cap_ff = cap(rng);
    }
    return sinks;
}

/// Draws in [0, 1) from a golden-ratio (or other irrational-step)
/// sequence rotated by a seeded offset. Any n consecutive draws cover
/// [0, 1) almost evenly, so every seed sends the same spread of sizes
/// and only their order and the geometry change. Service-time tails
/// then differ across seeds by geometry, not by which seed drew the
/// largest nets.
class Stratified {
  public:
    Stratified(std::mt19937_64& rng, double step)
        : offset_(std::uniform_real_distribution<double>(0.0, 1.0)(rng)), step_(step) {}

    double next() { return std::fmod(offset_ + step_ * static_cast<double>(j_++), 1.0); }
    int next_int(int lo, int hi) {
        return std::min(hi, lo + static_cast<int>(next() * static_cast<double>(hi - lo + 1)));
    }
    double next_real(double lo, double hi) { return lo + next() * (hi - lo); }

  private:
    double offset_;
    double step_;
    long j_{0};
};

constexpr double kGolden = 0.6180339887498949;
constexpr double kSilver = 0.41421356237309503;

}  // namespace

std::vector<ServeRequest> serve_requests(const ServeMix& mix, unsigned seed, int count) {
    std::mt19937_64 rng(0x5e7e0000ULL ^ (static_cast<std::uint64_t>(seed) << 20));
    Stratified block_sinks(rng, kGolden);
    Stratified block_span(rng, kSilver);
    Stratified ispd_sinks(rng, kGolden);
    Stratified ispd_span(rng, kSilver);
    std::vector<ServeRequest> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        // Request classes follow a fixed 20-slot pattern, so every seed
        // sends the same share of each class.
        const int slot = k % 20;
        ServeRequest req;
        req.scenario = slot == 0 || slot == 10;
        const bool ispd = (mix.ispd_per_20 >= 1 && slot == 5) ||
                          (mix.ispd_per_20 >= 3 && (slot == 13 || slot == 17));
        if (ispd) {
            const int n = ispd_sinks.next_int(91, 330);
            const double span = ispd_span.next_real(40000.0, 105000.0);
            req.sinks = random_net(rng, n, span, 10.0, 50.0);
        } else {
            const int n = block_sinks.next_int(mix.block_min_sinks, mix.block_max_sinks);
            const double span = block_span.next_real(mix.block_min_span_um, mix.block_max_span_um);
            req.sinks = random_net(rng, n, span, 8.0, 35.0);
        }

        std::string options;
        if (!req.scenario && slot % 5 == 1) {
            req.options.skew_refine = false;
            options = "\"skew_refine\":false";
        }
        if (slot % 5 == 3) {
            req.options.slew_target_ps = slot % 10 == 3 ? 70.0 : 90.0;
            options = "\"slew_target_ps\":" + serve::json_number(req.options.slew_target_ps);
        }

        std::string body;
        if (req.scenario) {
            req.spec.mode = cts::ScenarioMode::corners;
            req.spec.variation.seed = seed + static_cast<unsigned>(k);
            body += ",\"type\":\"scenario\",\"schema_version\":2,\"scenario\":{\"mode\":"
                    "\"corners\",\"seed\":" +
                    std::to_string(req.spec.variation.seed) + "}";
        }
        if (!options.empty()) body += ",\"options\":{" + options + "}";
        body += ",\"sinks\":" + sinks_json(req.sinks) + "}";
        req.body = std::move(body);
        out.push_back(std::move(req));
    }
    return out;
}

OpenLoopLog run_open_loop(const std::vector<std::string>& lines, double rate_per_s,
                          const Submit& submit, const std::function<void()>& wait_all) {
    const std::size_t n = lines.size();
    OpenLoopLog log;
    log.due.resize(n);
    log.sent.resize(n);
    log.done.resize(n);
    log.submit_us.resize(n);
    log.responses.resize(n);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        const Clock::time_point due =
            rate_per_s > 0.0
                ? start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(static_cast<double>(i) / rate_per_s))
                : start;
        std::this_thread::sleep_until(due);
        log.due[i] = due;
        log.sent[i] = Clock::now();
        submit(i, lines[i], [&log, i](const std::string& response) {
            log.done[i] = Clock::now();
            log.responses[i] = response;
        });
        log.submit_us[i] = 1e6 * seconds_since(log.sent[i]);
    }
    wait_all();
    return log;
}

std::vector<double> due_latencies_ms(const OpenLoopLog& log) {
    std::vector<double> out(log.due.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = 1e3 * seconds_between(log.due[i], log.done[i]);
    return out;
}

namespace {

double field(const std::string& response, const char* key) {
    try {
        const serve::Json r = serve::Json::parse(response);
        const serve::Json* v = r.find(key);
        return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
    } catch (const std::exception&) {
        return std::nan("");
    }
}

bool is_ok(const std::string& response) {
    return response.find("\"ok\":true") != std::string::npos;
}

bool is_rejection(const std::string& response) {
    return response.find("\"resource_exhaustion\"") != std::string::npos;
}

}  // namespace

ServeStage run_serve_stage(serve::ServeSession& session, const Shape& shape, unsigned seed,
                           double rate_per_s, Outcome& outcome, Tracer* tracer,
                           const std::function<void(int)>& between) {
    ServeStage out;
    const int open_n = shape.open_requests;
    const int total = open_n + kServeBursts * kServeQueue;
    // Send i carries distinct request i % D: the 20-slot class pattern
    // holds in every stretch of the stream, and each repeat of a
    // request is D sends after the last one.
    const int distinct = (total + 20 * shape.repeats - 1) / (20 * shape.repeats) * 20;
    const std::vector<ServeRequest> reqs = serve_requests(shape.mix, seed, distinct);
    const auto req_of = [&](long i) -> const ServeRequest& {
        return reqs[static_cast<std::size_t>(i % distinct)];
    };
    const auto lines = [&](int first, int n) {
        std::vector<std::string> v;
        v.reserve(static_cast<std::size_t>(n));
        for (int i = first; i < first + n; ++i) v.push_back(req_of(i).line(i));
        return v;
    };
    const Submit submit = [&session](std::size_t, const std::string& line,
                                     std::function<void(const std::string&)> respond) {
        session.handle_line(line, [respond](const std::string& l) { respond(l); });
    };
    const auto drain = [&session] { session.drain(); };

    // The open loop runs in kServeParts parts with the workload's other
    // stages between them, so the requests sample the host across the
    // whole run. The percentiles pool every open-loop request of every
    // part. Open-loop latency counts every request: a failed or refused
    // one enters as infinitely late.
    struct Part {
        int first;
        OpenLoopLog log;
    };
    std::vector<Part> parts;
    std::vector<double> latency_ms;
    for (int k = 0; k < kServeParts; ++k) {
        const int first = open_n * k / kServeParts;
        const int n = open_n * (k + 1) / kServeParts - first;
        parts.push_back({first, run_open_loop(lines(first, n), rate_per_s, submit, drain)});
        const OpenLoopLog& log = parts.back().log;
        const std::vector<double> lat = due_latencies_ms(log);
        for (std::size_t i = 0; i < lat.size(); ++i) {
            latency_ms.push_back(is_ok(log.responses[i]) ? lat[i]
                                                         : std::numeric_limits<double>::infinity());
            out.max_late_ms =
                std::max(out.max_late_ms, 1e3 * seconds_between(log.due[i], log.sent[i]));
        }
        out.admit_us.insert(out.admit_us.end(), log.submit_us.begin(), log.submit_us.end());
        if (k + 1 < kServeParts && between) between(k);
    }
    out.p50_ms = percentile(latency_ms, 50.0);
    out.p99_ms = percentile(latency_ms, 99.0);

    // Back-to-back bursts; like every other time here, the rate is the
    // best one, the burst least disturbed by other tenants.
    for (int b = 0; b < kServeBursts; ++b) {
        const int first = open_n + b * kServeQueue;
        const OpenLoopLog flood = run_open_loop(lines(first, kServeQueue), 0.0, submit, drain);
        int burst_ok = 0;
        Clock::time_point last = flood.sent.front();
        for (std::size_t i = 0; i < flood.done.size(); ++i) {
            if (is_ok(flood.responses[i])) ++burst_ok;
            last = std::max(last, flood.done[i]);
        }
        const double burst_s = seconds_between(flood.sent.front(), last);
        if (burst_s > 0.0) out.rps = std::max(out.rps, burst_ok / burst_s);
        parts.push_back({first, flood});
    }
    out.peak_rss_mb = peak_rss_mb();

    // Per-request queue wait and service time, as the session reports
    // them; the traced run turns them into spans.
    for (const Part& part : parts) {
        const bool open_loop = part.first < open_n;
        for (std::size_t i = 0; i < part.log.responses.size(); ++i) {
            const std::string& resp = part.log.responses[i];
            const long id = part.first + static_cast<long>(i);
            if (is_rejection(resp)) ++out.rejected;
            if (!is_ok(resp)) {
                ++out.failed;
                continue;
            }
            const double queue_ms = field(resp, "queue_ms");
            const double latency_ms = field(resp, "latency_ms");
            const double service_ms = latency_ms - queue_ms;
            const bool scenario = req_of(id).scenario;
            if (open_loop) {
                out.queue_ms.push_back(queue_ms);
                out.service_ms.push_back(service_ms);
                (scenario ? out.service_scenario_ms : out.service_synth_ms).push_back(service_ms);
            }
            if (tracer != nullptr) {
                const auto ms = [](double v) {
                    return std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(v));
                };
                const Clock::time_point end = part.log.done[i];
                const Clock::time_point begin = end - ms(latency_ms);
                tracer->add("serve.request", part.log.due[i], end, -1, id, 1);
                tracer->add("serve.session.queue", begin, begin + ms(queue_ms), -1, id, 2);
                tracer->add(scenario ? "serve.session.service.scenario"
                                     : "serve.session.service.synthesize",
                            begin + ms(queue_ms), end, -1, id, 3);
            }
        }
    }

    // Correctness, after the timed phase: every response must be ok and
    // bit-equal to a standalone run of its request.
    std::vector<ServeExpect> want(reqs.size());
    {
        util::ThreadPool pool(nproc());
        pool.parallel_for(distinct, [&](int d) {
            want[static_cast<std::size_t>(d)] = standalone(reqs[static_cast<std::size_t>(d)],
                                                           session.model());
        });
    }
    for (const Part& part : parts)
        for (std::size_t i = 0; i < part.log.responses.size(); ++i) {
            const long id = part.first + static_cast<long>(i);
            outcome.check(check_serve_response(part.log.responses[i], req_of(id),
                                               want[static_cast<std::size_t>(id % distinct)]));
        }
    return out;
}

}  // namespace perfbench
