#include "serve/session.h"

#include <cmath>

#include "cts/scenario.h"
#include "cts/synthesizer.h"
#include "tech/buffer_lib.h"
#include "tech/technology.h"
#include "util/thread_pool.h"

namespace ctsim::serve {

namespace {

constexpr std::uint64_t kMiB = 1024ull * 1024ull;

// The shared technology / buffer library the daemon serves with. The
// delay model only observes these, so they must outlive every session.
const tech::Technology& serving_tech() {
    static tech::Technology t = tech::Technology::ptm45_aggressive();
    return t;
}

const tech::BufferLibrary& serving_buflib() {
    static tech::BufferLibrary lib = tech::BufferLibrary::standard_three(serving_tech());
    return lib;
}

double ms_since(std::chrono::steady_clock::time_point t0,
                std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::string error_json(const std::string& id_json, const util::Status& st,
                       int schema_version = 1) {
    std::string out = "{\"id\":" + id_json + ",\"ok\":false,\"error\":{\"code\":";
    out += json_quote(util::status_code_name(st.code()));
    out += ",\"message\":";
    out += json_quote(st.message());
    out += "},\"schema_version\":" + std::to_string(schema_version) + "}";
    return out;
}

ReqKind kind_of(const Request& req) {
    return req.type == RequestType::scenario ? ReqKind::scenario : ReqKind::synthesize;
}

}  // namespace

ServeSession::ServeSession(Config cfg)
    : cfg_(std::move(cfg)),
      budget_(static_cast<std::uint64_t>(
          cfg_.memory_budget_mb > 0.0 ? cfg_.memory_budget_mb * static_cast<double>(kMiB)
                                      : 0.0)) {
    if (cfg_.model != nullptr) {
        model_ = cfg_.model;
    } else {
        // Shared-library entry point: concurrent sessions (and any
        // in-process tooling) pay characterization at most once per
        // cache path, and share the result immutably.
        owned_model_ = delaylib::FittedLibrary::load_or_characterize_shared(
            cfg_.library_path, serving_tech(), serving_buflib(), cfg_.fit);
        model_ = owned_model_.get();
    }
    const int n = util::ThreadPool::resolve_thread_count(cfg_.workers);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) threads_.emplace_back([this] { worker_loop(); });
}

ServeSession::~ServeSession() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

bool ServeSession::handle_line(const std::string& line, const Emit& emit) {
    // Blank lines are keep-alive noise, not requests.
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) return true;

    Request req;
    try {
        req = parse_request(line);
    } catch (const util::Error& e) {
        stats_.count_malformed();
        emit_line(emit, error_json("null", e.status()));
        return true;
    }

    if (req.type == RequestType::stats) {
        stats_.count_stats_served();
        emit_line(emit, "{\"id\":" + req.id_json + ",\"ok\":true,\"stats\":" + stats_json() +
                            ",\"schema_version\":" + std::to_string(req.schema_version) +
                            "}");
        return true;
    }
    if (req.type == RequestType::shutdown) {
        drain();
        stats_.count_stats_served();
        emit_line(emit, "{\"id\":" + req.id_json +
                            ",\"ok\":true,\"shutdown\":true,\"stats\":" + stats_json() +
                            ",\"schema_version\":" + std::to_string(req.schema_version) +
                            "}");
        return false;
    }

    const ReqKind kind = kind_of(req);
    stats_.count_received(kind);
    const auto token =
        static_cast<std::uint64_t>(cfg_.request_token_mb * static_cast<double>(kMiB));
    std::string rejection;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (static_cast<int>(queue_.size()) >= cfg_.queue_capacity) {
            rejection = "server saturated: queue full (" +
                        std::to_string(cfg_.queue_capacity) + " waiting); retry later";
        } else if (!budget_.try_reserve(token)) {
            rejection = "server saturated: admission budget exhausted (" +
                        std::to_string(budget_.limit() / kMiB) + " MB cap); retry later";
        } else {
            stats_.count_admitted(kind);
            Job job;
            job.req = std::move(req);
            job.emit = emit;
            job.enqueued = std::chrono::steady_clock::now();
            job.token_bytes = token;
            queue_.push_back(std::move(job));
            ++pending_;
        }
    }
    if (!rejection.empty()) {
        stats_.count_rejected(kind);
        emit_line(emit, error_json(req.id_json,
                                   util::Status::resource_exhaustion(rejection),
                                   req.schema_version));
        return true;
    }
    queue_cv_.notify_one();
    return true;
}

void ServeSession::drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void ServeSession::worker_loop() {
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        run_job(job);
        budget_.release(job.token_bytes);
        bool idle = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            idle = --pending_ == 0;
        }
        if (idle) idle_cv_.notify_all();
    }
}

void ServeSession::run_job(Job& job) {
    if (cfg_.before_request) cfg_.before_request();
    const auto started = std::chrono::steady_clock::now();
    const double queue_ms = ms_since(job.enqueued, started);

    std::string response;
    bool ok = false;
    bool degraded = false;
    try {
        const std::vector<cts::SinkSpec> sinks = resolve_sinks(job.req);

        cts::SynthesisOptions opt = job.req.options;
        // One worker = one request: the pool owns parallelism.
        opt.num_threads = 1;
        opt.deadline_ms = job.req.deadline_ms;
        // Standalone per-request budget, deliberately NOT parented to
        // the admission budget: the admission token already charged
        // this request's share against the server cap, and a child
        // budget would double-count every byte. Limit 0 still meters,
        // so the response reports peak usage either way.
        util::MemoryBudget request_budget(static_cast<std::uint64_t>(
            job.req.memory_budget_mb > 0.0
                ? job.req.memory_budget_mb * static_cast<double>(kMiB)
                : 0.0));
        opt.memory_budget = &request_budget;

        if (job.req.type == RequestType::scenario) {
            // Scenario requests run the declarative entry point. The
            // sample fan-out is pinned to this worker exactly like
            // num_threads: concurrency comes from serving many
            // tenants, and sampling is seed-deterministic, so the
            // yield curve a tenant gets over the wire is bit-identical
            // to a standalone run_scenario of the same spec.
            cts::ScenarioSpec spec = job.req.scenario;
            spec.num_threads = 1;
            const cts::ScenarioResult sres = cts::run_scenario(sinks, *model_, opt, spec);
            const cts::PhaseProfile& prof = sres.profile;
            const auto finished = std::chrono::steady_clock::now();
            ok = true;

            std::string out = "{\"id\":" + job.req.id_json +
                              ",\"ok\":true,\"schema_version\":" +
                              std::to_string(job.req.schema_version) + ",\"scenario\":{";
            out += "\"mode\":" + json_quote(cts::scenario_mode_name(sres.mode));
            out += ",\"sinks\":" + std::to_string(sinks.size());
            out += ",\"nominal\":{\"skew_ps\":" + json_number(sres.nominal_skew_ps);
            out += ",\"latency_ps\":" + json_number(sres.nominal_latency_ps);
            out += ",\"wirelength_um\":" + json_number(sres.nominal_wirelength_um);
            out += ",\"buffers\":" + std::to_string(sres.buffers);
            out += ",\"levels\":" + std::to_string(sres.levels);
            out += "},\"skew_target_ps\":" + json_number(spec.skew_target_ps);
            out += ",\"yield_at_target\":" + json_number(sres.yield_at_target);
            out += ",\"yield_curve_skew_ps\":[";
            for (std::size_t i = 0; i < sres.yield_curve_skew_ps.size(); ++i) {
                if (i) out += ',';
                out += json_number(sres.yield_curve_skew_ps[i]);
            }
            out += "],\"samples\":[";
            for (std::size_t i = 0; i < sres.samples.size(); ++i) {
                const cts::ScenarioSample& s = sres.samples[i];
                if (i) out += ',';
                out += "{\"index\":" + std::to_string(s.index);
                out += ",\"skew_ps\":" + json_number(s.skew_ps);
                out += ",\"latency_ps\":" + json_number(s.latency_ps);
                out += ",\"scale_wire_r\":" + json_number(s.scale_wire_r);
                out += ",\"scale_wire_c\":" + json_number(s.scale_wire_c);
                out += ",\"scale_buffer_drive\":" + json_number(s.scale_buffer_drive);
                out += "}";
            }
            out += "]},\"profile\":{";
            out += "\"maze_s\":" + json_number(prof.maze_s);
            out += ",\"timing_s\":" + json_number(prof.timing_s);
            out += ",\"maze_calls\":" + std::to_string(prof.maze_calls);
            out += "},\"queue_ms\":" + json_number(queue_ms);
            out += ",\"latency_ms\":" + json_number(ms_since(job.enqueued, finished));
            out += "}";
            response = std::move(out);
            emit_line(job.emit, response);
            stats_.record_done(ms_since(job.enqueued, std::chrono::steady_clock::now()),
                               ok, degraded, ReqKind::scenario);
            return;
        }

        cts::SynthesisResult res = cts::synthesize(sinks, *model_, opt);
        const cts::PhaseProfile& prof = res.profile;

        const auto finished = std::chrono::steady_clock::now();
        const cts::SynthesisDiagnostics& d = res.diagnostics;
        ok = true;
        degraded = d.deadline_hit || d.memory_rung != cts::MemoryRung::none;

        std::string out = "{\"id\":" + job.req.id_json +
                          ",\"ok\":true,\"schema_version\":" +
                          std::to_string(job.req.schema_version) + ",\"result\":{";
        out += "\"skew_ps\":" + json_number(res.root_timing.max_ps - res.root_timing.min_ps);
        out += ",\"latency_ps\":" + json_number(res.root_timing.max_ps);
        out += ",\"wirelength_um\":" + json_number(res.wire_length_um);
        out += ",\"nodes\":" + std::to_string(res.tree.size());
        out += ",\"buffers\":" + std::to_string(res.buffer_count);
        out += ",\"levels\":" + std::to_string(res.levels);
        out += ",\"sinks\":" + std::to_string(sinks.size());
        out += "},\"diagnostics\":{";
        out += "\"deadline_hit\":" + std::string(d.deadline_hit ? "true" : "false");
        out += ",\"degraded_at\":" + json_quote(cts::degrade_stage_name(d.degraded_at));
        out += ",\"degraded_routes\":" + std::to_string(d.degraded_routes);
        out += ",\"refine_skipped\":" + std::string(d.refine_skipped ? "true" : "false");
        out += ",\"c2f_fallbacks\":" + std::to_string(d.c2f_fallbacks);
        out += ",\"grid_coarsened_routes\":" + std::to_string(d.grid_coarsened_routes);
        out += ",\"memory_rung\":" + json_quote(cts::memory_rung_name(d.memory_rung));
        out += ",\"memory_peak_mb\":" +
               json_number(static_cast<double>(d.memory_peak_bytes) /
                           static_cast<double>(kMiB));
        out += "},\"profile\":{";
        out += "\"maze_s\":" + json_number(prof.maze_s);
        out += ",\"balance_s\":" + json_number(prof.balance_s);
        out += ",\"timing_s\":" + json_number(prof.timing_s);
        out += ",\"refine_s\":" + json_number(prof.refine_s);
        out += ",\"maze_calls\":" + std::to_string(prof.maze_calls);
        out += "},\"queue_ms\":" + json_number(queue_ms);
        out += ",\"latency_ms\":" + json_number(ms_since(job.enqueued, finished));
        out += "}";
        response = std::move(out);
    } catch (const util::Error& e) {
        response = error_json(job.req.id_json, e.status(), job.req.schema_version);
    } catch (const std::exception& e) {
        response = error_json(job.req.id_json, util::Status::internal(e.what()),
                              job.req.schema_version);
    }

    emit_line(job.emit, response);
    stats_.record_done(ms_since(job.enqueued, std::chrono::steady_clock::now()), ok,
                       degraded, kind_of(job.req));
}

void ServeSession::emit_line(const Emit& emit, const std::string& line) {
    std::lock_guard<std::mutex> lock(emit_mu_);
    emit(line);
}

std::string ServeSession::stats_json() const {
    const StatsSnapshot s = stats_.snapshot();
    std::string out = "{";
    out += "\"received\":" + std::to_string(s.received);
    out += ",\"malformed\":" + std::to_string(s.malformed);
    out += ",\"rejected\":" + std::to_string(s.rejected);
    out += ",\"admitted\":" + std::to_string(s.admitted);
    out += ",\"served_ok\":" + std::to_string(s.served_ok);
    out += ",\"failed\":" + std::to_string(s.failed);
    out += ",\"degraded\":" + std::to_string(s.degraded);
    const auto type_json = [](const TypeCounters& t) {
        std::string o = "{";
        o += "\"received\":" + std::to_string(t.received);
        o += ",\"rejected\":" + std::to_string(t.rejected);
        o += ",\"admitted\":" + std::to_string(t.admitted);
        o += ",\"served_ok\":" + std::to_string(t.served_ok);
        o += ",\"failed\":" + std::to_string(t.failed);
        o += ",\"degraded\":" + std::to_string(t.degraded);
        o += "}";
        return o;
    };
    out += ",\"by_type\":{\"synthesize\":" +
           type_json(s.by_type[static_cast<int>(ReqKind::synthesize)]);
    out += ",\"scenario\":" + type_json(s.by_type[static_cast<int>(ReqKind::scenario)]);
    out += ",\"stats\":{\"served\":" + std::to_string(s.stats_served) + "}}";
    out += ",\"p50_ms\":" + json_number(s.p50_ms);
    out += ",\"p99_ms\":" + json_number(s.p99_ms);
    out += ",\"mean_ms\":" + json_number(s.mean_ms);
    out += ",\"max_ms\":" + json_number(s.max_ms);
    out += ",\"peak_rss_mb\":" + json_number(s.peak_rss_mb);
    out += ",\"workers\":" + std::to_string(threads_.size());
    out += ",\"queue_capacity\":" + std::to_string(cfg_.queue_capacity);
    {
        std::lock_guard<std::mutex> lock(mu_);
        out += ",\"queue_depth\":" + std::to_string(queue_.size());
        out += ",\"pending\":" + std::to_string(pending_);
    }
    out += ",\"budget_used_mb\":" +
           json_number(static_cast<double>(budget_.used()) / static_cast<double>(kMiB));
    out += ",\"budget_peak_mb\":" +
           json_number(static_cast<double>(budget_.peak()) / static_cast<double>(kMiB));
    out += ",\"budget_limit_mb\":" +
           json_number(static_cast<double>(budget_.limit()) / static_cast<double>(kMiB));
    out += "}";
    return out;
}

}  // namespace ctsim::serve
