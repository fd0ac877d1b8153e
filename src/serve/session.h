// The multi-tenant serving session behind ctsimd (docs/serving.md).
//
// One ServeSession owns the whole serving state: the shared immutable
// delay model (characterized exactly once via the shared-library
// latch), a pool of worker threads pulling from ONE bounded queue,
// the process-wide admission MemoryBudget, and the cumulative
// ServerStats. Transport is the caller's problem -- ctsimd feeds it
// lines from stdin or a unix socket; tests feed it strings directly.
//
// Admission contract (enforced in handle_line, on the reader thread):
//  * lines that fail to parse count as `malformed` and get a typed
//    invalid_input error response -- the session keeps serving;
//  * a synthesize request is admitted only if the queue has room AND
//    a per-request token (Config::request_token_mb) reserves against
//    the server-wide budget; otherwise it is REJECTED with a typed
//    resource_exhaustion error, immediately, without queueing;
//  * `stats` / `shutdown` bypass admission (they must work under
//    saturation -- that is when you need them).
//
// Isolation contract (per admitted request, on a worker thread):
//  * the request runs with num_threads pinned to 1, confined to its
//    worker -- the pool, not the tenant, owns parallelism;
//  * it gets a fresh standalone MemoryBudget (limit = the request's
//    memory_budget_mb; 0 = metering-only) so one tenant's pressure
//    degrades that tenant, and a fresh IncrementalTiming engine and
//    arena inside synthesize();
//  * the response's profile is the request's own
//    SynthesisResult::profile, exact whatever other workers run.
#ifndef CTSIM_SERVE_SESSION_H
#define CTSIM_SERVE_SESSION_H

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "delaylib/fitted_library.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "util/memory_budget.h"

namespace ctsim::serve {

class ServeSession {
  public:
    struct Config {
        /// Worker threads (0 = one per hardware thread).
        int workers{1};
        /// Bounded queue depth; a full queue rejects, never blocks.
        int queue_capacity{64};
        /// Server-wide admission budget [MB]; 0 = unlimited (tokens
        /// are still metered so peak usage reports stay meaningful).
        double memory_budget_mb{0.0};
        /// Admission charge per in-flight request [MB].
        double request_token_mb{64.0};
        /// Delay-library cache path (resolved by the cache-dir rules
        /// in delaylib::FittedLibrary::resolve_cache_path).
        std::string library_path{"ctsim_delaylib_45nm.cache"};
        delaylib::FitOptions fit{};
        /// Test injection: serve off this model instead of loading /
        /// characterizing one. Must outlive the session.
        const delaylib::DelayModel* model{nullptr};
        /// Test hook: runs on the worker thread after dequeue, before
        /// any synthesis work -- lets tests hold workers to make
        /// saturation deterministic.
        std::function<void()> before_request{};
    };

    /// Sink for response lines (no trailing newline). Called from
    /// worker threads and the reader thread; calls are serialized by
    /// an internal mutex so lines never interleave.
    using Emit = std::function<void(const std::string&)>;

    /// Loads / characterizes the shared library unless Config::model
    /// injects one, then starts the workers.
    explicit ServeSession(Config cfg);
    /// Stops accepting, drains in-flight work, joins the workers.
    ~ServeSession();

    ServeSession(const ServeSession&) = delete;
    ServeSession& operator=(const ServeSession&) = delete;

    /// Handle one request line: parse, admit, enqueue (or answer
    /// immediately for stats/shutdown/rejections). Returns false when
    /// the line was a shutdown request -- in-flight work has been
    /// drained and the caller should stop reading.
    bool handle_line(const std::string& line, const Emit& emit);

    /// Block until every admitted request has completed and emitted.
    void drain();

    StatsSnapshot stats() const { return stats_.snapshot(); }
    const delaylib::DelayModel& model() const { return *model_; }
    int workers() const { return static_cast<int>(threads_.size()); }

  private:
    struct Job {
        Request req;
        Emit emit;
        std::chrono::steady_clock::time_point enqueued{};
        std::uint64_t token_bytes{0};
    };

    void worker_loop();
    void run_job(Job& job);
    void emit_line(const Emit& emit, const std::string& line);
    std::string stats_json() const;

    Config cfg_;
    std::shared_ptr<const delaylib::DelayModel> owned_model_;
    const delaylib::DelayModel* model_{nullptr};
    util::MemoryBudget budget_;

    mutable std::mutex mu_;
    std::condition_variable queue_cv_;  // workers wait for jobs
    std::condition_variable idle_cv_;   // drain() waits for pending == 0
    std::deque<Job> queue_;
    int pending_{0};  // admitted, not yet emitted
    bool stopping_{false};

    std::mutex emit_mu_;
    std::vector<std::thread> threads_;
    ServerStats stats_;
};

}  // namespace ctsim::serve

#endif  // CTSIM_SERVE_SESSION_H
