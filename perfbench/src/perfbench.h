// The repository benchmark: three workloads (batch, yield, serve), one
// result line per run, and a traced per-layer replay. README.md in this
// directory records why each workload and metric was chosen.
//
// Everything here calls the library only through public entry points
// that are meant to outlive the current option set: shipped-default
// SynthesisOptions plus num_threads, skew_refine, slew_target_ps and an
// unlimited metering MemoryBudget.
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cts/scenario.h"
#include "cts/synthesizer.h"
#include "delaylib/fitted_library.h"
#include "serve/session.h"
#include "sim/netlist_sim.h"

namespace perfbench {

using namespace ctsim;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1);
double seconds_since(Clock::time_point t0);
/// CPU time the calling thread has run [s]. On a shared host whose
/// hypervisor steals cycles, this is what a serial call costs; its wall
/// time also measures the neighbours.
double thread_cpu_seconds();
int nproc();

// --- shared fixtures ----------------------------------------------------

const tech::Technology& tek();
const tech::BufferLibrary& buflib();
/// Cache file name, resolved under CTSIM_CACHE_DIR (run.py points it
/// into the build directory of the checkout).
inline constexpr const char* kLibraryCache = "perfbench_delaylib_45nm.cache";
std::unique_ptr<delaylib::FittedLibrary> load_library();

/// Runs `fn` on a freshly spawned thread and waits for it, so every
/// timed call starts with cold thread-local caches, as a one-shot
/// process would. Afterwards returns freed heap to the system, so peak
/// RSS tracks the largest call rather than allocator leftovers.
void on_fresh_thread(const std::function<void()>& fn);

// --- statistics -----------------------------------------------------------

double mean(const std::vector<double>& v);
double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 100].
double percentile(std::vector<double> v, double q);
double peak_rss_mb();

// --- result line ------------------------------------------------------------

struct Metric {
    std::string name;
    double value{0.0};
    std::string unit;
};

/// What one run reports: the last stdout line,
/// {"correct", "attempted", "failed", "metrics"}.
struct Outcome {
    long attempted{0};
    long failed{0};
    std::vector<Metric> metrics;

    /// Count one checked operation; a non-empty `error` marks it failed.
    void check(const std::string& error);
    void add(std::string name, double value, std::string unit);
    bool correct() const { return failed == 0 && attempted > 0; }
    std::string json() const;
};

// --- machine record -----------------------------------------------------

struct Machine {
    int nproc{1};
    std::string cpu_model;
    /// nproc x (one-thread burn time) / (nproc-thread burn time): the
    /// cores that really run in parallel right now.
    double effective_cores{1.0};
    /// One-thread burn time [ms]: how fast a core is right now.
    double burn_ms{0.0};
};
Machine probe_machine();

// --- workload inputs ----------------------------------------------------

/// A registry instance's shape (sink count, die span, cap band)
/// generated at the workload seed.
std::vector<cts::SinkSpec> instance_sinks(const char* name, unsigned seed);
/// `count` instances of that shape; the first is instance_sinks(name,
/// seed), the others use seeds derived from it.
std::vector<std::vector<cts::SinkSpec>> instance_set(const char* name, unsigned seed, int count);
/// Serial Monte-Carlo job with `samples` samples at the workload seed.
cts::ScenarioSpec monte_carlo_spec(int samples, unsigned seed);

// --- output checks (each returns "" when the output is right) --------------

/// The tenant-visible shape of a tree; parallel and serial runs must
/// agree on every field exactly.
struct TreeSummary {
    double wirelength_um{0.0};
    double skew_ps{0.0};
    double latency_ps{0.0};
    int buffers{0};
    int nodes{0};
    int levels{0};
    bool operator==(const TreeSummary&) const = default;
};
TreeSummary summarize(const cts::SynthesisResult& r);
std::string check_same_tree(const TreeSummary& expect, const TreeSummary& got);
std::string check_simulation(const sim::NetlistSimReport& rep, double slew_limit_ps);
std::string check_same_yield(const cts::ScenarioResult& expect, const cts::ScenarioResult& got);

/// One distinct served request: its sinks and options, and the JSON
/// line it is sent as (without the id, which changes per send).
struct ServeRequest {
    std::string body;  ///< the line after `{"id":<id>`
    bool scenario{false};
    std::vector<cts::SinkSpec> sinks;
    cts::SynthesisOptions options;
    cts::ScenarioSpec spec;

    std::string line(long id) const { return "{\"id\":" + std::to_string(id) + body; }
};
/// What a standalone synthesize() (or run_scenario()) of a request
/// returns; every response to that request must match it exactly.
struct ServeExpect {
    TreeSummary tree;
    cts::ScenarioResult scenario;
};
ServeExpect standalone(const ServeRequest& req, const delaylib::DelayModel& model);
std::string check_serve_response(const std::string& response, const ServeRequest& req,
                                 const ServeExpect& want);

// --- serving path ----------------------------------------------------------

/// Shape of one request stream (README.md, "serve").
struct ServeMix {
    int block_min_sinks{80};
    int block_max_sinks{400};
    double block_min_span_um{8000.0};
    double block_max_span_um{20000.0};
    /// Requests in 20 sent as ISPD-shaped nets (91-330 sinks on a
    /// 40-105 mm die): 0, 1 or 3.
    int ispd_per_20{3};
};

/// `count` distinct requests, deterministic in `seed`. Classes follow a
/// fixed 20-slot pattern over the index: 2 scenario (corners),
/// mix.ispd_per_20 ISPD-shaped, 4 with skew_refine off, 4 with a
/// non-default slew_target_ps.
std::vector<ServeRequest> serve_requests(const ServeMix& mix, unsigned seed, int count);

/// Responses and timestamps of one open-loop phase.
struct OpenLoopLog {
    std::vector<Clock::time_point> due;
    std::vector<Clock::time_point> sent;
    std::vector<Clock::time_point> done;
    std::vector<double> submit_us;  ///< time inside `submit` (admission)
    std::vector<std::string> responses;
};

/// Hands request `i` to the server; the server calls `respond` exactly
/// once per request, from any thread.
using Submit = std::function<void(std::size_t i, const std::string& line,
                                  std::function<void(const std::string&)> respond)>;

/// Open-loop generator: request i is due at start + i / rate and is
/// submitted at its due time (or as soon as the generator catches up),
/// whatever the server is doing. Latency is measured from the due time,
/// so a stall also charges the requests queued up behind it.
/// `wait_all` must block until every respond() call has happened.
/// rate_per_s <= 0 submits everything at once (a burst).
OpenLoopLog run_open_loop(const std::vector<std::string>& lines, double rate_per_s,
                          const Submit& submit, const std::function<void()>& wait_all);

/// Latency of request i from its due time [ms].
std::vector<double> due_latencies_ms(const OpenLoopLog& log);

// --- tracing ------------------------------------------------------------------

/// In-memory span recorder for the traced run, written at exit as
/// Chrome trace-event JSON. Spans nest per thread through Scope.
class Tracer {
  public:
    struct Span {
        std::string name;
        Clock::time_point start{};
        Clock::time_point end{};
        int parent{-1};
        long request_id{-1};
        int tid{0};
    };

    class Scope {
      public:
        Scope(Tracer& t, std::string name, long request_id = -1);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        Tracer& t_;
        int id_;
        int saved_parent_;
    };

    Tracer();
    /// Record a finished span after the fact (serve request phases).
    void add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
             long request_id, int tid);
    /// Self time [s] of every span called `name`: its duration minus the
    /// part of it covered by its child spans.
    std::vector<double> self_times(const std::string& name) const;
    bool write_chrome_json(const std::string& path, const std::string& metadata_json) const;

  private:
    std::vector<Span> spans() const;
    int open(std::string name, long request_id);
    void close(int id);

    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/// Opens a span on `tracer` unless it is null (the untraced run).
class MaybeScope {
  public:
    MaybeScope(Tracer* tracer, const char* name) {
        if (tracer != nullptr) scope_ = std::make_unique<Tracer::Scope>(*tracer, name);
    }

  private:
    std::unique_ptr<Tracer::Scope> scope_;
};

// --- counting delay model ---------------------------------------------------

/// Forwards every query to a base model and counts them. Its fresh
/// instance id gives it its own (cold) evaluation cache, so a count is
/// the exact model work one call does.
class CountingModel final : public delaylib::DelayModel {
  public:
    explicit CountingModel(const delaylib::DelayModel& base)
        : delaylib::DelayModel(base.technology(), base.buffers()), base_(&base) {}

    double buffer_delay(int d, int l, double slew_in, double len) const override {
        bump();
        return base_->buffer_delay(d, l, slew_in, len);
    }
    double wire_delay(int d, int l, double slew_in, double len) const override {
        bump();
        return base_->wire_delay(d, l, slew_in, len);
    }
    double wire_slew(int d, int l, double slew_in, double len) const override {
        bump();
        return base_->wire_slew(d, l, slew_in, len);
    }
    delaylib::BranchTiming branch(int d, int l_left, int l_right, double slew_in, double stem,
                                  double left, double right) const override {
        bump();
        return base_->branch(d, l_left, l_right, slew_in, stem, left, right);
    }

    std::uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }

  private:
    void bump() const { queries_.fetch_add(1, std::memory_order_relaxed); }

    const delaylib::DelayModel* base_;
    mutable std::atomic<std::uint64_t> queries_{0};
};

// --- workloads ------------------------------------------------------------------

/// What one workload runs. Every workload drives all three paths --
/// batch synthesis (serial, parallel, then transient simulation), a
/// Monte-Carlo yield job and an open-loop serving pass -- so each run
/// reports every end-to-end metric. The workload picks their inputs and
/// how much of the run each path gets; README.md gives the reasons.
struct Shape {
    std::string name;
    /// Registry shape of the instances whose synthesis is timed,
    /// generated at the seed.
    const char* synth_instance{"r5"};
    int synth_instances{4};
    /// Registry shape of the instances that are simulated; the quality
    /// metrics are their means, since one r1 instance's simulated skew
    /// varies ~17% across seeds.
    const char* quality_instance{"r5"};
    int quality_instances{4};
    double synth_share{0.5};           ///< share of --seconds for synthesis
    /// Passes that also run each instance serially (the first always does).
    int serial_passes{1};
    const char* yield_instance{"r3"};
    int yield_instances{3};
    int yield_samples{512};
    double yield_share{0.5};
    ServeMix mix;
    /// Open-loop requests before the burst. The latency percentiles
    /// pool all of them, so at 1000 the p99 has ten samples above it.
    int open_requests{1000};
    /// Each distinct request is sent this many times, so the
    /// after-the-fact check needs one standalone run per distinct one.
    /// The tail is then set by fewer distinct nets, so cheap requests
    /// are sent once.
    int repeats{4};
};
/// Throws std::invalid_argument on an unknown workload name.
Shape shape_of(const std::string& workload);

struct RunArgs {
    Shape shape;
    unsigned seed{1};
    double seconds{10.0};
    /// Offered open-loop rate of this workload's serving pass [1/s],
    /// from --serve-rates (pinned in BENCHMARK.json's command).
    double serve_rate{0.0};
    std::string trace_path;  ///< traced run only
};

/// A process ready to serve: warm-cache library, one throwaway tiny
/// synthesis, a session with nproc - 1 workers and one warm-up request.
struct Prepared {
    std::unique_ptr<delaylib::FittedLibrary> model;
    std::unique_ptr<serve::ServeSession> session;
    double setup_s{0.0};
};
Prepared prepare();

struct SynthStage {
    /// Mean over the instances of the fastest serial synthesize() thread
    /// CPU time.
    double serial_s{0.0};
    /// Mean over the instances of the fastest synthesize() wall time at
    /// nproc threads.
    double par_s{0.0};
    std::vector<TreeSummary> trees;  ///< per instance, from its first serial run
};
/// Runs nproc-thread synthesize() (each on a fresh thread) on every
/// instance in whole passes (at least three, more while the next pass
/// fits in `budget_s`), and serial synthesize() in the first
/// `serial_passes` of them. Every tree is checked against the
/// instance's first serial tree.
SynthStage run_synth_stage(const std::vector<std::vector<cts::SinkSpec>>& instances,
                           const delaylib::DelayModel& model, double budget_s, int serial_passes,
                           Outcome& outcome, Tracer* tracer);

/// Means over the instances of their serial trees' simulated and model
/// skew, wirelength and buffer count.
struct QualityStage {
    double sim_skew_ps{0.0};
    double model_skew_ps{0.0};
    double wirelength_um{0.0};
    double buffers{0.0};
};
/// Synthesizes each instance serially (untimed), simulates each tree at
/// a 1 ps step (concurrently) and checks it for slew and completeness.
QualityStage run_quality_stage(const std::vector<std::vector<cts::SinkSpec>>& instances,
                               const delaylib::DelayModel& model, Outcome& outcome,
                               Tracer* tracer);

/// Serial Monte-Carlo jobs in whole passes over `instances` (at least
/// two, more while the next fits in `budget_s`), each checked to repeat
/// the instance's first yield curve exactly. Returns the mean over the
/// instances of the fastest job thread CPU time; `first` receives the
/// first instance's result.
double run_yield_stage(const std::vector<std::vector<cts::SinkSpec>>& instances,
                       const cts::ScenarioSpec& spec, const delaylib::DelayModel& model,
                       double budget_s, Outcome& outcome, cts::ScenarioResult* first = nullptr);

struct ServeStage {
    double p50_ms{0.0};  ///< open-loop latency from due time, over all
    double p99_ms{0.0};  ///< open-loop requests of every part pooled
    double rps{0.0};     ///< completed-ok requests per second, faster burst
    double max_late_ms{0.0};  ///< how far the generator fell behind schedule
    /// Peak RSS once the burst has drained, before the standalone checks.
    double peak_rss_mb{0.0};
    long rejected{0};
    long failed{0};
    std::vector<double> admit_us;
    std::vector<double> queue_ms;
    std::vector<double> service_ms;
    std::vector<double> service_synth_ms;
    std::vector<double> service_scenario_ms;
};
/// Open-loop parts the serving pass is split into.
inline constexpr int kServeParts = 3;
/// Session queue depth, also the size of each burst.
inline constexpr int kServeQueue = 256;
/// Bursts after the open loop; serve_rps is the faster one's rate.
inline constexpr int kServeBursts = 2;

/// shape.open_requests open-loop requests at `rate_per_s` in kServeParts
/// parts, calling `between(k)` after part k (but the last), then
/// kServeBursts bursts of kServeQueue, then the check of every response
/// against a standalone run of its request.
ServeStage run_serve_stage(serve::ServeSession& session, const Shape& shape, unsigned seed,
                           double rate_per_s, Outcome& outcome, Tracer* tracer,
                           const std::function<void(int)>& between = {});

/// The untraced run: every end-to-end metric except setup_s, which
/// the caller adds.
Outcome run_workload(const RunArgs& a, Prepared& p);
/// The traced run: every per-layer metric, spans written to
/// RunArgs::trace_path.
Outcome run_layers(const RunArgs& a, Prepared& p, const std::string& machine_json);

/// Metric names each mode prints, in order.
std::vector<std::string> end_to_end_metric_names();
std::vector<std::string> per_layer_metric_names();
/// "" when `o` holds exactly the metrics `names`, in that order; the
/// binary refuses to print a result otherwise.
std::string check_metric_names(const Outcome& o, const std::vector<std::string>& names);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H
