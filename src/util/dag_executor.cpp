#include "util/dag_executor.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>

#include "util/fault_injection.h"
#include "util/status.h"

namespace ctsim::util {

namespace {

// Process-global fuzz seed (tests only) plus an execution counter so
// consecutive execute() calls inside one synthesis run draw distinct
// dispatch permutations from the same seed.
std::atomic<unsigned> g_fuzz_seed{0};
std::atomic<std::uint64_t> g_fuzz_execs{0};

// splitmix64: tiny, well-mixed, and header-free. Used only for the
// dispatch permutation -- never for anything an output depends on.
inline std::uint64_t mix(std::uint64_t& s) {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

void DagExecutor::set_test_fuzz(unsigned seed) {
    g_fuzz_seed.store(seed, std::memory_order_relaxed);
}

int DagExecutor::add_node(std::function<void()> run, std::function<void()> commit) {
    const int rank = static_cast<int>(nodes_.size());
    // Fault probe standing in for task-arena exhaustion (node vector
    // growth failure while the graph is being built): surfaces to the
    // caller as a structured resource_exhaustion before execute().
    if (fault_fire(FaultSite::dag_task_alloc_fail))
        throw_status(Status::resource_exhaustion(
            "dag executor: task allocation failed (injected) rank=" +
            std::to_string(rank)));
    Node n;
    n.run = std::move(run);
    n.commit = std::move(commit);
    nodes_.push_back(std::move(n));
    return rank;
}

void DagExecutor::record_error_locked(int rank) {
    if (error_rank_ < 0 || rank < error_rank_) {
        error_rank_ = rank;
        error_ = std::current_exception();
    }
    nodes_[rank].failed = true;
}

void DagExecutor::advance_lane(std::unique_lock<std::mutex>& lk) {
    // Exactly one worker drains the commit lane at a time; it drops
    // the state lock while a commit body executes, so peers keep
    // finishing runs, and re-checks the next rank under the lock, so a
    // run that lands meanwhile is never missed. Callers hold lk.
    if (lane_busy_) return;
    lane_busy_ = true;
    const int n = static_cast<int>(nodes_.size());
    while (!frozen_ && next_commit_ < n && nodes_[next_commit_].run_done) {
        const int rank = next_commit_;
        if (nodes_[rank].failed) {
            frozen_ = true;
            break;
        }
        if (nodes_[rank].commit) {
            lk.unlock();
            try {
                if (fault_fire(FaultSite::dag_commit_fail))
                    throw_status(Status::internal(
                        "dag executor: commit body failed (injected) rank=" +
                        std::to_string(rank)));
                nodes_[rank].commit();
            } catch (...) {
                lk.lock();
                record_error_locked(rank);
                frozen_ = true;
                break;
            }
            lk.lock();
        }
        next_commit_++;
        stats_.committed++;
    }
    lane_busy_ = false;
}

void DagExecutor::run_node(int rank) {
    // A failed run still marks its node done: the lane freezes on it,
    // and every other node keeps running (see header).
    bool failed = false;
    if (nodes_[rank].run) {
        try {
            if (fault_fire(FaultSite::dag_run_fail))
                throw_status(Status::internal("dag executor: run body failed (injected) rank=" +
                                              std::to_string(rank)));
            nodes_[rank].run();
        } catch (...) {
            failed = true;
            std::lock_guard<std::mutex> lk(m_);
            record_error_locked(rank);
        }
    }
    std::unique_lock<std::mutex> lk(m_);
    if (!failed) stats_.ran++;
    nodes_[rank].run_done = true;
    advance_lane(lk);
}

void DagExecutor::execute(ThreadPool* pool) {
    const int n = static_cast<int>(nodes_.size());
    stats_ = Stats{};
    stats_.nodes = n;
    if (n == 0) return;

    next_commit_ = 0;
    lane_busy_ = false;
    frozen_ = false;
    error_ = nullptr;
    error_rank_ = -1;

    // Dispatch index k runs rank order[k]: rank order, or a seeded
    // Fisher-Yates permutation under the fuzz hook.
    std::vector<int> order(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    if (const unsigned seed = g_fuzz_seed.load(std::memory_order_relaxed); seed != 0) {
        std::uint64_t rng = (static_cast<std::uint64_t>(seed) << 20) ^
                            g_fuzz_execs.fetch_add(1, std::memory_order_relaxed);
        for (int i = n - 1; i > 0; --i)
            std::swap(order[i], order[mix(rng) % static_cast<std::uint64_t>(i + 1)]);
    }

    // run_node never throws (node exceptions are captured into
    // error_), so parallel_for's own error path stays cold here.
    if (pool != nullptr)
        pool->parallel_for(n, [this, &order](int k) { run_node(order[k]); });
    else
        for (int k = 0; k < n; ++k) run_node(order[k]);

    std::exception_ptr err = error_;
    // Consume the graph: the executor is reusable after any outcome.
    nodes_.clear();
    if (err) std::rethrow_exception(err);
}

}  // namespace ctsim::util
