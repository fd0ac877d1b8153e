#include "util/dag_executor.h"

#include <atomic>
#include <chrono>
#include <string>
#include <utility>

#include "util/fault_injection.h"
#include "util/status.h"

namespace ctsim::util {

namespace {

// Process-global fuzz seed (tests only) plus an execution counter so
// consecutive execute() calls inside one synthesis run draw distinct
// perturbation streams from the same seed.
std::atomic<unsigned> g_fuzz_seed{0};
std::atomic<std::uint64_t> g_fuzz_execs{0};

// splitmix64: tiny, well-mixed, and header-free. Used only for
// schedule perturbation -- never for anything an output depends on.
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

bool DagExecutor::out_of_work_locked() const {
    for (const auto& dq : ready_)
        if (!dq.empty()) return false;
    return true;
}

bool DagExecutor::finished_locked() const {
    if (next_commit_ == static_cast<int>(nodes_.size())) return true;
    // On failure: keep RUNNING the backlog (lowest-rank error
    // determinism), but commit nothing further once the lane is
    // frozen, so drain runs + backlog.
    if (frozen_) return running_ == 0 && !lane_busy_ && out_of_work_locked();
    return false;
}

int DagExecutor::acquire_locked(int wid, std::uint64_t& rng) {
    const int w = static_cast<int>(ready_.size());
    if (fuzz_ == 0) {
        // Locality-first policy: newest own work, else steal the
        // oldest entry of the next non-empty victim.
        if (!ready_[wid].empty()) {
            int n = ready_[wid].back();
            ready_[wid].pop_back();
            return n;
        }
        for (int k = 1; k < w; ++k) {
            auto& dq = ready_[(wid + k) % w];
            if (!dq.empty()) {
                int n = dq.front();
                dq.pop_front();
                stats_.steals++;
                return n;
            }
        }
        return -1;
    }
    // Fuzz policy: start from a random deque (so "steal vs own" flips
    // arbitrarily) and take a random end of it. The determinism
    // contract says none of this may matter.
    const int start = static_cast<int>(mix(rng) % static_cast<unsigned>(w));
    for (int k = 0; k < w; ++k) {
        const int v = (start + k) % w;
        auto& dq = ready_[v];
        if (dq.empty()) continue;
        int n;
        if (dq.size() > 1 && (mix(rng) & 1)) {
            // Occasionally pick from the middle, not just the ends.
            if (mix(rng) & 1) {
                const auto at = mix(rng) % dq.size();
                n = dq[at];
                dq.erase(dq.begin() + static_cast<std::ptrdiff_t>(at));
            } else {
                n = dq.front();
                dq.pop_front();
            }
        } else if (mix(rng) & 1) {
            n = dq.front();
            dq.pop_front();
        } else {
            n = dq.back();
            dq.pop_back();
        }
        if (v != wid) stats_.steals++;
        return n;
    }
    return -1;
}

void DagExecutor::push_ready_locked(int wid, int node, std::uint64_t& rng) {
    const int w = static_cast<int>(ready_.size());
    int target = wid;
    if (fuzz_ != 0) target = static_cast<int>(mix(rng) % static_cast<unsigned>(w));
    if (fuzz_ != 0 && (mix(rng) & 1))
        ready_[target].push_front(node);
    else
        ready_[target].push_back(node);
}

void DagExecutor::advance_lane(std::unique_lock<std::mutex>& lk) {
    // Exactly one worker drains the commit lane at a time; it drops
    // the state lock while a commit body executes, so peers keep
    // picking up runs. Callers hold lk.
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
        cv_.notify_all();
    }
    lane_busy_ = false;
    if (finished_locked()) cv_.notify_all();
}

void DagExecutor::worker_loop(int wid) {
    // Per-worker perturbation stream: seed x execution x worker.
    std::uint64_t rng = fuzz_ == 0
                            ? 0
                            : fuzz_ * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(wid) + 1;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        int node = -1;
        while (!finished_locked()) {
            // Failure mode still runs the backlog (see header).
            node = acquire_locked(wid, rng);
            if (node >= 0) break;
            const auto t0 = std::chrono::steady_clock::now();
            cv_.wait_for(lk, std::chrono::milliseconds(50));
            stats_.idle_s +=
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
        }
        if (node < 0) return;  // finished
        running_++;
        lk.unlock();
        bool failed = false;
        if (nodes_[node].run) {
            try {
                if (fault_fire(FaultSite::dag_run_fail))
                    throw_status(Status::internal(
                        "dag executor: run body failed (injected) rank=" +
                        std::to_string(node)));
                nodes_[node].run();
            } catch (...) {
                failed = true;
                lk.lock();
                record_error_locked(node);
                lk.unlock();
            }
        }
        lk.lock();
        if (!failed) stats_.ran++;
        nodes_[node].run_done = true;
        running_--;
        advance_lane(lk);
        cv_.notify_all();
    }
}

void DagExecutor::execute(ThreadPool* pool) {
    const int n = static_cast<int>(nodes_.size());
    stats_ = Stats{};
    stats_.nodes = n;
    if (n == 0) return;

    // Reset execution state.
    next_commit_ = 0;
    running_ = 0;
    lane_busy_ = false;
    frozen_ = false;
    error_ = nullptr;
    error_rank_ = -1;
    const unsigned seed = g_fuzz_seed.load(std::memory_order_relaxed);
    fuzz_ = seed == 0 ? 0
                      : (static_cast<std::uint64_t>(seed) << 20) ^
                            g_fuzz_execs.fetch_add(1, std::memory_order_relaxed);
    if (seed != 0 && fuzz_ == 0) fuzz_ = 1;

    const int workers = pool != nullptr ? pool->size() : 1;
    ready_.assign(static_cast<std::size_t>(workers), {});
    {
        // Seed the ready deques with every rank, round-robin (fuzz
        // scatters them instead).
        std::uint64_t rng = fuzz_ * 0x2545f4914f6cdd1dull + 7;
        for (int i = 0; i < n; ++i) {
            nodes_[i].run_done = false;
            nodes_[i].failed = false;
            push_ready_locked(i % workers, i, rng);
        }
    }

    if (workers <= 1) {
        worker_loop(0);
    } else {
        // worker_loop never throws (node exceptions are captured into
        // error_), so parallel_for's own error path stays cold here.
        pool->parallel_for(workers, [this](int wid) { worker_loop(wid); });
    }

    std::exception_ptr err = error_;
    // Consume the graph: the executor is reusable after any outcome.
    nodes_.clear();
    ready_.clear();
    if (err) std::rethrow_exception(err);
}

}  // namespace ctsim::util
