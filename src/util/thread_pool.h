// Minimal blocking-fork thread pool for level-parallel synthesis.
//
// The synthesizer's per-level merges are independent, so the only
// primitive needed is a blocking parallel_for: submit n index-jobs,
// have every worker (plus the calling thread) drain them, return when
// all are done. It is the one scheduling substrate: DagExecutor's
// ordered-commit lane and the Monte-Carlo sample fan-out both run on
// it. Workers are persistent across calls so per-thread state (the
// delay-evaluation caches, the pooled maze label grids) stays warm
// for the whole synthesis run.
#ifndef CTSIM_UTIL_THREAD_POOL_H
#define CTSIM_UTIL_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ctsim::util {

class ThreadPool {
  public:
    /// `threads` counts the calling thread: a pool of 1 spawns no
    /// workers and runs everything inline.
    explicit ThreadPool(int threads) {
        const int extra = std::max(0, threads - 1);
        workers_.reserve(extra);
        for (int i = 0; i < extra; ++i)
            workers_.emplace_back([this] { worker_loop(); });
    }

    ~ThreadPool() {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread& t : workers_) t.join();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int size() const { return static_cast<int>(workers_.size()) + 1; }

    /// Map `requested` (the SynthesisOptions convention: 0 = one per
    /// hardware thread, otherwise exactly n) to a concrete count.
    static int resolve_thread_count(int requested) {
        if (requested > 0) return requested;
        const unsigned hw = std::thread::hardware_concurrency();
        return hw > 0 ? static_cast<int>(hw) : 1;
    }

    /// Run fn(0) .. fn(n-1) across the pool, blocking until all
    /// complete. If any task throws, every remaining task still runs
    /// (concurrent peers cannot be recalled, so the inline path
    /// matches), and the exception of the LOWEST-INDEX failing task is
    /// rethrown here -- deterministic at any thread count. The pool
    /// stays usable afterwards. Not reentrant.
    void parallel_for(int n, const std::function<void(int)>& fn) {
        if (n <= 0) return;
        error_ = nullptr;
        error_index_ = -1;
        if (workers_.empty()) {
            total_ = n;
            job_ = &fn;
            next_.store(0, std::memory_order_relaxed);
            drain();
            job_ = nullptr;
            if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
            return;
        }
        {
            std::lock_guard<std::mutex> lk(m_);
            job_ = &fn;
            total_ = n;
            next_.store(0, std::memory_order_relaxed);
            ++generation_;
        }
        cv_.notify_all();
        drain();
        std::unique_lock<std::mutex> lk(m_);
        done_cv_.wait(lk, [&] {
            return active_ == 0 && next_.load(std::memory_order_relaxed) >= total_;
        });
        job_ = nullptr;
        if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    }

  private:
    void drain() {
        for (;;) {
            const int i = next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= total_) break;
            try {
                (*job_)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(err_m_);
                if (error_index_ < 0 || i < error_index_) {
                    error_ = std::current_exception();
                    error_index_ = i;
                }
            }
        }
    }

    void worker_loop() {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(m_);
        for (;;) {
            cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
            if (stop_) return;
            seen = generation_;
            ++active_;
            lk.unlock();
            drain();
            lk.lock();
            if (--active_ == 0 && next_.load(std::memory_order_relaxed) >= total_)
                done_cv_.notify_all();
        }
    }

    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    const std::function<void(int)>* job_{nullptr};
    std::atomic<int> next_{0};
    int total_{0};
    int active_{0};
    std::uint64_t generation_{0};
    bool stop_{false};
    std::mutex err_m_;
    std::exception_ptr error_{nullptr};
    int error_index_{-1};
};

}  // namespace ctsim::util

#endif  // CTSIM_UTIL_THREAD_POOL_H
