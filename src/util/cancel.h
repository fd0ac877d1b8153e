// Cooperative cancellation for long-running synthesis work.
//
// A CancelToken is polled (`checked()`) at bounded intervals inside
// the expensive loops -- maze expansion pops, per-merge level work,
// refine sweep bodies -- and trips either
//   * explicitly (`cancel()`),
//   * when a wall-clock deadline expires (`set_deadline_ms`), or
//   * deterministically after a fixed number of polls (`trip_after`),
//     the mode tests use to pin an exact, reproducible cut point.
//
// Once tripped a token stays tripped. Polling is thread-safe (the
// level-parallel merge tasks share one token); the poll counter is a
// single relaxed fetch_add, so the checks cost nothing measurable on
// the hot paths. What a consumer DOES on a tripped token is its own
// contract -- the synthesis pipeline degrades to a valid prefix
// rather than aborting (see docs/robustness.md).
#ifndef CTSIM_UTIL_CANCEL_H
#define CTSIM_UTIL_CANCEL_H

#include <atomic>
#include <chrono>
#include <cstdint>

namespace ctsim::util {

class CancelToken {
  public:
    CancelToken() = default;

    /// Trip now (safe from any thread).
    void cancel() { tripped_.store(true, std::memory_order_relaxed); }

    /// Trip once `ms` of wall-clock time elapse from this call.
    /// Configure before handing the token to workers.
    void set_deadline_ms(double ms) {
        has_deadline_ = ms > 0.0;
        if (has_deadline_)
            deadline_ = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
    }

    /// Deterministic test mode: trip on the n-th checked() poll. In a
    /// serial run the poll sequence is a pure function of the input,
    /// so the same n reproduces the same cut point bit-for-bit.
    /// Configure before handing the token to workers.
    void trip_after(std::uint64_t n) {
        trip_at_ = n;
        has_trip_count_ = n > 0;
    }

    /// Has the token tripped? (One relaxed load; does not advance the
    /// deterministic poll counter.)
    bool cancelled() const { return tripped_.load(std::memory_order_relaxed); }

    /// Poll: counts toward trip_after and samples the deadline.
    /// Returns true once tripped (and forever after).
    bool checked() {
        if (tripped_.load(std::memory_order_relaxed)) return true;
        const std::uint64_t n = checks_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (has_trip_count_ && n >= trip_at_) {
            tripped_.store(true, std::memory_order_relaxed);
            return true;
        }
        if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
            tripped_.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /// Polls so far (diagnostics / tests).
    std::uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }

  private:
    std::atomic<bool> tripped_{false};
    std::atomic<std::uint64_t> checks_{0};
    std::uint64_t trip_at_{0};
    bool has_trip_count_{false};
    bool has_deadline_{false};
    std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace ctsim::util

#endif  // CTSIM_UTIL_CANCEL_H
