// Deterministic task executor with work stealing and rank-ordered
// commits.
//
// Parallel synthesis runs each level's merges through it: every merge
// is an independent node, a worker starts the next one the moment it
// is free, and commits drain while later routes are still in flight,
// with no level barrier.
//
// THE DETERMINISM CONTRACT (docs/parallelism.md has the long form).
// Every node is split into two phases:
//
//   run     executed concurrently by whichever worker steals it.
//           May read shared state that no commit of the same graph
//           writes and must not write anything another node reads.
//           Typical use: route a merge in a private arena.
//
//   commit  executed in RANK order -- the order nodes were added --
//           by exactly one worker at a time, with commit(i) always
//           after commit(i-1). All shared-state mutation (arena
//           appends, engine notifications, stats) belongs here.
//
// Because every observable write happens in the commit phase and the
// commit sequence is the fixed rank order, the final state is a pure
// function of the graph: steal order, thread count and completion
// order cannot change it. Serial execution (rank-ordered run+commit)
// and any parallel schedule are bit-for-bit identical as long as the
// run phases honor their read-isolation contract -- which is exactly
// what the schedule-fuzzing suite (set_test_fuzz) exists to falsify.
//
// Error propagation matches ThreadPool::parallel_for's
// lowest-index-wins contract: if any run or commit throws, the
// exception of the LOWEST-RANK failing node is rethrown from
// execute(), the committed prefix is exactly the ranks below it, and
// every other node still runs (concurrent peers cannot be recalled,
// and running them keeps the reported rank deterministic). The
// executor is reusable after a failed execution.
//
// Fault injection (docs/robustness.md): dag_task_alloc_fail probes in
// add_node (structured resource_exhaustion before execute()),
// dag_run_fail / dag_commit_fail probe inside the run and commit
// bodies and carry the failing rank in the error message -- the
// stress sweep (tests/util_dag_fault_test.cpp) crosses them with
// seeds and schedule fuzz to prove lowest-rank-wins and the exact
// committed-prefix guarantee under any steal order.
#ifndef CTSIM_UTIL_DAG_EXECUTOR_H
#define CTSIM_UTIL_DAG_EXECUTOR_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "util/thread_pool.h"

namespace ctsim::util {

class DagExecutor {
  public:
    /// What one execute() did, for the profile counters and tests.
    struct Stats {
        int nodes{0};          ///< nodes in the executed graph
        int ran{0};            ///< run phases that executed
        int committed{0};      ///< commits published (a rank prefix)
        std::uint64_t steals{0};  ///< ready nodes taken from another worker
        double idle_s{0.0};    ///< summed worker wait time (all workers)
    };

    DagExecutor() = default;
    DagExecutor(const DagExecutor&) = delete;
    DagExecutor& operator=(const DagExecutor&) = delete;

    /// Add a node; returns its rank (also its commit position). Either
    /// phase may be empty.
    int add_node(std::function<void()> run, std::function<void()> commit = {});

    /// Run the graph to completion over `pool` (null or a 1-wide pool
    /// executes inline, still honoring the fuzz hook's pick order).
    /// Rethrows the lowest-rank failure after the graph settles. The
    /// node list is consumed (cleared) whether execute() throws or
    /// not, so the executor can be reloaded and reused.
    void execute(ThreadPool* pool);

    int size() const { return static_cast<int>(nodes_.size()); }
    const Stats& stats() const { return stats_; }

    /// Schedule-fuzzing test hook (process-global): a nonzero seed
    /// makes every subsequent execute() perturb its pop/steal/push
    /// order with a deterministic per-execution RNG stream. Output
    /// must be bit-identical anyway -- that is the point. 0 restores
    /// the default locality-first policy.
    static void set_test_fuzz(unsigned seed);

  private:
    struct Node {
        std::function<void()> run;
        std::function<void()> commit;
        bool run_done{false};
        bool failed{false};
    };

    void worker_loop(int wid);
    /// Pop a ready node for worker `wid` (own deque first, then steal;
    /// fuzz perturbs every choice). -1 when none available. Lock held.
    int acquire_locked(int wid, std::uint64_t& rng);
    void push_ready_locked(int wid, int node, std::uint64_t& rng);
    void advance_lane(std::unique_lock<std::mutex>& lk);
    void record_error_locked(int rank);
    bool out_of_work_locked() const;
    bool finished_locked() const;

    std::vector<Node> nodes_;
    Stats stats_{};

    // --- execution state (valid only inside execute()) -------------
    std::mutex m_;
    std::condition_variable cv_;
    std::vector<std::deque<int>> ready_;
    int next_commit_{0};
    int running_{0};
    bool lane_busy_{false};
    bool frozen_{false};   ///< lane hit a failed rank; no further commits
    std::exception_ptr error_{nullptr};
    int error_rank_{-1};
    std::uint64_t fuzz_{0};  ///< 0 = locality-first policy
};

}  // namespace ctsim::util

#endif  // CTSIM_UTIL_DAG_EXECUTOR_H
