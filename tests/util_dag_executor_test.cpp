// Unit tests for util::DagExecutor in isolation: commit-rank
// determinism, lowest-rank-wins error propagation (and reuse after a
// failed run), and schedule-fuzz identity. The cts-level
// schedule-fuzzing suite (cts_schedule_fuzz_test) covers the real
// synthesis graphs.
#include "util/dag_executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace {

using ctsim::util::DagExecutor;
using ctsim::util::ThreadPool;

// Restores the process-global fuzz hook even when a test fails.
struct FuzzGuard {
    explicit FuzzGuard(unsigned seed) { DagExecutor::set_test_fuzz(seed); }
    ~FuzzGuard() { DagExecutor::set_test_fuzz(0); }
};

TEST(DagExecutor, ChainCommitsInRankOrder) {
    // Low ranks run longest, so runs tend to finish out of rank
    // order; commits still publish 0..n-1.
    ThreadPool pool(4);
    DagExecutor dag;
    std::vector<int> commits;
    const int n = 32;
    for (int i = 0; i < n; ++i)
        dag.add_node(
            [i] {
                for (int k = 0; k < (n - i) * 4; ++k) std::this_thread::yield();
            },
            [&commits, i] { commits.push_back(i); });
    dag.execute(&pool);
    std::vector<int> want(n);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(commits, want);
    EXPECT_EQ(dag.stats().committed, n);
    EXPECT_EQ(dag.stats().ran, n);
}

TEST(DagExecutor, FanOutPublishesInRankOrder) {
    ThreadPool pool(4);
    DagExecutor dag;
    std::vector<int> commits;
    for (int i = 0; i <= 24; ++i)
        dag.add_node([] {}, [&commits, i] { commits.push_back(i); });
    dag.execute(&pool);
    std::vector<int> want(25);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(commits, want);
}

TEST(DagExecutor, LowestRankErrorWinsAndPrefixCommits) {
    ThreadPool pool(4);
    for (unsigned seed = 0; seed < 8; ++seed) {
        FuzzGuard fuzz(seed);  // seed 0 = default policy
        DagExecutor dag;
        std::vector<int> commits;
        std::atomic<int> ran{0};
        const int n = 12;
        for (int i = 0; i < n; ++i) {
            dag.add_node(
                [&ran, i] {
                    ran++;
                    if (i == 4 || i == 9)
                        throw std::runtime_error("boom at " + std::to_string(i));
                },
                [&commits, i] { commits.push_back(i); });
        }
        // Independent nodes: every run executes even after a failure
        // (parallel_for's contract), the LOWEST failing rank wins, and
        // the committed prefix is exactly the ranks below it.
        try {
            dag.execute(&pool);
            FAIL() << "expected rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom at 4");
        }
        EXPECT_EQ(ran.load(), n);
        std::vector<int> want(4);
        std::iota(want.begin(), want.end(), 0);
        EXPECT_EQ(commits, want) << "seed " << seed;
        EXPECT_EQ(dag.stats().committed, 4);

        // The executor is reusable after a failed run.
        std::vector<int> again;
        dag.add_node([] {}, [&again] { again.push_back(0); });
        dag.add_node([] {}, [&again] { again.push_back(1); });
        dag.execute(&pool);
        EXPECT_EQ(again, (std::vector<int>{0, 1}));
    }
}

TEST(DagExecutor, CommitExceptionFreezesLane) {
    ThreadPool pool(4);
    DagExecutor dag;
    std::vector<int> commits;
    for (int i = 0; i < 8; ++i) {
        dag.add_node([] {}, [&commits, i] {
            if (i == 3) throw std::runtime_error("commit boom");
            commits.push_back(i);
        });
    }
    EXPECT_THROW(dag.execute(&pool), std::runtime_error);
    EXPECT_EQ(commits, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(dag.stats().committed, 3);
}

TEST(DagExecutor, InlineExecutionMatchesPooled) {
    // pool == nullptr runs inline; a 1-wide pool spawns no workers.
    ThreadPool one(1);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
        DagExecutor dag;
        std::vector<int> commits;
        for (int i = 0; i < 6; ++i)
            dag.add_node([] {}, [&commits, i] { commits.push_back(i); });
        dag.execute(pool);
        EXPECT_EQ(commits, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    }
}

TEST(DagExecutor, FuzzedSchedulesAreBitIdentical) {
    // Each run derives a value from private state; each commit folds
    // it into a running hash, so the published sequence depends on
    // the commit order. Any schedule that honors the contract
    // publishes the same sequence.
    const int n = 48;
    std::vector<std::uint64_t> want;
    for (int threads : {1, 2, 3, 8}) {
        ThreadPool pool(threads);
        for (unsigned seed = 1; seed <= 10; ++seed) {
            FuzzGuard fuzz(seed);
            DagExecutor dag;
            std::vector<std::uint64_t> value(n, 0);
            std::uint64_t acc = 0;
            std::vector<std::uint64_t> published;
            for (int i = 0; i < n; ++i) {
                dag.add_node(
                    [&value, i] {
                        std::uint64_t v = i;
                        for (int k = 0; k < i % 7; ++k) v = 3 * v + k;
                        value[i] = v;
                    },
                    [&value, &acc, &published, i] {
                        acc = 31 * acc + value[i];
                        published.push_back(acc);
                    });
            }
            dag.execute(&pool);
            EXPECT_EQ(dag.stats().committed, n);
            if (want.empty())
                want = published;
            else
                EXPECT_EQ(published, want)
                    << "threads " << threads << " seed " << seed;
        }
    }
}

TEST(DagExecutor, StatsAccountForWork) {
    ThreadPool pool(4);
    DagExecutor dag;
    for (int i = 0; i < 20; ++i) dag.add_node([] {}, [] {});
    dag.execute(&pool);
    const DagExecutor::Stats& st = dag.stats();
    EXPECT_EQ(st.nodes, 20);
    EXPECT_EQ(st.ran, 20);
    EXPECT_EQ(st.committed, 20);
    // Empty graph is a no-op.
    dag.execute(&pool);
    EXPECT_EQ(dag.stats().nodes, 0);
}

}  // namespace
