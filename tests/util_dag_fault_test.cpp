// Fault injection inside the concurrent executor
// (util/dag_executor.h x util/fault_injection.h): the three probe
// sites -- task allocation, run bodies, the commit lane -- are swept
// as a fault-site x seed x schedule-fuzz cross-product, proving that
// under ANY steal order a fired probe surfaces as the LOWEST-RANK
// structured error with the committed prefix EXACTLY the ranks below
// it, and that the executor stays reusable afterwards. The CI stress
// label runs this under ASan and TSan.
#include "util/dag_executor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "util/fault_injection.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace {

using ctsim::util::DagExecutor;
using ctsim::util::Error;
using ctsim::util::FaultInjector;
using ctsim::util::FaultSite;
using ctsim::util::StatusCode;
using ctsim::util::ThreadPool;

struct FaultGuard {
    ~FaultGuard() { FaultInjector::instance().disarm_all(); }
};

struct FuzzGuard {
    explicit FuzzGuard(unsigned seed) { DagExecutor::set_test_fuzz(seed); }
    ~FuzzGuard() { DagExecutor::set_test_fuzz(0); }
};

/// The injected run/commit errors carry "rank=N"; the prefix
/// assertions key on it.
int parse_rank(const std::string& what) {
    const auto pos = what.find("rank=");
    if (pos == std::string::npos) return -1;
    return std::atoi(what.c_str() + pos + 5);
}

TEST(DagFault, TaskAllocFailureIsStructuredAndLeavesExecutorUsable) {
    FaultGuard guard;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultInjector::instance().arm(FaultSite::dag_task_alloc_fail, seed, 0.5);
        DagExecutor dag;
        std::vector<int> commits;
        int added = 0;
        bool threw = false;
        for (int i = 0; i < 16 && !threw; ++i) {
            try {
                dag.add_node([] {}, [&commits, i] { commits.push_back(i); });
                ++added;
            } catch (const Error& e) {
                EXPECT_EQ(e.status().code(), StatusCode::resource_exhaustion);
                EXPECT_EQ(parse_rank(e.what()), added) << e.what();
                threw = true;
            }
        }
        EXPECT_TRUE(threw) << "seed " << seed << ": p=0.5 never fired in 16 probes";
        FaultInjector::instance().disarm_all();
        // The nodes that were admitted still execute normally.
        dag.execute(nullptr);
        std::vector<int> want(added);
        std::iota(want.begin(), want.end(), 0);
        EXPECT_EQ(commits, want) << "seed " << seed;
    }
}

/// One sweep cell: build `n` independent nodes whose commits record
/// their rank, execute under the armed site, and -- when the probe
/// fires -- assert the lowest-rank-wins / exact-prefix contract.
void sweep_cell(FaultSite site, StatusCode want_code, ThreadPool* pool,
                std::uint64_t seed, double p) {
    const int n = 24;
    FaultInjector::instance().arm(site, seed, p);
    DagExecutor dag;
    std::vector<int> commits;
    for (int i = 0; i < n; ++i)
        dag.add_node([] {}, [&commits, i] { commits.push_back(i); });
    int failed_rank = -1;
    try {
        dag.execute(pool);
    } catch (const Error& e) {
        EXPECT_EQ(e.status().code(), want_code);
        failed_rank = parse_rank(e.what());
        ASSERT_GE(failed_rank, 0) << e.what();
        ASSERT_LT(failed_rank, n) << e.what();
    }
    FaultInjector::instance().disarm_all();
    if (failed_rank < 0) {
        // No fire this seed: the whole graph must have committed.
        ASSERT_EQ(dag.stats().committed, n);
    } else {
        // Exact committed prefix: every rank below the reported
        // failure published, in order, and nothing else -- under any
        // steal order.
        EXPECT_EQ(dag.stats().committed, failed_rank);
        std::vector<int> want(failed_rank);
        std::iota(want.begin(), want.end(), 0);
        EXPECT_EQ(commits, want);
    }
    // Reusable after the failure.
    std::vector<int> again;
    dag.add_node([] {}, [&again] { again.push_back(0); });
    dag.execute(pool);
    EXPECT_EQ(again, (std::vector<int>{0}));
}

TEST(DagFault, RunAndCommitFaultSweepAcrossSeedsAndSchedules) {
    FaultGuard guard;
    ThreadPool pool4(4);
    ThreadPool pool2(2);
    const struct {
        FaultSite site;
        StatusCode code;
    } sites[] = {{FaultSite::dag_run_fail, StatusCode::internal},
                 {FaultSite::dag_commit_fail, StatusCode::internal}};
    for (const auto& s : sites)
        for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool4})
            for (unsigned fuzz = 0; fuzz <= 4; ++fuzz) {
                FuzzGuard fz(fuzz);  // 0 = default locality-first policy
                for (std::uint64_t seed = 1; seed <= 8; ++seed)
                    sweep_cell(s.site, s.code, pool, seed, 0.2);
            }
}

TEST(DagFault, InlineSweepIsDeterministicPerSeed) {
    // Inline execution probes in a fixed order, so the fired rank --
    // not just the contract -- must reproduce exactly.
    FaultGuard guard;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto run = [&](FaultSite site) -> std::pair<int, int> {
            FaultInjector::instance().arm(site, seed, 0.3);
            DagExecutor dag;
            for (int i = 0; i < 24; ++i) dag.add_node([] {}, [] {});
            int rank = -1;
            try {
                dag.execute(nullptr);
            } catch (const Error& e) {
                rank = parse_rank(e.what());
            }
            FaultInjector::instance().disarm_all();
            return {rank, dag.stats().committed};
        };
        for (const FaultSite site : {FaultSite::dag_run_fail, FaultSite::dag_commit_fail}) {
            const auto a = run(site);
            const auto b = run(site);
            EXPECT_EQ(a, b) << "seed " << seed;
        }
    }
}

}  // namespace
