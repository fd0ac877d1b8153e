// util::MemoryBudget (hierarchical byte accountant) and
// cts::MemoryLadder (the degradation policy the synthesis pipeline
// runs on top of it). The pipeline-level budget sweep lives in
// tests/cts_memory_budget_test.cpp; this file pins the primitives.
#include "util/memory_budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "cts/memory_ladder.h"
#include "util/status.h"

namespace {

using ctsim::cts::MemoryLadder;
using ctsim::cts::MemoryRung;
using ctsim::util::Error;
using ctsim::util::MemoryBudget;
using ctsim::util::StatusCode;

TEST(MemoryBudget, ReserveReleaseRespectsLimit) {
    MemoryBudget b(100);
    EXPECT_TRUE(b.try_reserve(60));
    EXPECT_EQ(b.used(), 60u);
    EXPECT_FALSE(b.try_reserve(60));  // would exceed the cap
    EXPECT_EQ(b.used(), 60u);         // refusal left nothing behind
    EXPECT_TRUE(b.try_reserve(40));   // exact fit is fine
    EXPECT_EQ(b.used(), 100u);
    b.release(60);
    EXPECT_TRUE(b.try_reserve(50));
    EXPECT_EQ(b.used(), 90u);
    EXPECT_EQ(b.peak(), 100u);  // high-water survives the release
    b.release(90);
    EXPECT_EQ(b.used(), 0u);
}

TEST(MemoryBudget, UnlimitedStillTracksPeak) {
    // limit 0 = unlimited, but used/peak still account -- this is how
    // the budget sweep measures its baseline peak before capping.
    MemoryBudget b(0);
    EXPECT_TRUE(b.try_reserve(1u << 30));
    EXPECT_TRUE(b.try_reserve(1u << 30));
    EXPECT_EQ(b.peak(), std::uint64_t{2} << 30);
    b.release(std::uint64_t{2} << 30);
    EXPECT_EQ(b.used(), 0u);
    EXPECT_EQ(b.peak(), std::uint64_t{2} << 30);
    EXPECT_TRUE(b.try_reserve(0));  // zero-byte reserve is a no-op
    EXPECT_EQ(b.used(), 0u);
}

TEST(MemoryBudget, ParentRefusalRollsBackAtomically) {
    // An unlimited child under a capped parent: when the parent
    // refuses, the child's partial reservation must be rolled back so
    // the caller sees all-or-nothing.
    MemoryBudget parent(100);
    MemoryBudget child_a(0, &parent);
    MemoryBudget child_b(0, &parent);
    EXPECT_TRUE(child_a.try_reserve(70));
    EXPECT_EQ(parent.used(), 70u);
    EXPECT_FALSE(child_b.try_reserve(40));  // parent has only 30 left
    EXPECT_EQ(child_b.used(), 0u);          // rolled back
    EXPECT_EQ(parent.used(), 70u);
    EXPECT_TRUE(child_b.try_reserve(30));
    EXPECT_EQ(parent.used(), 100u);
    child_a.release(70);
    EXPECT_EQ(parent.used(), 30u);  // release flows root-ward too
    child_b.release(30);
    EXPECT_EQ(parent.used(), 0u);
}

TEST(MemoryBudget, ChildCapBelowParent) {
    MemoryBudget parent(0);
    MemoryBudget child(50, &parent);
    EXPECT_TRUE(child.try_reserve(50));
    EXPECT_FALSE(child.try_reserve(1));  // child's own cap refuses
    EXPECT_EQ(parent.used(), 50u);       // and the parent never saw it
    child.release(50);
}

TEST(MemoryBudget, ConcurrentReserveReleaseBalances) {
    // Hammer one capped budget from many threads; the cap may refuse
    // but accounting must balance to zero and never exceed the limit
    // (TSan covers the race half of this contract in CI).
    MemoryBudget b(1000);
    std::atomic<std::uint64_t> granted{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&b, &granted] {
            for (int i = 0; i < 2000; ++i) {
                const std::uint64_t bytes = 1 + (i % 97);
                if (b.try_reserve(bytes)) {
                    granted.fetch_add(1, std::memory_order_relaxed);
                    b.release(bytes);
                }
            }
        });
    for (auto& th : threads) th.join();
    EXPECT_EQ(b.used(), 0u);
    EXPECT_GT(granted.load(), 0u);
    EXPECT_LE(b.peak(), 1000u);
}

TEST(MemoryLadder, NullBudgetDisablesEverything) {
    MemoryLadder ladder(nullptr);
    EXPECT_FALSE(ladder.enabled());
    EXPECT_TRUE(ladder.try_charge(std::uint64_t{1} << 40));
    ladder.charge_required(std::uint64_t{1} << 40, "arena");  // must not throw
    EXPECT_TRUE(ladder.charge_shared_once(std::uint64_t{1} << 40));
    EXPECT_EQ(ladder.rung(), MemoryRung::none);
}

TEST(MemoryLadder, OptionalChargeEscalatesOneRungAndStopsAtLeanScratch) {
    MemoryBudget b(100);
    MemoryLadder ladder(&b);
    ASSERT_TRUE(b.try_reserve(100));  // budget already full
    EXPECT_FALSE(ladder.try_charge(10));
    EXPECT_EQ(ladder.rung(), MemoryRung::drop_c2f);
    EXPECT_FALSE(ladder.try_charge(10));
    EXPECT_EQ(ladder.rung(), MemoryRung::lean_scratch);
    // Optional charges never escalate past lean_scratch -- exhausted
    // is reserved for a REQUIRED charge the pipeline cannot skip.
    EXPECT_FALSE(ladder.try_charge(10));
    EXPECT_EQ(ladder.rung(), MemoryRung::lean_scratch);
    b.release(100);
    EXPECT_TRUE(ladder.try_charge(10));  // space again: charge succeeds
    EXPECT_EQ(ladder.rung(), MemoryRung::lean_scratch);  // but rungs are sticky
    ladder.release(10);
}

TEST(MemoryLadder, RequiredChargeWalksLadderThenThrowsTyped) {
    MemoryBudget b(100);
    MemoryLadder ladder(&b);
    ASSERT_TRUE(b.try_reserve(100));
    try {
        ladder.charge_required(10, "tree arena");
        FAIL() << "charge_required should have thrown";
    } catch (const Error& e) {
        EXPECT_EQ(e.status().code(), StatusCode::resource_exhaustion);
        const std::string what = e.what();
        EXPECT_NE(what.find("tree arena"), std::string::npos) << what;
        EXPECT_NE(what.find("exhausted"), std::string::npos) << what;
    }
    EXPECT_EQ(ladder.rung(), MemoryRung::exhausted);
    b.release(100);
    // With space back, required charges succeed again (a daemon can
    // retry the request after the spike passes).
    ladder.charge_required(10, "tree arena");
    ladder.release(10);
}

TEST(MemoryLadder, RequiredChargeSucceedsWithoutEscalating) {
    MemoryBudget b(100);
    MemoryLadder ladder(&b);
    ladder.charge_required(40, "grid");
    EXPECT_EQ(ladder.rung(), MemoryRung::none);
    EXPECT_EQ(b.used(), 40u);
    ladder.release(40);
}

TEST(MemoryLadder, SharedChargeIsOnceAndReleasedOnDestruction) {
    MemoryBudget b(100);
    {
        MemoryLadder ladder(&b);
        EXPECT_TRUE(ladder.charge_shared_once(60));
        EXPECT_EQ(b.used(), 60u);
        // Second ask is answered from the cached decision, not charged
        // again.
        EXPECT_TRUE(ladder.charge_shared_once(60));
        EXPECT_EQ(b.used(), 60u);
    }
    EXPECT_EQ(b.used(), 0u);  // ladder destructor returned the bytes
    {
        MemoryLadder ladder(&b);
        ASSERT_TRUE(b.try_reserve(90));
        EXPECT_FALSE(ladder.charge_shared_once(60));  // no room: refused...
        EXPECT_NE(ladder.rung(), MemoryRung::none);   // ...and escalated
        b.release(90);
        // The refusal sticks for the run even though room came back.
        EXPECT_FALSE(ladder.charge_shared_once(60));
    }
    EXPECT_EQ(b.used(), 0u);
}

TEST(MemoryLadder, EscalateToRecordsDeepestRung) {
    MemoryBudget b(0);
    MemoryLadder ladder(&b);
    ladder.escalate_to(MemoryRung::lean_scratch);
    EXPECT_EQ(ladder.rung(), MemoryRung::lean_scratch);
    ladder.escalate_to(MemoryRung::drop_c2f);  // never goes backwards
    EXPECT_EQ(ladder.rung(), MemoryRung::lean_scratch);
    EXPECT_TRUE(ladder.at_least(MemoryRung::drop_c2f));
    EXPECT_FALSE(ladder.at_least(MemoryRung::exhausted));
}

}  // namespace
