#include "cts/memory_ladder.h"

#include <string>

#include "util/status.h"

namespace ctsim::cts {

MemoryLadder::~MemoryLadder() {
    if (budget_ != nullptr && shared_state_ == 1) budget_->release(shared_bytes_);
}

bool MemoryLadder::escalate_one(MemoryRung cap) {
    int cur = rung_.load(std::memory_order_relaxed);
    for (;;) {
        if (cur >= static_cast<int>(cap)) return false;
        if (rung_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed))
            return true;
    }
}

void MemoryLadder::escalate_to(MemoryRung r) {
    int cur = rung_.load(std::memory_order_relaxed);
    while (cur < static_cast<int>(r) &&
           !rung_.compare_exchange_weak(cur, static_cast<int>(r),
                                        std::memory_order_relaxed)) {
    }
}

bool MemoryLadder::try_charge(std::uint64_t bytes) {
    if (budget_ == nullptr) return true;
    if (budget_->try_reserve(bytes)) return true;
    escalate_one(MemoryRung::serial);
    return false;
}

void MemoryLadder::charge_required(std::uint64_t bytes, const char* what) {
    if (budget_ == nullptr) return;
    // Walk the remaining rungs between attempts: each escalation
    // releases memory elsewhere (dropped corridor grids, trimmed
    // scratch), so a retry can genuinely succeed.
    for (;;) {
        if (budget_->try_reserve(bytes)) return;
        if (!escalate_one(MemoryRung::serial)) break;
    }
    escalate_to(MemoryRung::exhausted);
    util::throw_status(util::Status::resource_exhaustion(
        std::string("memory budget: ") + what + " needs " + std::to_string(bytes) +
        " bytes over the cap (" + std::to_string(budget_->limit()) +
        " bytes); degradation ladder exhausted at rung " +
        memory_rung_name(MemoryRung::exhausted)));
}

bool MemoryLadder::charge_shared_once(std::uint64_t bytes) {
    if (budget_ == nullptr) return true;
    std::lock_guard<std::mutex> lk(shared_mu_);
    if (shared_state_ == 0) {
        if (budget_->try_reserve(bytes)) {
            shared_state_ = 1;
            shared_bytes_ = bytes;
        } else {
            shared_state_ = 2;
            escalate_one(MemoryRung::serial);
        }
    }
    return shared_state_ == 1;
}

}  // namespace ctsim::cts
