#include "delaylib/eval_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ctsim::delaylib {

namespace {
constexpr double kUnfilled = std::numeric_limits<double>::quiet_NaN();
}

void EvalCache::configure(const Config& cfg) {
    const std::uint64_t id = cfg.model ? cfg.model->instance_id() : 0;
    if (cfg == cfg_ && id == model_id_ && !slots_.empty()) return;
    cfg_ = cfg;
    model_id_ = id;
    type_count_ = cfg.model ? cfg.model->buffers().count() : 0;
    slots_.assign(static_cast<std::size_t>(type_count_) * type_count_, {});
    feasible_run_.assign(static_cast<std::size_t>(type_count_) * type_count_, kUnfilled);
    choice_.assign(type_count_, {});
    stats_ = Stats{};
}

EvalCache::Slot& EvalCache::slot(int d, int l, double len_um) {
    auto& row = slots_[pair_index(d, l)];
    const int idx = static_cast<int>(std::round(len_um / kQuantumUm));
    if (idx >= static_cast<int>(row.size())) {
        const int want = std::min(std::max(idx + 1, 256), kMaxSlots);
        if (idx >= want) {
            // Beyond the table: serve from a single overflow slot that
            // is never marked filled (degenerates to pass-through).
            static thread_local Slot overflow;
            overflow = Slot{};
            return overflow;
        }
        row.resize(want, Slot{});
    }
    return row[idx];
}

double EvalCache::wire_delay_slow(int d, int l, double len_um) {
    const double q = quantize(len_um);
    Slot& s = slot(d, l, q);
    if (!(s.filled & 1)) {
        s.wire_delay = cfg_.model->wire_delay(d, l, cfg_.assumed_slew_ps, q);
        s.filled |= 1;
        ++stats_.misses;
    } else {
        ++stats_.hits;
    }
    return s.wire_delay;
}

double EvalCache::wire_slew_slow(int d, int l, double len_um) {
    const double q = quantize(len_um);
    Slot& s = slot(d, l, q);
    if (!(s.filled & 2)) {
        s.wire_slew = cfg_.model->wire_slew(d, l, cfg_.assumed_slew_ps, q);
        s.filled |= 2;
        ++stats_.misses;
    } else {
        ++stats_.hits;
    }
    return s.wire_slew;
}

double EvalCache::stage_delay_slow(int d, int l, double len_um) {
    const double q = quantize(len_um);
    Slot& s = slot(d, l, q);
    if (!(s.filled & 4)) {
        s.stage_delay = cfg_.model->buffer_delay(d, l, cfg_.assumed_slew_ps, q) +
                        cfg_.model->wire_delay(d, l, cfg_.assumed_slew_ps, q);
        s.filled |= 4;
        ++stats_.misses;
    } else {
        ++stats_.hits;
    }
    return s.stage_delay;
}

double EvalCache::max_feasible_run(int d, int l) {
    double& cached = feasible_run_[pair_index(d, l)];
    if (!std::isnan(cached)) {
        ++stats_.hits;
        return cached;
    }
    // Mirrors cts::max_feasible_run with upper_um = 1e9: the end slew
    // is monotone in length; bisect inside the characterized domain.
    const DelayModel& m = *cfg_.model;
    const double assumed = cfg_.assumed_slew_ps;
    const double target = cfg_.target_slew_ps;
    double lo = 0.0;
    double hi = 4500.0;
    double run;
    if (m.wire_slew(d, l, assumed, hi) <= target) {
        run = hi;
    } else {
        for (int it = 0; it < 40; ++it) {
            const double mid = 0.5 * (lo + hi);
            if (m.wire_slew(d, l, assumed, mid) <= target)
                lo = mid;
            else
                hi = mid;
        }
        run = lo;
    }
    ++stats_.misses;
    cached = run;
    return run;
}

std::optional<int> EvalCache::choose_buffer(int l, double len_um) {
    const auto direct = [&](double len) -> std::optional<int> {
        std::optional<int> best;
        double best_gap = std::numeric_limits<double>::max();
        for (int t = 0; t < type_count_; ++t) {
            const double slew = cfg_.model->wire_slew(t, l, cfg_.assumed_slew_ps, len);
            if (slew > cfg_.target_slew_ps) continue;
            if (!cfg_.intelligent_sizing) return t;
            const double gap = cfg_.target_slew_ps - slew;
            if (gap < best_gap) {
                best_gap = gap;
                best = t;
            }
        }
        return best;
    };
    const double q = quantize(len_um);
    const int idx = static_cast<int>(std::round(q / kQuantumUm));
    auto& row = choice_[l];
    if (idx >= kMaxSlots) return direct(q);
    if (idx >= static_cast<int>(row.size()))
        row.resize(std::min(std::max(idx + 1, 256), kMaxSlots), -2);
    if (row[idx] == -2) {
        const auto t = direct(q);
        row[idx] = static_cast<std::int8_t>(t ? *t : -1);
        ++stats_.misses;
    } else {
        ++stats_.hits;
    }
    return row[idx] >= 0 ? std::optional<int>(row[idx]) : std::nullopt;
}

EvalCache& EvalCache::thread_local_for(const Config& cfg) {
    static thread_local EvalCache cache;
    cache.configure(cfg);
    return cache;
}

}  // namespace ctsim::delaylib
