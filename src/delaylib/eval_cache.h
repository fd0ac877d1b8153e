// Memoized delay-model evaluation for the synthesis hot path.
//
// The bottom-up router queries the delay model with a very regular
// pattern: a fixed pessimistic input slew (the assumed slew of the
// synthesis options), a small set of driver/load types, and wire
// lengths that are sums of grid pitches. Re-evaluating the fitted
// polynomial surfaces for every label relaxation dominates synthesis
// time; this cache collapses those queries to a table lookup keyed on
// (driver type, load type, quantized wire length).
//
// Quantization: lengths are rounded to the nearest multiple of
// kQuantumUm. Because delay and slew are smooth in length (fitted
// low-order polynomials), the substitution error is bounded by
// (quantum/2) * max|d(delay)/d(len)| -- well under a tenth of a ps for
// the 2 um quantum.
//
// The feasible-run and buffer-choice queries of the router
// (`max_feasible_run`, `choose_buffer`) are memoized here as well:
// the bisection behind max_feasible_run costs ~40 slew evaluations
// and the seed re-ran it for every maze call.
//
// Instances are NOT thread-safe; use `thread_local_for` to get a
// per-thread cache bound to a (model, options) configuration. Cached
// values are purely functional in the key, so per-thread caches yield
// bit-identical results regardless of query interleaving.
#ifndef CTSIM_DELAYLIB_EVAL_CACHE_H
#define CTSIM_DELAYLIB_EVAL_CACHE_H

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "delaylib/delay_model.h"

namespace ctsim::delaylib {

class EvalCache {
  public:
    /// Length quantization step [um].
    static constexpr double kQuantumUm = 2.0;

    struct Config {
        const DelayModel* model{nullptr};
        double assumed_slew_ps{80.0};   ///< input slew of every cached query
        double target_slew_ps{80.0};    ///< slew budget for feasible-run queries
        bool intelligent_sizing{true};  ///< buffer-choice policy

        friend bool operator==(const Config& a, const Config& b) {
            return a.model == b.model && a.assumed_slew_ps == b.assumed_slew_ps &&
                   a.target_slew_ps == b.target_slew_ps &&
                   a.intelligent_sizing == b.intelligent_sizing;
        }
    };

    EvalCache() = default;
    explicit EvalCache(const Config& cfg) { configure(cfg); }

    /// (Re)bind the cache to a configuration, dropping entries when it
    /// changed. Cheap when the configuration is unchanged.
    void configure(const Config& cfg);
    const Config& config() const { return cfg_; }

    /// Length after quantization.
    static double quantize(double len_um) {
        return std::round(len_um / kQuantumUm) * kQuantumUm;
    }

    /// Single-wire queries at the assumed slew, quantized length.
    /// The maze router's label relaxation issues tens of millions of
    /// these per synthesis, so the filled-slot hit path is inlined
    /// here; misses take the out-of-line slow path, which returns
    /// bit-identical values.
    double wire_delay(int d, int l, double len_um) {
        if (const Slot* s = hit_slot(d, l, len_um); s && (s->filled & 1)) {
            ++stats_.hits;
            return s->wire_delay;
        }
        return wire_delay_slow(d, l, len_um);
    }
    double wire_slew(int d, int l, double len_um) {
        if (const Slot* s = hit_slot(d, l, len_um); s && (s->filled & 2)) {
            ++stats_.hits;
            return s->wire_slew;
        }
        return wire_slew_slow(d, l, len_um);
    }
    /// buffer_delay + wire_delay of a full stage.
    double stage_delay(int d, int l, double len_um) {
        if (const Slot* s = hit_slot(d, l, len_um); s && (s->filled & 4)) {
            ++stats_.hits;
            return s->stage_delay;
        }
        return stage_delay_slow(d, l, len_um);
    }

    /// Largest run driven by `d` into `l` holding the target slew
    /// (memoized bisection; matches cts::max_feasible_run with its
    /// default 4500 um domain cap).
    double max_feasible_run(int d, int l);

    /// Buffer type for committing a run of `len_um` into load `l`
    /// (memoized; matches cts::choose_buffer). -1 encodes "no type
    /// holds the target".
    std::optional<int> choose_buffer(int l, double len_um);

    /// Per-thread cache bound to `cfg`; reconfigured (and flushed) when
    /// the configuration changes between calls on the same thread.
    static EvalCache& thread_local_for(const Config& cfg);

    /// Query counters, for tests and the perf harness.
    struct Stats {
        std::uint64_t hits{0};
        std::uint64_t misses{0};
    };
    const Stats& stats() const { return stats_; }

  private:
    struct Slot {
        double wire_delay;
        double wire_slew;
        double stage_delay;
        std::uint8_t filled;  // bit 0: wire_delay, bit 1: wire_slew, bit 2: stage_delay
    };

    int pair_index(int d, int l) const { return d * type_count_ + l; }
    Slot& slot(int d, int l, double len_um);
    /// Existing slot for a length already inside the grown table, or
    /// nullptr (out-of-range index, unfilled rows). Uses the same
    /// std::round quantization as slot(), so hit/miss paths agree on
    /// the slot for every length.
    const Slot* hit_slot(int d, int l, double len_um) const {
        const auto& row = slots_[pair_index(d, l)];
        const auto idx =
            static_cast<std::size_t>(static_cast<int>(std::round(len_um / kQuantumUm)));
        return idx < row.size() ? &row[idx] : nullptr;
    }
    double wire_delay_slow(int d, int l, double len_um);
    double wire_slew_slow(int d, int l, double len_um);
    double stage_delay_slow(int d, int l, double len_um);

    Config cfg_{};
    /// instance_id() of cfg_.model, captured while it was alive: the
    /// allocator may hand a new model a freed model's address, and a
    /// pointer-only staleness check would then serve the old model's
    /// delays. (The stale pointer itself is never dereferenced.)
    std::uint64_t model_id_{0};
    int type_count_{0};
    // Per (d, l) pair: slots indexed by round(len / kQuantumUm), grown
    // on demand. Lengths beyond kMaxSlots * kQuantumUm fall through
    // uncached.
    static constexpr int kMaxSlots = 16384;
    std::vector<std::vector<Slot>> slots_;
    std::vector<double> feasible_run_;        // per (d, l); NaN = unfilled
    std::vector<std::vector<std::int8_t>> choice_;  // per l, by quantized len; -2 unfilled
    Stats stats_{};
};

}  // namespace ctsim::delaylib

#endif  // CTSIM_DELAYLIB_EVAL_CACHE_H
