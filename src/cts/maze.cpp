#include "cts/maze.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "cts/maze_rows.h"
#include "cts/memory_ladder.h"
#include "cts/phase_profile.h"
#include "delaylib/eval_cache.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace ctsim::cts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cold label payload of one routed cell (SoA: the hot comparison
/// keys -- epoch stamp and cost estimate -- live in their own dense
/// arrays so frontier scans and relax rejections touch 12 bytes per
/// cell instead of the whole label).
struct LabelData {
    double delay_complete_max{0.0};
    double delay_complete_min{0.0};
    double run_len{0.0};
    double placed_run_below{0.0};
    std::int32_t run_load{0};
    std::int32_t nbuf{0};
    std::int32_t prev{-1};         ///< predecessor cell index
    std::int16_t placed_type{-1};
    bool placed{false};            ///< buffer committed on the step into this cell
    /// Bucket-queue dedupe: the label was expanded at its current est.
    /// Cleared whenever a relax improves the label, so stale queue
    /// entries skip and improved labels re-expand.
    bool expanded{false};
};

/// One side's pooled label grid, reused across maze calls (epoch
/// stamps invalidate previous merges' labels without a clear).
struct SidePool {
    std::vector<std::uint32_t> stamp;
    std::vector<double> est;
    std::vector<LabelData> data;

    void ensure(int cells) {
        if (stamp.size() < static_cast<std::size_t>(cells)) {
            stamp.resize(cells, 0);
            est.resize(cells, 0.0);
            data.resize(cells);
        }
    }
    void hard_reset() { std::fill(stamp.begin(), stamp.end(), 0u); }
};

/// Visit every in-bounds cell at L1 cell-distance `ring` from `src`.
template <typename Fn>
void for_each_ring_cell(const geom::RoutingGrid& grid, geom::Cell src, int ring, Fn&& fn) {
    const int nx = grid.nx(), ny = grid.ny();
    const int sx = src.ix, sy = src.iy;
    for (int dx = -std::min(ring, sx); dx <= std::min(ring, nx - 1 - sx); ++dx) {
        const int rem = ring - std::abs(dx);
        for (int dy : {-rem, rem}) {
            const int y = sy + dy;
            if (y < 0 || y >= ny) continue;
            fn(sx + dx, y, dx, dy);
            if (dy == 0) break;  // avoid visiting {x, sy} twice
        }
    }
}

/// Monotone bucket queue over quantized path cost. Entries are lazy
/// (a cell may sit in several buckets after repeated improvements);
/// the per-label `expanded` flag dedupes at pop time. Entries carry
/// their cell coordinates so expansion never pays the index->cell
/// division. Pushes below the current bucket -- possible only through
/// the fitted surfaces' sub-kMazeMonoSlackPs non-monotonicity -- are
/// clamped into the current bucket, which is why every frontier bound
/// derived from floor() carries that slack.
class BucketQueue {
  public:
    struct Entry {
        std::int32_t idx;
        std::int16_t ix, iy;
    };

    void init(double base_est, double width_ps) {
        // Clear only the still-populated range of the previous run.
        for (std::size_t i = cur_; i <= max_used_ && i < buckets_.size(); ++i)
            buckets_[i].clear();
        base_ = std::max(base_est, 0.0);
        inv_width_ = 1.0 / width_ps;
        width_ = width_ps;
        cur_ = 0;
        max_used_ = 0;
    }

    double base() const { return base_; }

    void push(double est, Entry e) {
        std::size_t b = bucket_of(est);
        if (b < cur_) b = cur_;  // monotone clamp (fit-noise decreases)
        if (b >= buckets_.size()) buckets_.resize(b + 64);
        buckets_[b].push_back(e);
        max_used_ = std::max(max_used_, b);
    }

    /// Lower bound (minus clamp slack) on every entry still queued;
    /// +inf when empty. Advances past drained buckets.
    double floor() {
        while (cur_ <= max_used_ && buckets_[cur_].empty()) ++cur_;
        if (cur_ > max_used_) return kInf;
        return base_ + static_cast<double>(cur_) * width_;
    }

    /// Next entry in cost order; idx < 0 when empty. floor() must be
    /// called first (it positions cur_ on a non-empty bucket).
    Entry pop() {
        if (cur_ > max_used_ || buckets_[cur_].empty()) return {-1, 0, 0};
        const Entry e = buckets_[cur_].back();
        buckets_[cur_].pop_back();
        return e;
    }

  private:
    std::size_t bucket_of(double est) const {
        const double rel = (est - base_) * inv_width_;
        return rel <= 0.0 ? 0 : static_cast<std::size_t>(rel);
    }

    std::vector<std::vector<Entry>> buckets_;
    std::size_t cur_{0};
    std::size_t max_used_{0};
    double base_{0.0};
    double width_{1.0};
    double inv_width_{1.0};
};

/// Epoch-stamped cell mask restricting a refinement pass to the
/// corridor around a coarse route.
struct Corridor {
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch{0};

    void begin(int cells) {
        if (stamp.size() < static_cast<std::size_t>(cells)) stamp.resize(cells, 0);
        if (++epoch == 0) {
            std::fill(stamp.begin(), stamp.end(), 0u);
            epoch = 1;
        }
    }
    bool contains(int idx) const { return stamp[idx] == epoch; }
    void mark(const geom::RoutingGrid& g, geom::Cell c) {
        if (g.in_bounds(c)) stamp[g.index(c)] = epoch;
    }
};

/// One side's monotone label DP over a routing grid.
///
/// All delay-model queries go through the precomputed DelayRows when
/// available (pure array lookups, bit-identical to the EvalCache) and
/// fall back to the per-thread EvalCache otherwise.
class SideDp {
  public:
    SideDp(const geom::RoutingGrid& grid, const RouteEndpoint& ep,
           const delaylib::DelayModel& model, const DelayRows* rows,
           const Corridor* corridor, delaylib::EvalCache& ec, SidePool& pool,
           std::uint32_t epoch)
        : grid_(grid), ec_(ec), rows_(rows), corridor_(corridor), pool_(pool),
          epoch_(epoch) {
        tmax_ = model.buffers().largest();
        source_cell_ = grid.cell_of(ep.pos);
        source_pos_ = ep.pos;
        pool_.ensure(grid.cell_count());
        // Feasible-run limit per load type, for the largest driver:
        // this is the hot query of the whole router. Runs are
        // deliberately capped below the slew-limited maximum (60%) so
        // that downstream stages retain wire-trim headroom for the
        // merge-time delay balancing; the remainder is also a guard
        // band for branch loading at merge points.
        if (rows_) {
            run_limit_ = rows_->run_limit.data();
        } else {
            run_limit_own_.resize(model.buffers().count());
            for (int lt = 0; lt < model.buffers().count(); ++lt)
                run_limit_own_[lt] = maze_run_cap(ec_, tmax_, lt);
            run_limit_ = run_limit_own_.data();
        }

        const int sx = source_cell_.ix, sy = source_cell_.iy;
        max_ring_ = std::max(sx, grid.nx() - 1 - sx) + std::max(sy, grid.ny() - 1 - sy);

        const int sidx = grid.index(source_cell_);
        LabelData seed;
        double dmax = ep.delay_max_ps;
        double dmin = ep.delay_min_ps;
        seed.run_len = 0.0;
        seed.run_load = ep.load_type;
        if (ep.force_root_buffer) {
            // Commit a buffer right at the subtree root (smallest type:
            // it sees no wire below, so any type holds the slew).
            const int t = model.buffers().smallest();
            const double stage_delay = ec_.stage_delay(t, ep.load_type, 0.0);
            dmax += stage_delay;
            dmin += stage_delay;
            seed.run_load = t;
            seed.nbuf = 1;
            seed.placed = true;
            seed.placed_type = static_cast<std::int16_t>(t);
            seed.placed_run_below = 0.0;
        }
        seed.delay_complete_max = dmax;
        seed.delay_complete_min = dmin;
        pool_.stamp[sidx] = epoch_;
        pool_.est[sidx] = dmax + wire_delay(seed.run_load, 0.0);
        pool_.data[sidx] = seed;
    }

    bool valid_at_index(int idx) const { return pool_.stamp[idx] == epoch_; }
    geom::Cell source_cell() const { return source_cell_; }
    int source_index() const { return grid_.index(source_cell_); }
    int max_ring() const { return max_ring_; }

    /// Pessimistic delay from a would-be merge at `c` down to the
    /// slowest sink of this side.
    double delay_at(geom::Cell c) const { return pool_.est[grid_.index(c)]; }
    double est_at_index(int idx) const { return pool_.est[idx]; }
    int nbuf_at_index(int idx) const { return pool_.data[idx].nbuf; }
    bool expanded_at_index(int idx) const {
        return pool_.stamp[idx] == epoch_ && pool_.data[idx].expanded;
    }

    /// Dense reference sweep: relax every cell at L1 cell-distance
    /// `ring` from the source from its up-to-two predecessors (one
    /// step closer in x or y).
    void relax_ring(int ring) {
        if (ring < 1 || ring > max_ring_) return;
        for_each_ring_cell(grid_, source_cell_, ring, [&](int x, int y, int dx, int dy) {
            const int to = grid_.index({x, y});
            if (dx != 0) {
                const int px = x + (dx > 0 ? -1 : 1);
                relax(grid_.index({px, y}), to, grid_.pitch_x());
            }
            if (dy != 0) {
                const int py = y + (dy > 0 ? -1 : 1);
                relax(grid_.index({x, py}), to, grid_.pitch_y());
            }
        });
    }

    /// Bucket-frontier expansion: relax the monotone out-edges of the
    /// label at `e`, queueing every improved neighbor. Returns false
    /// when the pop was stale (already expanded at this est).
    bool expand(BucketQueue::Entry e, BucketQueue& q) {
        LabelData& d = pool_.data[e.idx];
        if (d.expanded) return false;
        d.expanded = true;
        const int dx = e.ix - source_cell_.ix;
        const int dy = e.iy - source_cell_.iy;
        // Staircase monotonicity: steps move away from the source in
        // each axis (both directions from the source row/column).
        if (dx >= 0 && e.ix + 1 < grid_.nx())
            relax_into(e.idx, {e.idx + 1, static_cast<std::int16_t>(e.ix + 1), e.iy},
                       grid_.pitch_x(), q);
        if (dx <= 0 && e.ix - 1 >= 0)
            relax_into(e.idx, {e.idx - 1, static_cast<std::int16_t>(e.ix - 1), e.iy},
                       grid_.pitch_x(), q);
        if (dy >= 0 && e.iy + 1 < grid_.ny())
            relax_into(e.idx,
                       {e.idx + grid_.nx(), e.ix, static_cast<std::int16_t>(e.iy + 1)},
                       grid_.pitch_y(), q);
        if (dy <= 0 && e.iy - 1 >= 0)
            relax_into(e.idx,
                       {e.idx - grid_.nx(), e.ix, static_cast<std::int16_t>(e.iy - 1)},
                       grid_.pitch_y(), q);
        return true;
    }

    /// Reconstruct the routed path from the source cell to `meet`.
    RoutedPath reconstruct(geom::Cell meet) const {
        RoutedPath path;
        // Walk back collecting cells and buffer placements.
        std::vector<geom::Cell> cells;
        std::vector<const LabelData*> labs;
        int idx = grid_.index(meet);
        while (idx >= 0) {
            cells.push_back(grid_.cell_at_index(idx));
            labs.push_back(&pool_.data[idx]);
            idx = pool_.data[idx].prev;
        }
        std::reverse(cells.begin(), cells.end());
        std::reverse(labs.begin(), labs.end());

        for (std::size_t k = 0; k < cells.size(); ++k) {
            const geom::Pt p = k == 0 ? source_pos_ : grid_.center(cells[k]);
            path.trace.push_back(p);
            if (labs[k]->placed) {
                // The buffer sits at the cell where the run below it
                // ended: for the seed (k == 0) that is the root itself;
                // otherwise the predecessor cell.
                const int bidx = k == 0 ? 0 : static_cast<int>(k) - 1;
                path.buffers.push_back({path.trace[bidx], labs[k]->placed_type, bidx,
                                        labs[k]->placed_run_below});
            }
        }
        const LabelData* lab = labs.back();
        path.tail_um = lab->run_len;
        path.tail_load_type = lab->run_load;
        path.delay_complete_max_ps = lab->delay_complete_max;
        path.delay_complete_min_ps = lab->delay_complete_min;
        return path;
    }

  private:
    double wire_delay(int load, double run) {
        if (rows_) {
            const int i = rows_->index_of(run);
            if (rows_->covers(load, i)) return rows_->rows[load].wire_delay[i];
        }
        return ec_.wire_delay(tmax_, load, run);
    }

    void relax_into(int from_idx, BucketQueue::Entry to, double step_um, BucketQueue& q) {
        if (corridor_ && !corridor_->contains(to.idx)) return;
        if (relax(from_idx, to.idx, step_um)) q.push(pool_.est[to.idx], to);
    }

    /// Try to improve cell `to` from label at `from_idx` over a step of
    /// `step_um`. Scalars only until the candidate wins: in the common
    /// case (losing to the other predecessor) nothing is written.
    /// Returns true when the destination label improved.
    bool relax(int from_idx, int to_idx, double step_um) {
        if (pool_.stamp[from_idx] != epoch_) return false;
        const LabelData& src = pool_.data[from_idx];

        double dmax = src.delay_complete_max;
        double dmin = src.delay_complete_min;
        double run;
        int load;
        int nbuf = src.nbuf;
        bool placed = false;
        int placed_type = -1;
        double placed_run_below = 0.0;

        const double new_run = src.run_len + step_um;
        if (new_run <= run_limit_[src.run_load]) {
            run = new_run;
            load = src.run_load;
        } else {
            // Commit a buffer at the predecessor cell: intelligent
            // sizing over the run accumulated so far.
            int t = -1;
            double stage = 0.0;
            bool served = false;
            if (rows_) {
                const int ci = rows_->index_of(src.run_len);
                if (rows_->covers(src.run_load, ci)) {
                    t = rows_->rows[src.run_load].choice[ci];
                    if (t < 0) return false;  // cannot hold slew; label dies
                    stage = rows_->rows[src.run_load].stage_delay[ci];
                    served = true;
                }
            }
            if (!served) {
                const auto tt = ec_.choose_buffer(src.run_load, src.run_len);
                if (!tt.has_value()) return false;
                t = *tt;
                stage = ec_.stage_delay(t, src.run_load, src.run_len);
            }
            dmax += stage;
            dmin += stage;
            load = t;
            run = step_um;
            nbuf += 1;
            placed = true;
            placed_type = t;
            placed_run_below = src.run_len;
        }
        const double est = dmax + wire_delay(load, run);

        if (pool_.stamp[to_idx] == epoch_ &&
            !(est < pool_.est[to_idx] ||
              (est == pool_.est[to_idx] && nbuf < pool_.data[to_idx].nbuf)))
            return false;
        pool_.stamp[to_idx] = epoch_;
        pool_.est[to_idx] = est;
        LabelData& dst = pool_.data[to_idx];
        dst.delay_complete_max = dmax;
        dst.delay_complete_min = dmin;
        dst.run_len = run;
        dst.run_load = load;
        dst.nbuf = nbuf;
        dst.prev = from_idx;
        dst.placed = placed;
        dst.placed_type = static_cast<std::int16_t>(placed_type);
        dst.placed_run_below = placed_run_below;
        dst.expanded = false;
        return true;
    }

    const geom::RoutingGrid& grid_;
    delaylib::EvalCache& ec_;
    const DelayRows* rows_{nullptr};
    const Corridor* corridor_{nullptr};
    SidePool& pool_;
    const double* run_limit_{nullptr};
    std::vector<double> run_limit_own_;
    geom::Cell source_cell_{};
    geom::Pt source_pos_{};
    int tmax_{0};
    int max_ring_{0};
    std::uint32_t epoch_{0};
};

/// Incumbent meet cell under the paper's selection rule: minimize
/// |d1 - d2|, tie-broken by total. With `tol > 0` (the bucket
/// frontier), diffs within `tol` count as ties (preferring the smaller
/// total), which keeps fit-level noise in far cells from outbidding a
/// near-ideal meet and is what makes a sound early exit possible;
/// `tol == 0` is the dense reference's exact selection.
struct MeetIncumbent {
    double best_diff{std::numeric_limits<double>::max()};
    double best_total{std::numeric_limits<double>::max()};
    int best_idx{-1};
    double tol{0.0};

    /// Returns true only for a *material* improvement (a quarter-ps
    /// move of either score): marginal tie-break gains must not reset
    /// the caller's stale streak or expansion drags on.
    bool offer(int idx, double d1, double d2) {
        const double diff = std::abs(d1 - d2);
        const double total = d1 + d2;
        if (tol <= 0.0) {
            if (diff < best_diff - 1e-12 ||
                (std::abs(diff - best_diff) <= 1e-12 && total < best_total)) {
                best_diff = diff;
                best_total = total;
                best_idx = idx;
                return true;
            }
            return false;
        }
        if (diff < best_diff - tol ||
            (diff <= best_diff + tol && total < best_total - 1e-12)) {
            const bool material = diff < best_diff - 0.25 || total < best_total - 0.25;
            best_diff = std::min(best_diff, diff);
            best_total = total;
            best_idx = idx;
            return material;
        }
        return false;
    }
};

/// Bucket width of the cost-ordered frontier [ps].
constexpr double kBucketWidthPs = 2.0;

/// Cancellation poll interval of the bucket frontier, in pops. Polls
/// are one relaxed load plus a counter bump, so the interval bounds
/// reaction latency (a few hundred relaxations) rather than cost.
constexpr int kCancelPollPops = 256;

/// Coarse-to-fine configuration: coarsening factor, minimum fine-grid
/// dimension for the two-level route to engage, and corridor radius
/// (Chebyshev, in fine cells) around the coarse path. The radius must
/// cover at least half a coarse cell (kC2fFactor / 2) so the corridor
/// cannot exclude the region the coarse path actually crossed; the
/// values below were swept on the complexity_scaling suite for the
/// best speed at <2% wirelength drift (the corridor-infeasible
/// fallback keeps any residual miss a slowdown, never a failure).
constexpr int kC2fFactor = 5;
constexpr int kC2fMinDim = 20;
constexpr int kC2fRadius = 3;

/// Coarsest label grid the memory ladder may degrade a route to:
/// below this the pitch gets so wide that feasible buffer runs (and
/// with them route validity) start to disappear, so the walk stops
/// here and the last charge goes through the required (typed-throw)
/// path instead.
constexpr int kGridCoarsenMinDim = 9;

/// Per-thread routing scratch, reused across merges and grid levels.
struct RouteScratch {
    SidePool pool1, pool2;
    BucketQueue q1, q2;
    Corridor corridor;
    std::vector<int> cands;  ///< co-labeled cells seen by the bucket path
    std::uint32_t epoch{0};

    std::uint32_t next_epoch() {
        if (++epoch == 0) {  // wrapped: force-reset the pooled grids
            pool1.hard_reset();
            pool2.hard_reset();
            epoch = 1;
        }
        return epoch;
    }
};

RouteScratch& route_scratch() {
    static thread_local RouteScratch s;
    return s;
}

/// Working-set bytes one grid cell pins across both sides' pools
/// (stamp + est + label each) -- what a route charges its memory
/// ladder per cell before labeling.
constexpr std::uint64_t kScratchBytesPerCell =
    2 * (sizeof(std::uint32_t) + sizeof(double) + sizeof(LabelData));

/// Bytes the shared immutable delay rows pin (charged once per run).
std::uint64_t delay_rows_bytes(const DelayRows& r) {
    std::uint64_t b = r.run_limit.size() * sizeof(double);
    for (const DelayRows::LoadRow& row : r.rows)
        b += row.wire_delay.size() * sizeof(double) +
             row.stage_delay.size() * sizeof(double) +
             row.choice.size() * sizeof(std::int16_t);
    return b;
}

/// lean_scratch rung: drop this thread's pooled grids so only the
/// active route's labels stay resident (ensure() regrows on demand).
void trim_route_scratch() { route_scratch() = RouteScratch{}; }

/// One route's memory-ladder lease over its label grids: required
/// bytes throw through the ladder when it is spent, optional bytes
/// (the coarse-to-fine extras) refuse politely. Everything charged is
/// released when the route ends -- the charge models the live working
/// set -- and under the lean_scratch rung the physical pools are
/// trimmed to match.
class ScratchLease {
  public:
    explicit ScratchLease(MemoryLadder* ladder) : ladder_(ladder) {}
    ~ScratchLease() {
        if (ladder_ == nullptr) return;
        if (bytes_ > 0) ladder_->release(bytes_);
        if (ladder_->at_least(MemoryRung::lean_scratch)) trim_route_scratch();
    }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;

    void require(std::uint64_t bytes, const char* what) {
        if (ladder_ == nullptr) return;
        ladder_->charge_required(bytes, what);
        bytes_ += bytes;
    }
    bool try_extra(std::uint64_t bytes) {
        if (ladder_ == nullptr) return true;
        if (!ladder_->try_charge(bytes)) return false;
        bytes_ += bytes;
        return true;
    }

  private:
    MemoryLadder* const ladder_;
    std::uint64_t bytes_{0};
};

/// Route one grid level -- bucket frontier, or the dense reference
/// sweep when `dense`. Returns false when no meet cell was labeled by
/// both sides (possible on coarse grids whose pitch exceeds every
/// buffer's feasible run, or inside an over-tight corridor).
bool route_on_grid(const geom::RoutingGrid& grid, const RouteEndpoint& a,
                   const RouteEndpoint& b, const delaylib::DelayModel& model,
                   const SynthesisOptions& opt, delaylib::EvalCache& ec,
                   const DelayRows* rows, const Corridor* corridor, MazeResult& out,
                   bool dense = false) {
    // Fault probe: a fired site reports this grid level infeasible,
    // driving the c2f fallback (coarse pass) or the structured
    // infeasible_route error (full grid) in maze_route.
    if (util::fault_fire(util::FaultSite::maze_route_infeasible)) return false;

    RouteScratch& sc = route_scratch();
    const std::uint32_t epoch = sc.next_epoch();
    SideDp dp1(grid, a, model, rows, corridor, ec, sc.pool1, epoch);
    SideDp dp2(grid, b, model, rows, corridor, ec, sc.pool2, epoch);

    MeetIncumbent inc;
    inc.tol = dense ? 0.0 : kMazeMeetTolPs;

    const geom::Cell s1 = dp1.source_cell();
    const geom::Cell s2 = dp2.source_cell();

    if (dense) {
        // Reference oracle (maze_route_reference): full independent
        // expansions, then a full-grid scan for the exact minimum-diff
        // meet. Ignores cancellation.
        for (int r = 1; r <= dp1.max_ring(); ++r) dp1.relax_ring(r);
        for (int r = 1; r <= dp2.max_ring(); ++r) dp2.relax_ring(r);
        for (int idx = 0; idx < grid.cell_count(); ++idx) {
            if (!dp1.valid_at_index(idx) || !dp2.valid_at_index(idx)) continue;
            inc.offer(idx, dp1.est_at_index(idx), dp2.est_at_index(idx));
        }
    } else {
        // Sparse frontier: both sides expand best-first from monotone
        // bucket queues over quantized est. Only live labels are
        // touched, and the incumbent bound closes the expansion as
        // soon as no queued bucket can produce a better meet.
        BucketQueue& q1 = sc.q1;
        BucketQueue& q2 = sc.q2;
        std::vector<int>& cands = sc.cands;
        cands.clear();
        const int i1 = dp1.source_index();
        const int i2 = dp2.source_index();
        q1.init(dp1.est_at_index(i1), kBucketWidthPs);
        q2.init(dp2.est_at_index(i2), kBucketWidthPs);
        q1.push(dp1.est_at_index(i1),
                {i1, static_cast<std::int16_t>(s1.ix), static_cast<std::int16_t>(s1.iy)});
        q2.push(dp2.est_at_index(i2),
                {i2, static_cast<std::int16_t>(s2.ix), static_cast<std::int16_t>(s2.iy)});
        if (s1 == s2) {
            cands.push_back(i1);
            inc.offer(i1, dp1.est_at_index(i1), dp2.est_at_index(i2));
        }

        // Clamped below-bucket pushes and fit noise both displace a
        // frontier bound by at most kMazeMonoSlackPs, hence 2x here.
        const double slack = 2.0 * kMazeMonoSlackPs;
        // Stale streak (one "ring" of best-first expansion costs up to
        // ~2(nx+ny) pops across both sides), reset on material
        // incumbent moves. While the diff bound is still open
        // (imbalanced merge), the min-diff meet only appears once the
        // fast front reaches the SLOW side's source, and en route the
        // per-ring improvements can undercut the material threshold;
        // the stale exit is therefore armed only after each side has
        // expanded past the other's source cell (diff plateaus beyond
        // that, so the streak then measures a genuine stall).
        const int stale_limit = 2 * (grid.nx() + grid.ny()) + 48;
        int stale_pops = 0;
        // Cooperative cancellation: poll every kCancelPollPops pops;
        // once tripped, stop at the first incumbent meet (a valid,
        // merely off-optimum route) instead of draining the frontier.
        util::CancelToken* const cancel = opt.cancel;
        bool tripped = cancel && cancel->cancelled();
        int polls_until = kCancelPollPops;
        while (true) {
            if (cancel) {
                if (!tripped && --polls_until <= 0) {
                    polls_until = kCancelPollPops;
                    tripped = cancel->checked();
                }
                if (tripped && inc.best_idx >= 0) {
                    out.degraded = true;
                    break;
                }
            }
            const double f1 = q1.floor();
            const double f2 = q2.floor();
            if (f1 == kInf && f2 == kInf) break;
            if (inc.best_idx >= 0) {
                const bool no_total_win =
                    f1 + f2 - slack > inc.best_total &&
                    2.0 * std::min(f1, f2) - inc.best_diff - inc.tol - slack >
                        inc.best_total;
                if (inc.best_diff <= inc.tol && no_total_win) break;
                // Fallback once the diff bound cannot close: stop when
                // the approach has demonstrably stalled (the binary
                // search and rebalance absorb residual suboptimality).
                const bool armed =
                    inc.best_diff <= inc.tol ||
                    (dp1.expanded_at_index(i2) && dp2.expanded_at_index(i1));
                if (armed && stale_pops > stale_limit) break;
            }
            // Alternate on cost ABOVE each side's base so imbalanced
            // merges advance both fronts in lockstep (pure absolute-
            // cost alternation would flood the fast side's entire
            // region before the slow side expanded at all).
            const bool take1 = f1 == kInf   ? false
                               : f2 == kInf ? true
                                            : f1 - q1.base() <= f2 - q2.base();
            BucketQueue& q = take1 ? q1 : q2;
            SideDp& dp = take1 ? dp1 : dp2;
            SideDp& other = take1 ? dp2 : dp1;
            const BucketQueue::Entry e = q.pop();
            if (e.idx < 0) continue;
            if (!dp.expand(e, q)) continue;  // stale entry
            if (other.valid_at_index(e.idx)) {
                cands.push_back(e.idx);
                const bool improved =
                    inc.offer(e.idx, dp1.est_at_index(e.idx), dp2.est_at_index(e.idx));
                if (inc.best_idx >= 0) stale_pops = improved ? 0 : stale_pops + 1;
            } else if (inc.best_idx >= 0) {
                ++stale_pops;
            }
        }

        // Label-correcting expansion can improve a side's est AFTER a
        // cell was offered, so the running incumbent may hold stale
        // values (they steer only the exit heuristics above). Re-score
        // every co-labeled candidate with the FINAL labels, order-
        // independently: find the minimum achievable diff, then take
        // the smallest-total candidate whose diff lands within the
        // meet tolerance of it (same wire-preferring band the running
        // incumbent uses, without its arrival-order dependence).
        double min_diff = std::numeric_limits<double>::max();
        for (const int idx : cands)
            min_diff = std::min(
                min_diff, std::abs(dp1.est_at_index(idx) - dp2.est_at_index(idx)));
        inc.best_idx = -1;
        inc.best_diff = min_diff;
        inc.best_total = std::numeric_limits<double>::max();
        for (const int idx : cands) {
            const double d1 = dp1.est_at_index(idx);
            const double d2 = dp2.est_at_index(idx);
            if (std::abs(d1 - d2) > min_diff + inc.tol) continue;
            if (d1 + d2 < inc.best_total) {
                inc.best_total = d1 + d2;
                inc.best_idx = idx;
            }
        }
    }
    if (inc.best_idx < 0) return false;

    const geom::Cell meet = grid.cell_at_index(inc.best_idx);
    out.side1 = dp1.reconstruct(meet);
    out.side2 = dp2.reconstruct(meet);
    out.meet = grid.center(meet);
    // Both sides' traces must end exactly at the meet point. A trace of
    // size one means the endpoint itself sits in the meet cell: extend
    // it rather than overwrite the exact endpoint position.
    for (RoutedPath* p : {&out.side1, &out.side2}) {
        if (p->trace.size() <= 1)
            p->trace.push_back(out.meet);
        else
            p->trace.back() = out.meet;
    }
    out.d1_ps = dp1.delay_at(meet);
    out.d2_ps = dp2.delay_at(meet);
    return true;
}

/// Stamp the corridor cells around one coarse trace onto the fine
/// grid: a full box at the first cell, then only the leading edge of
/// the moving box per unit step, so marking costs O(path * radius)
/// instead of O(path * radius^2).
void mark_trace_corridor(Corridor& cor, const geom::RoutingGrid& fine,
                         const std::vector<geom::Pt>& trace, int radius) {
    if (trace.empty()) return;
    geom::Cell prev = fine.cell_of(trace.front());
    for (int dx = -radius; dx <= radius; ++dx)
        for (int dy = -radius; dy <= radius; ++dy)
            cor.mark(fine, {prev.ix + dx, prev.iy + dy});
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const geom::Cell cur = fine.cell_of(trace[i]);
        while (!(prev == cur)) {
            // Unit-step toward cur, x first (coarse trace cells differ
            // in one axis; the source-to-first-center hop may differ
            // in both).
            if (prev.ix != cur.ix)
                prev.ix += prev.ix < cur.ix ? 1 : -1;
            else
                prev.iy += prev.iy < cur.iy ? 1 : -1;
            // Leading edge of the box around the new center.
            for (int d = -radius; d <= radius; ++d) {
                cor.mark(fine, {prev.ix + radius, prev.iy + d});
                cor.mark(fine, {prev.ix - radius, prev.iy + d});
                cor.mark(fine, {prev.ix + d, prev.iy + radius});
                cor.mark(fine, {prev.ix + d, prev.iy - radius});
            }
        }
    }
}

[[noreturn]] void throw_infeasible(const RouteEndpoint& a, const RouteEndpoint& b,
                                   const SynthesisOptions& opt) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "maze: no feasible meet cell between (%.1f, %.1f) and (%.1f, %.1f) "
                  "at slew target %.1f ps",
                  a.pos.x, a.pos.y, b.pos.x, b.pos.y, opt.slew_target_ps);
    util::throw_status(util::Status::infeasible_route(buf));
}

}  // namespace

double max_feasible_run(const delaylib::DelayModel& model, int dtype, int ltype,
                        double assumed_slew, double target_slew, double upper_um) {
    // The end slew is monotone in length; bisect. Upper bound from the
    // fitted domain keeps queries inside the characterized region.
    double lo = 0.0;
    double hi = std::min(upper_um, 4500.0);
    if (model.wire_slew(dtype, ltype, assumed_slew, hi) <= target_slew) return hi;
    for (int it = 0; it < 40; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (model.wire_slew(dtype, ltype, assumed_slew, mid) <= target_slew)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

std::optional<int> choose_buffer(const delaylib::DelayModel& model, int ltype, double run_um,
                                 double assumed_slew, double target_slew,
                                 bool intelligent_sizing) {
    std::optional<int> best;
    double best_gap = std::numeric_limits<double>::max();
    for (int t = 0; t < model.buffers().count(); ++t) {
        const double slew = model.wire_slew(t, ltype, assumed_slew, run_um);
        if (slew > target_slew) continue;
        if (!intelligent_sizing) return t;  // smallest feasible wins
        const double gap = target_slew - slew;
        if (gap < best_gap) {
            best_gap = gap;
            best = t;
        }
    }
    return best;
}

delaylib::EvalCache& eval_cache_for(const delaylib::DelayModel& model,
                                    const SynthesisOptions& opt) {
    delaylib::EvalCache::Config cfg;
    cfg.model = &model;
    cfg.assumed_slew_ps = opt.assumed_slew();
    cfg.target_slew_ps = opt.slew_target_ps;
    cfg.intelligent_sizing = opt.intelligent_sizing;
    return delaylib::EvalCache::thread_local_for(cfg);
}

MazeResult maze_route(const RouteEndpoint& a, const RouteEndpoint& b,
                      const delaylib::DelayModel& model, const SynthesisOptions& opt,
                      const SynthesisContext* ctx) {
    PhaseProfile* const prof = profile_of(ctx);
    ScopedPhase phase(prof, Phase::maze);
    if (prof != nullptr) ++prof->maze_calls;

    const geom::RoutingGrid nominal = geom::RoutingGrid::for_net(
        a.pos, b.pos, opt.grid_cells_per_dim, opt.grid_margin_um, opt.grid_max_pitch_um);
    geom::RoutingGrid grid = nominal;

    delaylib::EvalCache& ec = eval_cache_for(model, opt);
    MemoryLadder* const ladder = ctx != nullptr ? ctx->memory_ladder : nullptr;
    const DelayRows* rows = &delay_rows_for(ec);
    // Under budget pressure the shared rows fall back to the
    // EvalCache -- bit-identical values by the maze_rows.h contract,
    // so the ladder rung changes no routing decision.
    if (rows != nullptr && ladder != nullptr &&
        !ladder->charge_shared_once(delay_rows_bytes(*rows)))
        rows = nullptr;

    MazeResult out;

    // The route's own label grid is non-negotiable -- but its
    // RESOLUTION is not. Rung escalation alone frees nothing at the
    // moment the biggest route asks for its grid (lease charges model
    // the live working set, and that ask IS the peak), so a refusal
    // here must reduce demand, not just record pressure: halve the
    // grid per refusal -- each refusal also escalates one rung --
    // down to kGridCoarsenMinDim, and only when the floor grid still
    // does not fit does the charge go through the required path,
    // which walks the remaining rungs and then raises the typed
    // resource_exhaustion the degradation contract ends in.
    ScratchLease lease(ladder);
    while (!lease.try_extra(static_cast<std::uint64_t>(grid.cell_count()) *
                            kScratchBytesPerCell)) {
        if (std::min(grid.nx(), grid.ny()) / 2 < kGridCoarsenMinDim) {
            lease.require(
                static_cast<std::uint64_t>(grid.cell_count()) * kScratchBytesPerCell,
                "maze label grid");
            break;
        }
        grid = geom::RoutingGrid(grid.region(), grid.nx() / 2, grid.ny() / 2);
        out.grid_coarsened = true;
    }

    // Coarse-to-fine: route on a ~kC2fFactor-coarser grid over the
    // same region first, then refine at full resolution inside a
    // corridor around the coarse path. Falls back to the plain
    // full-grid route when either pass fails (see maze.h). The
    // drop_c2f ladder rung skips the attempt outright: the coarse
    // grid and corridor stamps are pure extra memory.
    bool c2f = std::min(grid.nx(), grid.ny()) >= kC2fMinDim &&
               (ladder == nullptr || !ladder->at_least(MemoryRung::drop_c2f));
    if (c2f) {
        const geom::RoutingGrid coarse(grid.region(),
                                       (grid.nx() + kC2fFactor - 1) / kC2fFactor,
                                       (grid.ny() + kC2fFactor - 1) / kC2fFactor);
        // Charging the extras may refuse (escalating the ladder to
        // drop_c2f for the rest of the run); route full-grid then.
        c2f = lease.try_extra(
            static_cast<std::uint64_t>(coarse.cell_count()) * kScratchBytesPerCell +
            static_cast<std::uint64_t>(grid.cell_count()) * sizeof(std::uint32_t));
        if (c2f) {
            if (prof != nullptr) ++prof->c2f_coarse_routes;
            MazeResult cr;
            if (route_on_grid(coarse, a, b, model, opt, ec, rows, nullptr, cr)) {
                Corridor& cor = route_scratch().corridor;
                cor.begin(grid.cell_count());
                mark_trace_corridor(cor, grid, cr.side1.trace, kC2fRadius);
                mark_trace_corridor(cor, grid, cr.side2.trace, kC2fRadius);
                if (route_on_grid(grid, a, b, model, opt, ec, rows, &cor, out)) {
                    if (prof != nullptr) ++prof->c2f_refined;
                    return out;
                }
            }
            if (prof != nullptr) ++prof->c2f_fallbacks;
            out.c2f_fallback = true;
        }
    }

    bool routed = route_on_grid(grid, a, b, model, opt, ec, rows, nullptr, out);
    if (!routed && out.grid_coarsened) {
        // A coarsened pitch can exceed every buffer's feasible run.
        // Validity outranks the budget: charge the nominal grid
        // through the required path (typed resource_exhaustion if the
        // ladder really is spent) and route it once at full
        // resolution.
        lease.require(
            static_cast<std::uint64_t>(nominal.cell_count()) * kScratchBytesPerCell,
            "maze label grid");
        out = MazeResult{};
        out.grid_coarsened = true;
        routed = route_on_grid(nominal, a, b, model, opt, ec, rows, nullptr, out);
    }
    if (!routed) throw_infeasible(a, b, opt);
    return out;
}

MazeResult maze_route_reference(const RouteEndpoint& a, const RouteEndpoint& b,
                                const delaylib::DelayModel& model,
                                const SynthesisOptions& opt) {
    const geom::RoutingGrid grid = geom::RoutingGrid::for_net(
        a.pos, b.pos, opt.grid_cells_per_dim, opt.grid_margin_um, opt.grid_max_pitch_um);
    delaylib::EvalCache& ec = eval_cache_for(model, opt);
    MazeResult out;
    if (!route_on_grid(grid, a, b, model, opt, ec, &delay_rows_for(ec), nullptr, out,
                       /*dense=*/true))
        throw_infeasible(a, b, opt);
    return out;
}

}  // namespace ctsim::cts
