#include "cts/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ranges>
#include <stdexcept>

namespace ctsim::cts {

double edge_cost(const LevelNode& u, const LevelNode& v, const SynthesisOptions& opt) {
    return opt.cost_alpha * geom::manhattan(u.pos, v.pos) +
           opt.cost_beta * std::abs(u.latency_ps - v.latency_ps);
}

namespace {

int pick_seed(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
              std::mt19937& rng) {
    if (opt.seed_policy == SeedPolicy::random) {
        std::uniform_int_distribution<std::size_t> d(0, nodes.size() - 1);
        return static_cast<int>(d(rng));
    }
    // Max latency: "the nodes in the next level have larger delays", so
    // passing the slowest node up balances better.
    int best = 0;
    for (std::size_t i = 1; i < nodes.size(); ++i)
        if (nodes[i].latency_ps > nodes[best].latency_ps) best = static_cast<int>(i);
    return best;
}

/// Cheapest present node under edge_cost, answered from a uniform
/// bucket grid over one level's positions. The answer is exactly what
/// a linear scan in index order with a strict `<` returns: the lowest
/// cost, ties to the lowest index. Cells are visited ring by ring
/// around the query's cell; every node outside rings 0..R is at least
/// R cell widths away, so once cost_alpha times that gap (shrunk by a
/// float-safe margin) exceeds the best cost, no farther node can win
/// or tie. That bound needs cost_alpha > 0 and cost_beta >= 0;
/// otherwise every ring is scanned, which is the linear scan.
class PairIndex {
  public:
    struct Match {
        int index{-1};
        double cost{0.0};
    };

    /// Index `members` (a range of indices into `nodes`); all start
    /// present.
    template <class Members>
    PairIndex(const std::vector<LevelNode>& nodes, const Members& members,
              const SynthesisOptions& opt)
        : nodes_(nodes), opt_(opt), where_(nodes.size(), {-1, -1}) {
        const int m = static_cast<int>(std::ranges::distance(members));
        live_ = m;
        if (m == 0) return;
        double xlo = std::numeric_limits<double>::infinity(), xhi = -xlo;
        double ylo = xlo, yhi = -xlo;
        for (int i : members) {
            xlo = std::min(xlo, nodes[i].pos.x);
            xhi = std::max(xhi, nodes[i].pos.x);
            ylo = std::min(ylo, nodes[i].pos.y);
            yhi = std::max(yhi, nodes[i].pos.y);
        }
        x0_ = xlo;
        y0_ = ylo;
        // About kNodesPerCell nodes per square cell, or m / kNodesPerCell
        // cells along a degenerate (zero-width) axis.
        const double w = xhi - xlo, h = yhi - ylo;
        const auto cells_along = [m](double len, double cell) {
            if (!(len > 0.0) || !std::isfinite(len)) return 1;
            const double k = cell > 0.0 ? std::round(len / cell) : m / kNodesPerCell;
            return static_cast<int>(std::clamp(k, 1.0, static_cast<double>(m)));
        };
        const double side = std::sqrt(w * h * kNodesPerCell / m);
        nx_ = cells_along(w, side);
        ny_ = cells_along(h, side);
        // With at most two cells per axis, ring 1 covers the grid from
        // any cell and its distance bound is zero: cells cannot prune.
        if (std::max(nx_, ny_) <= 2) nx_ = ny_ = 1;
        inv_w_ = nx_ > 1 ? nx_ / w : 0.0;
        inv_h_ = ny_ > 1 ? ny_ / h : 0.0;
        gap_ = std::min(nx_ > 1 ? w / nx_ : std::numeric_limits<double>::infinity(),
                        ny_ > 1 ? h / ny_ : std::numeric_limits<double>::infinity());
        prune_ = opt.cost_alpha > 0.0 && opt.cost_beta >= 0.0 && std::isfinite(gap_);

        // Counting sort of the members into flat per-cell runs.
        cells_.assign(static_cast<std::size_t>(nx_) * ny_, {0, 0});
        for (int i : members) {
            where_[i].cell = cell(nodes[i].pos);
            ++cells_[where_[i].cell].live;
        }
        int offset = 0;
        for (Cell& c : cells_) {
            c.start = offset;
            offset += c.live;
            c.live = 0;
        }
        items_.resize(static_cast<std::size_t>(m));
        for (int i : members) {
            Cell& c = cells_[where_[i].cell];
            where_[i].slot = c.start + c.live++;
            items_[where_[i].slot] = i;
        }
    }

    bool present(int i) const { return where_[i].slot >= 0; }

    void remove(int i) {
        Cell& c = cells_[where_[i].cell];
        const int moved = items_[c.start + --c.live];
        items_[where_[i].slot] = moved;
        where_[moved].slot = where_[i].slot;
        where_[i].slot = -1;
        --live_;
    }

    /// The present node cheapest to pair with node `q` (which must not
    /// itself be present); index -1 when no node is present or none
    /// has a cost below the largest double.
    Match cheapest(int q) const {
        Match best{-1, std::numeric_limits<double>::max()};
        if (live_ == 0) return best;
        const LevelNode& u = nodes_[q];
        const int qc = cell(u.pos);
        const int qx = qc % nx_, qy = qc / nx_;
        const auto scan = [&](int cx, int cy) {
            const Cell& c = cells_[cy * nx_ + cx];
            for (int k = c.start, e = c.start + c.live; k < e; ++k) {
                const int i = items_[k];
                const double cost = edge_cost(u, nodes_[i], opt_);
                if (cost < best.cost || (cost == best.cost && best.index >= 0 && i < best.index))
                    best = {i, cost};
            }
        };
        const int rings = std::max(std::max(qx, nx_ - 1 - qx), std::max(qy, ny_ - 1 - qy));
        scan(qx, qy);
        for (int r = 1; r <= rings; ++r) {
            // Nodes beyond ring r-1 are at least (r-1) gaps away.
            if (prune_ && best.index >= 0 &&
                opt_.cost_alpha * ((r - 1) * gap_) * (1.0 - 1e-9) > best.cost)
                break;
            const int xa = std::max(qx - r, 0), xb = std::min(qx + r, nx_ - 1);
            if (qy - r >= 0)
                for (int cx = xa; cx <= xb; ++cx) scan(cx, qy - r);
            if (qy + r < ny_)
                for (int cx = xa; cx <= xb; ++cx) scan(cx, qy + r);
            const int ya = std::max(qy - r + 1, 0), yb = std::min(qy + r - 1, ny_ - 1);
            if (qx - r >= 0)
                for (int cy = ya; cy <= yb; ++cy) scan(qx - r, cy);
            if (qx + r < nx_)
                for (int cy = ya; cy <= yb; ++cy) scan(qx + r, cy);
        }
        return best;
    }

  private:
    /// Grid density, picked from a sweep of 1-8 nodes per cell over
    /// uniform levels of 16-3200 nodes: denser cells lengthen every
    /// scan, sparser ones make small levels pay for empty cells.
    static constexpr double kNodesPerCell = 4.0;

    int cell(geom::Pt p) const {
        const int cx = std::clamp(static_cast<int>((p.x - x0_) * inv_w_), 0, nx_ - 1);
        const int cy = std::clamp(static_cast<int>((p.y - y0_) * inv_h_), 0, ny_ - 1);
        return cy * nx_ + cx;
    }

    const std::vector<LevelNode>& nodes_;
    const SynthesisOptions& opt_;
    double x0_{0.0}, y0_{0.0}, inv_w_{0.0}, inv_h_{0.0};
    int nx_{1}, ny_{1};
    double gap_{0.0};  ///< smallest cell side along an axis with more than one cell
    bool prune_{false};
    struct Cell {
        int start;  ///< offset of the cell's run in items_
        int live;   ///< present nodes, at the front of the run
    };
    struct Where {
        int cell;
        int slot;  ///< position in items_, -1 when not present
    };
    int live_{0};
    std::vector<Cell> cells_;
    std::vector<int> items_;  ///< node indices grouped by cell
    std::vector<Where> where_;
};

Pairing greedy_centroid(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                        std::mt19937& rng) {
    Pairing out;
    const std::size_t n = nodes.size();
    int seed = -1;
    if (n % 2 == 1) {
        seed = pick_seed(nodes, opt, rng);
        out.seed = nodes[seed].id;
    }

    geom::Pt centroid{0.0, 0.0};
    for (const LevelNode& v : nodes) centroid = centroid + v.pos;
    centroid = (1.0 / static_cast<double>(n)) * centroid;

    // The centroid is fixed for the level, so the sequence of
    // "farthest unused node from the centroid" picks is one sort by
    // distance (descending), ties to the lowest index.
    std::vector<std::pair<double, int>> far_order;
    far_order.reserve(n);
    out.pairs.reserve(n / 2);
    for (std::size_t i = 0; i < n; ++i)
        if (static_cast<int>(i) != seed)
            far_order.emplace_back(geom::manhattan(nodes[i].pos, centroid),
                                   static_cast<int>(i));
    std::sort(far_order.begin(), far_order.end(), [](const auto& a, const auto& b) {
        return a.first != b.first ? a.first > b.first : a.second < b.second;
    });

    // Each far node is paired with its lowest-cost unused neighbor.
    PairIndex index(nodes, far_order | std::views::values, opt);
    for (const auto& [d, far] : far_order) {
        if (!index.present(far)) continue;
        index.remove(far);
        const int mate = index.cheapest(far).index;
        if (mate < 0) throw std::runtime_error("topology: no finite-cost mate");
        index.remove(mate);
        out.pairs.emplace_back(nodes[far].id, nodes[mate].id);
    }
    return out;
}

/// Drake-Hougardy path growing, adapted to minimum cost on a complete
/// graph: grow paths along locally cheapest edges, splitting the path
/// edges alternately into two matchings and keeping the cheaper one.
Pairing path_growing(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                     std::mt19937& rng) {
    Pairing out;
    const std::size_t n = nodes.size();
    int seed = -1;
    if (n % 2 == 1) {
        seed = pick_seed(nodes, opt, rng);
        out.seed = nodes[seed].id;
    }

    // Present in `growth` = not yet consumed by path growth.
    std::vector<int> members;
    members.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (static_cast<int>(i) != seed) members.push_back(static_cast<int>(i));
    PairIndex growth(nodes, members, opt);
    std::vector<std::pair<int, int>> m[2];
    double cost[2] = {0.0, 0.0};

    for (int start : members) {
        if (!growth.present(start)) continue;
        int x = start;
        int side = 0;
        while (true) {
            growth.remove(x);
            const PairIndex::Match next = growth.cheapest(x);
            if (next.index < 0) break;
            m[side].emplace_back(x, next.index);
            cost[side] += next.cost;
            side ^= 1;
            x = next.index;
        }
    }

    // Keep the cheaper alternating matching, then pair leftovers
    // greedily (highest index first, each with its cheapest leftover)
    // so the level still halves.
    const int keep = cost[0] <= cost[1] ? 0 : 1;
    std::vector<char> matched(n, 0);
    for (auto [u, v] : m[keep]) {
        if (matched[u] || matched[v]) continue;
        matched[u] = matched[v] = 1;
        out.pairs.emplace_back(nodes[u].id, nodes[v].id);
    }
    std::vector<int> left;
    for (int i : members)
        if (!matched[i]) left.push_back(i);
    PairIndex rest(nodes, left, opt);
    for (auto it = left.rbegin(); it != left.rend(); ++it) {
        const int u = *it;
        if (!rest.present(u)) continue;
        rest.remove(u);
        const int mate = rest.cheapest(u).index;
        if (mate < 0) {
            if (out.seed >= 0)
                throw std::runtime_error("topology: leftover node with seed already chosen");
            out.seed = nodes[u].id;
            break;
        }
        rest.remove(mate);
        out.pairs.emplace_back(nodes[u].id, nodes[mate].id);
    }
    return out;
}

}  // namespace

Pairing select_pairs(const std::vector<LevelNode>& nodes, const SynthesisOptions& opt,
                     std::mt19937& rng) {
    if (nodes.size() < 2) throw std::invalid_argument("topology: need at least two nodes");
    return opt.matching == MatchingPolicy::greedy_centroid ? greedy_centroid(nodes, opt, rng)
                                                           : path_growing(nodes, opt, rng);
}

}  // namespace ctsim::cts
