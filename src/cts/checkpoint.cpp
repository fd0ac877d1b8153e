#include "cts/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/memory_budget.h"
#include "util/retry.h"

namespace ctsim::cts {

namespace {

constexpr char kMagic[] = "ctsim-checkpoint-v2";
constexpr char kFileName[] = "synth.ckpt";

/// FNV-1a over the serialized payload -- torn-write / bit-rot
/// detection, not an integrity MAC (the delay-cache idiom).
std::uint64_t fnv1a64(const std::string& s) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/// Doubles round-trip as raw IEEE-754 bit patterns: a resumed run
/// must continue from EXACT values, not printf-rounded ones.
std::uint64_t dbl_bits(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

double bits_dbl(std::uint64_t u) {
    double d;
    std::memcpy(&d, &u, sizeof d);
    return d;
}

void put_hex(std::ostream& os, std::uint64_t u) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(u));
    os << buf;
}

void put_dbl(std::ostream& os, double d) { put_hex(os, dbl_bits(d)); }

// --- parse helpers: throw on malformed input, load() catches -------

[[noreturn]] void bad(const char* what) {
    throw std::runtime_error(std::string("checkpoint parse: ") + what);
}

void expect_tag(std::istream& is, const char* tag) {
    std::string t;
    if (!(is >> t) || t != tag) bad(tag);
}

std::int64_t get_int(std::istream& is) {
    std::int64_t v;
    if (!(is >> v)) bad("integer");
    return v;
}

std::uint64_t get_hex(std::istream& is) {
    std::string t;
    if (!(is >> t)) bad("hex word");
    unsigned long long v = 0;
    if (std::sscanf(t.c_str(), "%16llx", &v) != 1 || t.size() != 16) bad("hex word");
    return static_cast<std::uint64_t>(v);
}

double get_dbl(std::istream& is) { return bits_dbl(get_hex(is)); }

/// Length-prefixed raw bytes: names come from external netlists, so
/// no character is off-limits (spaces and newlines included).
std::string get_name(std::istream& is) {
    const std::int64_t len = get_int(is);
    if (len < 0 || len > (1 << 20)) bad("name length");
    is.get();  // the single separator after the length
    std::string s(static_cast<std::size_t>(len), '\0');
    if (len > 0 && !is.read(&s[0], len)) bad("name bytes");
    return s;
}

// --- fingerprint ----------------------------------------------------

/// Every decision-relevant option is folded in; the thread count
/// (bit-for-bit identity contract: it changes the schedule, never the
/// result -- budgeted runs included, since they always run serially)
/// and the run-control handles (deadline, cancel token, the
/// checkpointer itself) are deliberately left out -- a cut run is
/// resumed WITHOUT its deadline, and must still match.
void fingerprint_options(std::ostream& os, const SynthesisOptions& o) {
    put_dbl(os, o.slew_limit_ps);
    put_dbl(os, o.slew_target_ps);
    put_dbl(os, o.cost_alpha);
    put_dbl(os, o.cost_beta);
    os << ' ' << o.grid_cells_per_dim;
    put_dbl(os, o.grid_max_pitch_um);
    put_dbl(os, o.grid_margin_um);
    os << ' ' << o.intelligent_sizing << ' ' << o.force_subtree_root_buffer << ' '
       << static_cast<int>(o.hstructure) << ' ' << static_cast<int>(o.seed_policy) << ' '
       << static_cast<int>(o.matching) << ' ' << o.binary_search_iters;
    put_dbl(os, o.assumed_input_slew_ps);
    os << ' ' << o.source_buffer;
    put_dbl(os, o.source_slew_ps);
    os << ' ' << o.rng_seed << ' ' << o.skew_refine;
    // Memory pressure degrades routing, so the budget is part of the
    // configuration identity.
    put_dbl(os, o.memory_budget_mb);
    put_hex(os, o.memory_budget != nullptr ? o.memory_budget->limit() : 0);
}

}  // namespace

Checkpointer::Checkpointer(std::string dir) : dir_(std::move(dir)) {
    path_ = dir_ + "/" + kFileName;
}

void Checkpointer::bind(const std::vector<SinkSpec>& sinks, const SynthesisOptions& opt) {
    std::ostringstream os;
    os << sinks.size();
    for (const SinkSpec& s : sinks) {
        put_dbl(os, s.pos.x);
        put_dbl(os, s.pos.y);
        put_dbl(os, s.cap_ff);
        os << ' ' << s.name.size() << ' ' << s.name;
    }
    fingerprint_options(os, opt);
    fingerprint_ = fnv1a64(os.str());
    bound_ = true;
}

util::Status Checkpointer::save(const ClockTree& tree, const CheckpointBase& base) {
    if (!bound_)
        return util::Status::internal("checkpoint: save before bind()");

    std::ostringstream os;
    os << "fingerprint ";
    put_hex(os, fingerprint_);
    os << "\nphase " << static_cast<int>(CheckpointPhase::post_merge);
    os << "\nroot " << base.root << ' ' << base.source_buffer << ' ' << base.levels;
    os << "\nhstats " << base.hstats.checks << ' ' << base.hstats.flips;
    os << "\nroot_timing ";
    put_dbl(os, base.root_timing.max_ps);
    os << ' ';
    put_dbl(os, base.root_timing.min_ps);
    // The memory rung, budget peak and resumed-from marker are NOT
    // persisted: they describe the writing PROCESS, and the resuming
    // process accounts for itself.
    const SynthesisDiagnostics& d = base.diag;
    os << "\ndiag " << d.deadline_hit << ' ' << static_cast<int>(d.degraded_at) << ' '
       << d.degraded_routes << ' ' << d.refine_skipped << ' ' << d.c2f_fallbacks << ' '
       << d.first_c2f_fallback_merge << ' ' << d.grid_coarsened_routes;
    os << "\nnodes " << tree.size() << '\n';
    for (int i = 0; i < tree.size(); ++i) {
        const TreeNode& n = tree.node(i);
        os << static_cast<int>(n.kind) << ' ' << n.parent << ' ' << n.buffer_type << ' ';
        put_dbl(os, n.pos.x);
        os << ' ';
        put_dbl(os, n.pos.y);
        os << ' ';
        put_dbl(os, n.parent_wire_um);
        os << ' ';
        put_dbl(os, n.sink_cap_ff);
        os << ' ' << n.children.size();
        for (int c : n.children) os << ' ' << c;
        os << ' ' << n.name.size() << ' ' << n.name << '\n';
    }

    const std::string payload = os.str();
    char sum[24];
    std::snprintf(sum, sizeof(sum), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(payload)));
    std::string contents;
    contents.reserve(payload.size() + 64);
    contents += kMagic;
    contents += "\nchecksum ";
    contents += sum;
    contents += '\n';
    contents += payload;

    // Transient publish failures (the injectable kind included) are
    // retried with deterministic backoff; a final failure leaves the
    // previous snapshot file intact and no temps behind.
    return util::retry_status(util::RetryPolicy{}, [&] {
        return util::write_file_atomic(path_, contents,
                                       util::FaultSite::checkpoint_publish_fail);
    });
}

bool Checkpointer::load(Loaded& out) const {
    if (!bound_) return false;
    std::ifstream is(path_, std::ios::binary);
    if (!is) return false;

    std::string header, sumline;
    if (!std::getline(is, header) || header != kMagic) return false;
    if (!std::getline(is, sumline)) return false;
    unsigned long long want = 0;
    if (std::sscanf(sumline.c_str(), "checksum %16llx", &want) != 1) return false;
    const std::string payload((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
    if (fnv1a64(payload) != static_cast<std::uint64_t>(want)) return false;

    try {
        std::istringstream body(payload);
        expect_tag(body, "fingerprint");
        if (get_hex(body) != fingerprint_) return false;  // stale: other input/config

        Loaded ld;
        expect_tag(body, "phase");
        if (get_int(body) != static_cast<int>(CheckpointPhase::post_merge)) bad("phase");
        expect_tag(body, "root");
        ld.base.root = static_cast<int>(get_int(body));
        ld.base.source_buffer = static_cast<int>(get_int(body));
        ld.base.levels = static_cast<int>(get_int(body));
        expect_tag(body, "hstats");
        ld.base.hstats.checks = static_cast<int>(get_int(body));
        ld.base.hstats.flips = static_cast<int>(get_int(body));
        expect_tag(body, "root_timing");
        ld.base.root_timing.max_ps = get_dbl(body);
        ld.base.root_timing.min_ps = get_dbl(body);
        expect_tag(body, "diag");
        SynthesisDiagnostics& d = ld.base.diag;
        d.deadline_hit = get_int(body) != 0;
        d.degraded_at = static_cast<DegradeStage>(get_int(body));
        d.degraded_routes = static_cast<int>(get_int(body));
        d.refine_skipped = get_int(body) != 0;
        d.c2f_fallbacks = static_cast<int>(get_int(body));
        d.first_c2f_fallback_merge = static_cast<int>(get_int(body));
        d.grid_coarsened_routes = static_cast<int>(get_int(body));

        expect_tag(body, "nodes");
        const std::int64_t n = get_int(body);
        if (n < 1 || n > (1LL << 31)) bad("node count");
        struct RawNode {
            int kind, parent, buffer_type;
            double x, y, wire, cap;
            std::vector<int> children;
            std::string name;
        };
        std::vector<RawNode> raw(static_cast<std::size_t>(n));
        for (RawNode& r : raw) {
            r.kind = static_cast<int>(get_int(body));
            if (r.kind < 0 || r.kind > static_cast<int>(NodeKind::buffer)) bad("kind");
            r.parent = static_cast<int>(get_int(body));
            r.buffer_type = static_cast<int>(get_int(body));
            r.x = get_dbl(body);
            r.y = get_dbl(body);
            r.wire = get_dbl(body);
            r.cap = get_dbl(body);
            const std::int64_t nc = get_int(body);
            if (nc < 0 || nc > n) bad("child count");
            r.children.resize(static_cast<std::size_t>(nc));
            for (int& c : r.children) {
                c = static_cast<int>(get_int(body));
                if (c < 0 || c >= n) bad("child id");
            }
            r.name = get_name(body);
        }

        // Rebuild through the arena API in id order, then re-link in
        // the stored children order -- connect() appends, so each
        // node's children array comes back element-for-element equal
        // and every subsequent traversal (subtree preorder, netlist
        // emission, golden dumps) is bit-identical.
        for (const RawNode& r : raw) {
            const geom::Pt p{r.x, r.y};
            switch (static_cast<NodeKind>(r.kind)) {
                case NodeKind::sink: ld.tree.add_sink(p, r.cap, r.name); break;
                case NodeKind::merge: ld.tree.add_merge(p); break;
                case NodeKind::steiner: ld.tree.add_steiner(p); break;
                case NodeKind::buffer: ld.tree.add_buffer(p, r.buffer_type); break;
            }
        }
        for (std::size_t i = 0; i < raw.size(); ++i)
            for (int c : raw[i].children) {
                if (raw[static_cast<std::size_t>(c)].parent != static_cast<int>(i))
                    bad("child/parent mismatch");
                ld.tree.connect(static_cast<int>(i), c, raw[static_cast<std::size_t>(c)].wire);
            }
        if (ld.base.root < 0 || ld.base.root >= ld.tree.size()) bad("root id");

        out = std::move(ld);
        return true;
    } catch (const std::exception&) {
        // Malformed content past a valid checksum (version skew, a
        // hand-edited file): treated as absent, same as corruption.
        return false;
    }
}

void Checkpointer::clear() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
}

}  // namespace ctsim::cts
