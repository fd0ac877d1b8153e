// Crash-safe checkpoint/resume (cts/checkpoint.h): a run cut at ANY
// point and resumed from its last snapshot must produce a tree
// node-for-node identical to the uninterrupted run; torn, corrupt or
// stale snapshots are treated as absent; a failed publish leaves the
// previous snapshot intact and zero stray files behind.
#include "cts/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cts_test_util.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace ctsim::cts {
namespace {

namespace fs = std::filesystem;
using testutil::analytic;
using testutil::random_sinks;
using util::FaultInjector;
using util::FaultSite;

struct FaultGuard {
    ~FaultGuard() { FaultInjector::instance().disarm_all(); }
};

/// Scratch checkpoint directory, wiped on entry and exit.
struct TempDir {
    fs::path dir;
    explicit TempDir(const std::string& name)
        : dir(fs::temp_directory_path() / name) {
        fs::remove_all(dir);
    }
    ~TempDir() {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    std::string str() const { return dir.string(); }
    int entries() const {
        if (!fs::exists(dir)) return 0;
        int n = 0;
        for (const auto& e : fs::directory_iterator(dir)) {
            (void)e;
            ++n;
        }
        return n;
    }
};

SynthesisOptions opts() {
    SynthesisOptions o;
    o.slew_limit_ps = 100.0;
    o.slew_target_ps = 80.0;
    o.num_threads = 1;  // serial: trip points are deterministic
    return o;
}

void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.levels, b.levels);
    EXPECT_EQ(a.buffer_count, b.buffer_count);
    EXPECT_DOUBLE_EQ(a.wire_length_um, b.wire_length_um);
    EXPECT_DOUBLE_EQ(a.root_timing.max_ps, b.root_timing.max_ps);
    EXPECT_DOUBLE_EQ(a.root_timing.min_ps, b.root_timing.min_ps);
    ASSERT_EQ(a.tree.size(), b.tree.size());
    for (int i = 0; i < a.tree.size(); ++i) {
        const TreeNode& na = a.tree.node(i);
        const TreeNode& nb = b.tree.node(i);
        ASSERT_EQ(na.kind, nb.kind) << "node " << i;
        EXPECT_EQ(na.parent, nb.parent) << "node " << i;
        EXPECT_EQ(na.children, nb.children) << "node " << i;
        EXPECT_DOUBLE_EQ(na.parent_wire_um, nb.parent_wire_um) << "node " << i;
        EXPECT_DOUBLE_EQ(na.pos.x, nb.pos.x) << "node " << i;
        EXPECT_DOUBLE_EQ(na.pos.y, nb.pos.y) << "node " << i;
        EXPECT_EQ(na.buffer_type, nb.buffer_type) << "node " << i;
    }
}

CheckpointBase base_from(const SynthesisResult& res) {
    CheckpointBase base;
    base.root = res.root;
    base.source_buffer = res.source_buffer;
    base.levels = res.levels;
    base.hstats = res.hstats;
    base.root_timing = res.root_timing;
    base.diag = res.diagnostics;
    return base;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

// ---- the acceptance test: cut anywhere, resume, bit-identical ------------

TEST(Checkpoint, ResumeAfterCutMatchesUninterruptedRunNodeForNode) {
    const auto sinks = random_sinks(32, 16000.0, 41);
    const SynthesisResult want = synthesize(sinks, analytic(), opts());

    // Measure the run's total poll budget, then cut at points spread
    // across merge and refine.
    util::CancelToken probe;
    probe.trip_after(~std::uint64_t{0});
    SynthesisOptions po = opts();
    po.cancel = &probe;
    (void)synthesize(sinks, analytic(), po);
    const std::uint64_t total = probe.checks();
    ASSERT_GT(total, 8u);

    for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{5}, total / 2,
                            (3 * total) / 4, total - 1}) {
        TempDir tmp("ctsim_ckpt_cut_" + std::to_string(n));
        Checkpointer ck(tmp.str());
        // The cut run: degrades gracefully, leaving (at most) a
        // snapshot of its last completed nominal phase.
        {
            util::CancelToken tok;
            tok.trip_after(n);
            SynthesisOptions o = opts();
            o.cancel = &tok;
            o.checkpoint = &ck;
            const SynthesisResult cut = synthesize(sinks, analytic(), o);
            EXPECT_EQ(cut.tree.sinks_below(cut.root).size(), sinks.size()) << "n=" << n;
        }
        // The resumed run: same input, same options, no deadline.
        SynthesisOptions o = opts();
        o.checkpoint = &ck;
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        expect_identical(res, want);
        // Early cuts legitimately leave no snapshot (the merge phase
        // was still degraded); cuts inside refine must resume.
        if (n >= total - 1) {
            EXPECT_EQ(res.diagnostics.resumed_from, CheckpointPhase::post_merge) << "n=" << n;
        }
    }
}

TEST(Checkpoint, ResumeSkipsCompletedPhases) {
    const auto sinks = random_sinks(24, 12000.0, 43);
    TempDir tmp("ctsim_ckpt_skip");
    Checkpointer ck(tmp.str());
    SynthesisOptions o = opts();
    o.checkpoint = &ck;
    const SynthesisResult first = synthesize(sinks, analytic(), o);
    EXPECT_EQ(first.diagnostics.resumed_from, CheckpointPhase::none);
    ASSERT_TRUE(fs::exists(ck.path()));

    // A full run leaves its snapshot behind (the CLI clears it; the
    // library does not). Rerunning resumes from it and must land on
    // the identical tree -- merging was skipped wholesale.
    const SynthesisResult again = synthesize(sinks, analytic(), o);
    EXPECT_EQ(again.diagnostics.resumed_from, CheckpointPhase::post_merge);
    expect_identical(again, first);
    EXPECT_EQ(again.levels, first.levels);
    EXPECT_EQ(again.hstats.flips, first.hstats.flips);

    ck.clear();
    EXPECT_FALSE(fs::exists(ck.path()));
    ck.clear();  // idempotent
}

// ---- validation: torn, corrupt, stale ------------------------------------

class CheckpointCorruption : public ::testing::Test {
  protected:
    void SetUp() override {
        sinks_ = random_sinks(24, 12000.0, 47);
        want_ = synthesize(sinks_, analytic(), opts());
    }
    /// Full run with a checkpoint, then mutate the snapshot with
    /// `mutate` and resume; the mutated file must be ignored and the
    /// rerun must still match the nominal tree from scratch.
    void run_with_mutation(const std::string& dir_name,
                           void (*mutate)(const std::string& path)) {
        TempDir tmp(dir_name);
        Checkpointer ck(tmp.str());
        SynthesisOptions o = opts();
        o.checkpoint = &ck;
        (void)synthesize(sinks_, analytic(), o);
        ASSERT_TRUE(fs::exists(ck.path()));
        mutate(ck.path());
        const SynthesisResult res = synthesize(sinks_, analytic(), o);
        EXPECT_EQ(res.diagnostics.resumed_from, CheckpointPhase::none);
        expect_identical(res, want_);
    }
    std::vector<SinkSpec> sinks_;
    SynthesisResult want_;
};

TEST_F(CheckpointCorruption, BitFlipFailsChecksumAndIsIgnored) {
    run_with_mutation("ctsim_ckpt_flip", [](const std::string& path) {
        std::string bytes = slurp(path);
        ASSERT_GT(bytes.size(), 100u);
        bytes[bytes.size() / 2] ^= 0x20;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    });
}

TEST_F(CheckpointCorruption, TruncationIsTreatedAsAbsent) {
    run_with_mutation("ctsim_ckpt_trunc", [](const std::string& path) {
        const std::string bytes = slurp(path);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    });
}

TEST_F(CheckpointCorruption, GarbageFileIsTreatedAsAbsent) {
    run_with_mutation("ctsim_ckpt_garbage", [](const std::string& path) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "not a checkpoint at all\n";
    });
}

TEST(Checkpoint, DifferentOptionsRejectTheSnapshotAsStale) {
    const auto sinks = random_sinks(24, 12000.0, 53);
    TempDir tmp("ctsim_ckpt_stale_opt");
    Checkpointer ck(tmp.str());
    SynthesisOptions o = opts();
    o.checkpoint = &ck;
    (void)synthesize(sinks, analytic(), o);
    ASSERT_TRUE(fs::exists(ck.path()));

    // A decision-relevant option changed: the snapshot no longer
    // describes this run's state and must be rejected by fingerprint.
    SynthesisOptions other = opts();
    other.checkpoint = &ck;
    other.slew_target_ps = 70.0;
    const SynthesisResult res = synthesize(sinks, analytic(), other);
    EXPECT_EQ(res.diagnostics.resumed_from, CheckpointPhase::none);
    EXPECT_EQ(res.tree.sinks_below(res.root).size(), sinks.size());
}

TEST(Checkpoint, DifferentSinksRejectTheSnapshotAsStale) {
    const auto sinks = random_sinks(24, 12000.0, 59);
    TempDir tmp("ctsim_ckpt_stale_sinks");
    Checkpointer ck(tmp.str());
    SynthesisOptions o = opts();
    o.checkpoint = &ck;
    (void)synthesize(sinks, analytic(), o);

    auto moved = sinks;
    moved[3].pos.x += 10.0;
    const SynthesisResult res = synthesize(moved, analytic(), o);
    EXPECT_EQ(res.diagnostics.resumed_from, CheckpointPhase::none);
}

TEST(Checkpoint, VersionOneSnapshotsAreTreatedAsAbsent) {
    // The v1 format carried post-merge pass state and could also sit
    // at two later phases (2 and 3) that no longer exist. A v1 file
    // -- even one with a valid checksum and a matching fingerprint --
    // must be ignored, and the run must start fresh.
    const auto sinks = random_sinks(24, 12000.0, 79);
    TempDir tmp("ctsim_ckpt_v1");
    Checkpointer ck(tmp.str());
    SynthesisOptions o = opts();
    o.checkpoint = &ck;
    const SynthesisResult want = synthesize(sinks, analytic(), o);
    const std::string current = slurp(ck.path());

    // Control: the file as written resumes.
    EXPECT_EQ(synthesize(sinks, analytic(), o).diagnostics.resumed_from,
              CheckpointPhase::post_merge);

    // Relabel it as v1 at each v1 phase, re-checksummed so that only
    // the version tells it apart.
    const std::size_t head_end = current.find('\n');
    const std::size_t body_start = current.find('\n', head_end + 1) + 1;
    ASSERT_NE(head_end, std::string::npos);
    ASSERT_GT(body_start, head_end + 1);
    const std::string payload = current.substr(body_start);
    const std::size_t ph = payload.find("\nphase ");
    ASSERT_NE(ph, std::string::npos);
    const std::size_t ph_end = payload.find('\n', ph + 1);
    for (int phase : {1, 2, 3}) {
        const std::string body = payload.substr(0, ph) + "\nphase " + std::to_string(phase) +
                                 payload.substr(ph_end);
        std::uint64_t h = 1469598103934665603ULL;  // FNV-1a, as the loader checks
        for (const unsigned char c : body) {
            h ^= c;
            h *= 1099511628211ULL;
        }
        char sum[24];
        std::snprintf(sum, sizeof(sum), "%016llx", static_cast<unsigned long long>(h));
        {
            std::ofstream out(ck.path(), std::ios::binary | std::ios::trunc);
            out << "ctsim-checkpoint-v1\nchecksum " << sum << '\n' << body;
        }
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        EXPECT_EQ(res.diagnostics.resumed_from, CheckpointPhase::none) << "phase " << phase;
        expect_identical(res, want);
    }
}

TEST(Checkpoint, ThreadCountIsNotPartOfTheFingerprint) {
    // The pipeline is bit-identical across thread counts, so a
    // snapshot from a 1-thread run must resume under 4 threads (and
    // produce the same tree).
    const auto sinks = random_sinks(24, 12000.0, 61);
    TempDir tmp("ctsim_ckpt_threads");
    Checkpointer ck(tmp.str());
    SynthesisOptions o = opts();
    o.checkpoint = &ck;
    const SynthesisResult first = synthesize(sinks, analytic(), o);

    SynthesisOptions mt = opts();
    mt.checkpoint = &ck;
    mt.num_threads = 4;
    const SynthesisResult res = synthesize(sinks, analytic(), mt);
    EXPECT_NE(res.diagnostics.resumed_from, CheckpointPhase::none);
    expect_identical(res, first);
}

// ---- direct round-trip exactness -----------------------------------------

TEST(Checkpoint, PostMergeSnapshotRoundTripsBitExactDoubles) {
    const auto sinks = random_sinks(12, 8000.0, 67);
    SynthesisOptions o = opts();
    const SynthesisResult res = synthesize(sinks, analytic(), o);

    TempDir tmp("ctsim_ckpt_roundtrip");
    Checkpointer ck(tmp.str());
    ck.bind(sinks, o);
    CheckpointBase base = base_from(res);
    base.root_timing.max_ps = 0.1 + 0.2;  // not exactly representable: must
    base.root_timing.min_ps = 1.0 / 3.0;  // round-trip as raw bit patterns
    ASSERT_TRUE(ck.save(res.tree, base).ok());

    Checkpointer::Loaded got;
    ASSERT_TRUE(ck.load(got));
    EXPECT_EQ(got.base.root, base.root);
    EXPECT_EQ(got.base.source_buffer, base.source_buffer);
    EXPECT_EQ(got.base.levels, base.levels);
    EXPECT_EQ(got.base.hstats.checks, base.hstats.checks);
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is exact bits.
    EXPECT_EQ(got.base.root_timing.max_ps, base.root_timing.max_ps);
    EXPECT_EQ(got.base.root_timing.min_ps, base.root_timing.min_ps);

    ASSERT_EQ(got.tree.size(), res.tree.size());
    for (int i = 0; i < res.tree.size(); ++i) {
        const TreeNode& na = res.tree.node(i);
        const TreeNode& nb = got.tree.node(i);
        ASSERT_EQ(na.kind, nb.kind) << i;
        EXPECT_EQ(na.parent, nb.parent) << i;
        EXPECT_EQ(na.children, nb.children) << i;
        EXPECT_EQ(na.parent_wire_um, nb.parent_wire_um) << i;
        EXPECT_EQ(na.pos.x, nb.pos.x) << i;
        EXPECT_EQ(na.pos.y, nb.pos.y) << i;
        EXPECT_EQ(na.buffer_type, nb.buffer_type) << i;
        EXPECT_EQ(na.name, nb.name) << i;
    }
}

TEST(Checkpoint, SinkNamesWithSpacesRoundTrip) {
    // Names are length-prefixed raw bytes, not whitespace-delimited
    // tokens: exotic benchmark names must survive.
    std::vector<SinkSpec> sinks = {{{0.0, 0.0}, 12.0, "sink with  spaces"},
                                   {{4000.0, 2000.0}, 9.0, "tab\there"},
                                   {{1000.0, 5000.0}, 11.0, ""}};
    SynthesisOptions o = opts();
    const SynthesisResult res = synthesize(sinks, analytic(), o);

    TempDir tmp("ctsim_ckpt_names");
    Checkpointer ck(tmp.str());
    ck.bind(sinks, o);
    ASSERT_TRUE(ck.save(res.tree, base_from(res)).ok());
    Checkpointer::Loaded got;
    ASSERT_TRUE(ck.load(got));
    ASSERT_EQ(got.tree.size(), res.tree.size());
    for (int i = 0; i < res.tree.size(); ++i)
        EXPECT_EQ(got.tree.node(i).name, res.tree.node(i).name) << i;
}

// ---- publish faults: old snapshot intact, zero stray files ---------------

TEST(Checkpoint, FailedPublishKeepsOldSnapshotAndLeavesNoStrayFiles) {
    FaultGuard guard;
    const auto sinks = random_sinks(12, 8000.0, 71);
    SynthesisOptions o = opts();
    const SynthesisResult res = synthesize(sinks, analytic(), o);

    TempDir tmp("ctsim_ckpt_publish_fault");
    Checkpointer ck(tmp.str());
    ck.bind(sinks, o);
    const CheckpointBase base = base_from(res);
    ASSERT_TRUE(ck.save(res.tree, base).ok());
    const std::string before = slurp(ck.path());
    ASSERT_FALSE(before.empty());

    // A second publish with different content fails on every retry.
    CheckpointBase newer = base;
    newer.levels += 1;
    FaultInjector::instance().arm(FaultSite::checkpoint_publish_fail, 3, 1.0);
    const util::Status s = ck.save(res.tree, newer);
    FaultInjector::instance().disarm_all();
    EXPECT_FALSE(s.ok());
    // All retry attempts burned the probe.
    EXPECT_EQ(FaultInjector::instance().probes(FaultSite::checkpoint_publish_fail), 3u);
    EXPECT_EQ(slurp(ck.path()), before);  // previous snapshot intact
    EXPECT_EQ(tmp.entries(), 1);          // and zero stray temp files

    // The surviving snapshot still loads, with the first save's state.
    Checkpointer::Loaded got;
    ASSERT_TRUE(ck.load(got));
    EXPECT_EQ(got.base.levels, base.levels);
}

TEST(Checkpoint, PublishFaultSweepThroughSynthesisLeavesNoStrayFiles) {
    // Satellite: sweep the publish fault through full synthesize()
    // calls -- every save may fail, the synthesis must still succeed
    // (a checkpoint is a durability aid, not a dependency), and no
    // temp file may survive any failure branch.
    FaultGuard guard;
    const auto sinks = random_sinks(16, 8000.0, 73);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        TempDir tmp("ctsim_ckpt_fault_sweep_" + std::to_string(seed));
        Checkpointer ck(tmp.str());
        SynthesisOptions o = opts();
        o.checkpoint = &ck;
        FaultInjector::instance().arm(FaultSite::checkpoint_publish_fail, seed, 0.7);
        const SynthesisResult res = synthesize(sinks, analytic(), o);
        FaultInjector::instance().disarm_all();
        EXPECT_EQ(res.tree.sinks_below(res.root).size(), sinks.size()) << seed;
        // Whatever survived must be the snapshot alone -- never a temp.
        if (fs::exists(tmp.dir)) {
            for (const auto& e : fs::directory_iterator(tmp.dir))
                EXPECT_EQ(e.path().filename().string(), "synth.ckpt")
                    << "stray file: " << e.path();
        }
    }
}

}  // namespace
}  // namespace ctsim::cts
