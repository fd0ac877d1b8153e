// Crash-safe checkpoint/resume for synthesize().
//
// A checkpoint is one checksummed, versioned text file holding the
// tree as bottom-up merging left it plus every piece of
// engine-observable state the refine pass reads: the levelized-merge
// outputs (root, levels, H-structure stats, root timing) and the
// diagnostics accumulated so far. Because the timing engine is a pure
// function of the tree, nothing of the engine itself is persisted:
// the resumed run rebuilds it and lands on bit-identical values, so a
// resumed synthesis produces a tree node-for-node equal to the
// uninterrupted run's.
//
// Durability contract (the delay-cache idiom, hardened):
//   - layout: magic line, "checksum <fnv1a64>" over the payload,
//     payload. A torn or bit-flipped file, or one written under a
//     different magic (an older format), fails validation and is
//     treated as ABSENT -- the run starts from scratch, never from
//     garbage.
//   - doubles round-trip as raw IEEE-754 bit patterns (hex), so the
//     resumed state is exact, not printf-rounded.
//   - the payload opens with a fingerprint over the sinks and every
//     decision-relevant option: a snapshot from a different input or
//     configuration is rejected as stale.
//   - publish goes through util::write_file_atomic (pid-suffixed
//     temp + rename) under util::retry_status, with
//     FaultSite::checkpoint_publish_fail as the injectable failure
//     point; a failed publish leaves the previous snapshot intact
//     and no temp files behind.
//
// The one snapshot is written only when the merge phase completed
// nominally: a merge phase cut short by a deadline trip is NOT
// checkpointed (its degraded output is not the nominal one).
#ifndef CTSIM_CTS_CHECKPOINT_H
#define CTSIM_CTS_CHECKPOINT_H

#include <cstdint>
#include <string>
#include <vector>

#include "cts/synthesizer.h"
#include "util/status.h"

namespace ctsim::cts {

/// Merge-phase outputs the post_merge snapshot carries besides the
/// tree.
struct CheckpointBase {
    int root{-1};
    int source_buffer{-1};
    int levels{0};
    HStructureStats hstats;
    RootTiming root_timing;
    SynthesisDiagnostics diag;
};

class Checkpointer {
  public:
    /// `dir` is created on the first save. The snapshot lives at a
    /// fixed name inside it (one in-progress run per directory).
    explicit Checkpointer(std::string dir);

    /// Bind to one synthesis call: fingerprints the sinks and the
    /// decision-relevant options. synthesize() calls this on entry;
    /// load() and save() require it.
    void bind(const std::vector<SinkSpec>& sinks, const SynthesisOptions& opt);

    /// Publish the post_merge snapshot of `tree` and `base` (atomic,
    /// retried, checksummed). Failure is reported, not thrown: a
    /// checkpoint is a durability aid, so callers degrade to "no
    /// snapshot" rather than failing the synthesis.
    util::Status save(const ClockTree& tree, const CheckpointBase& base);

    struct Loaded {
        ClockTree tree;
        CheckpointBase base;
    };

    /// Read, validate (magic, checksum, fingerprint) and parse the
    /// snapshot. Returns false -- with `out` untouched -- when the
    /// file is absent, torn, corrupt, or from a different input or
    /// configuration; the caller then runs from scratch.
    bool load(Loaded& out) const;

    /// Remove the snapshot (idempotent); the CLI clears on success so
    /// a finished run is never resumed.
    void clear();

    const std::string& path() const { return path_; }

  private:
    std::string dir_;
    std::string path_;
    std::uint64_t fingerprint_{0};
    bool bound_{false};
};

}  // namespace ctsim::cts

#endif  // CTSIM_CTS_CHECKPOINT_H
