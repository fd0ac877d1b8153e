// The pre-characterized delay/slew library (Sec 3.2).
//
// For each (driver type, load type) pair the library holds polynomial
// surfaces over (input slew, wire length) for
//   buffer intrinsic delay, wire delay, wire slew       (single-wire)
// and over (input slew, stem, left len, right len) for
//   buffer delay, left/right wire delay, left/right slew (branch).
//
// Single-wire fits are "3rd- or 4th-order polynomials" (we use 4th);
// branch fits are the paper's "hyperplane fitting" generalization
// (we use total degree 2 over 4 variables, FitOptions::branch_degree).
// Characterization costs a few seconds, so the library can be
// serialized to a text cache and reloaded (`save`/`load`).
#ifndef CTSIM_DELAYLIB_FITTED_LIBRARY_H
#define CTSIM_DELAYLIB_FITTED_LIBRARY_H

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "delaylib/characterizer.h"
#include "delaylib/delay_model.h"
#include "la/polyfit.h"
#include "util/status.h"

namespace ctsim::delaylib {

struct FitOptions {
    SweepGrid grid{};
    /// Single-wire fits: "3rd- or 4th-order polynomials" (Sec 3.2.1).
    int single_degree{4};
    /// Branch fits are low-order by design ("hyperplane fitting",
    /// Sec 3.2.2); every sweep dimension must keep more distinct values
    /// than this degree or the Vandermonde system loses rank.
    int branch_degree{2};
};

/// Fit-quality report, for the Fig 3.4 / 3.6 / 3.7 benches.
struct FitReport {
    struct Entry {
        int driver{0};
        int load{0};
        std::string quantity;
        la::PolySurface::Residuals residuals;
    };
    std::vector<Entry> entries;
    double worst_max_abs() const;
};

class FittedLibrary final : public DelayModel {
  public:
    /// Run the full characterization sweeps and fit all surfaces.
    static std::unique_ptr<FittedLibrary> characterize(const tech::Technology& tech,
                                                       const tech::BufferLibrary& lib,
                                                       const FitOptions& opt = {});

    /// Load a previously saved library. The cache is a versioned text
    /// format: a magic line ("ctsim-delaylib-v2"), an FNV-1a checksum
    /// of the payload, then the payload itself. Any mismatch -- stale
    /// magic, checksum failure, truncation, wrong buffer count --
    /// throws util::Error{cache_corruption}; callers that can
    /// re-characterize should catch it and fall back.
    static std::unique_ptr<FittedLibrary> load(std::istream& is, const tech::Technology& tech,
                                               const tech::BufferLibrary& lib);
    /// Load from `path` if present, otherwise characterize and save.
    /// A RELATIVE `path` is resolved to a cache directory
    /// (resolve_cache_path below) -- never the CWD -- so tools that
    /// default to a bare filename stop dropping caches into whatever
    /// directory they were started from; absolute paths are used
    /// verbatim. A corrupt cache is never fatal: the library is
    /// re-characterized and rewritten; when `cache_status` is
    /// non-null it receives why the cache was rejected (ok when it
    /// loaded or simply did not exist) so tools can warn.
    static std::unique_ptr<FittedLibrary> load_or_characterize(
        const std::string& path, const tech::Technology& tech,
        const tech::BufferLibrary& lib, const FitOptions& opt = {},
        util::Status* cache_status = nullptr);

    /// load_or_characterize for long-lived multi-threaded callers
    /// (the ctsimd serving session): first touch per RESOLVED cache
    /// path is serialized behind a once-style latch, so N threads
    /// racing a cold cache pay exactly ONE characterization, and the
    /// fitted library is shared immutably process-wide thereafter.
    /// The thread that performs the work reports through
    /// `cache_status` exactly like load_or_characterize; latecomers
    /// receive ok (the cache outcome was already reported once). A
    /// failed first touch (throwing load AND characterize) rethrows
    /// to every waiter and clears the latch so a later call retries.
    /// Distinct FitOptions must use distinct cache paths (they
    /// already must, or the on-disk cache would alias them too).
    static std::shared_ptr<const FittedLibrary> load_or_characterize_shared(
        const std::string& path, const tech::Technology& tech,
        const tech::BufferLibrary& lib, const FitOptions& opt = {},
        util::Status* cache_status = nullptr);

    /// Full characterization sweeps this process has run -- the test
    /// observable pinning the once-latch contract above.
    static std::uint64_t characterization_count();

    /// The cache location load_or_characterize will actually use.
    /// Absolute paths are used verbatim. A relative `path` is
    /// prefixed with, in order of preference: CTSIM_CACHE_DIR when
    /// set; $XDG_CACHE_HOME/ctsim; $HOME/.cache/ctsim; /tmp (last
    /// resort). The CWD is NEVER the default: bare-filename defaults
    /// used to litter whatever directory the tool was started from
    /// (tests running at the repo root dropped *.cache files into the
    /// source tree). The build system points CTSIM_CACHE_DIR at the
    /// build tree for every test and bench target.
    static std::string resolve_cache_path(const std::string& path);

    void save(std::ostream& os) const;

    /// Publish the serialized library at `where` atomically: write a
    /// pid-suffixed temp file beside it, then rename into place, so a
    /// concurrent reader never observes a torn cache. Tolerates the
    /// target directory being deleted mid-save (recreate + one retry).
    /// Best-effort: returns false instead of throwing on any failure.
    bool save_cache_atomic(const std::string& where) const;

    double buffer_delay(int d, int l, double slew_in, double len) const override;
    double wire_delay(int d, int l, double slew_in, double len) const override;
    double wire_slew(int d, int l, double slew_in, double len) const override;
    BranchTiming branch(int d, int l_left, int l_right, double slew_in, double stem,
                        double left, double right) const override;

    const FitReport& report() const { return report_; }

    /// Domain the surfaces were fitted on; queries are clamped to it.
    double max_wire_len() const { return max_len_; }
    double min_slew() const { return min_slew_; }
    double max_slew() const { return max_slew_; }

  private:
    FittedLibrary(const tech::Technology& tech, const tech::BufferLibrary& lib)
        : DelayModel(tech, lib) {}

    struct SingleFit {
        la::PolySurface buffer_delay;
        la::PolySurface wire_delay;
        la::PolySurface wire_slew;
    };
    struct BranchFit {
        la::PolySurface buffer_delay;
        la::PolySurface delay_left;
        la::PolySurface delay_right;
        la::PolySurface slew_left;
        la::PolySurface slew_right;
    };

    int pair_index(int d, int l) const;
    void clamp_single(double& slew, double& len) const;

    /// Serialize / parse the checksummed payload (everything after the
    /// magic + checksum header lines that save()/load() add).
    void save_body(std::ostream& os) const;
    static std::unique_ptr<FittedLibrary> load_body(std::istream& is,
                                                    const tech::Technology& tech,
                                                    const tech::BufferLibrary& lib);

    std::vector<SingleFit> single_;  // [d * count + l]
    std::vector<BranchFit> branch_;
    FitReport report_;
    double max_len_{4500.0};
    double max_branch_len_{3000.0};
    double max_stem_len_{2800.0};
    double min_slew_{5.0};
    double max_slew_{170.0};
};

}  // namespace ctsim::delaylib

#endif  // CTSIM_DELAYLIB_FITTED_LIBRARY_H
