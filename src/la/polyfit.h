// Multivariate polynomial surface fitting.
//
// The paper characterizes delay and slew with SPICE sweeps and fits
// "3rd- or 4th-order polynomials in terms of input slew and length"
// (surface fitting for single-wire components, hyperplane fitting for
// branch components). This module provides exactly that: least-squares
// fits of total-degree-bounded multivariate polynomials, with input
// normalization for numerical conditioning.
//
// Evaluation runs off one flat multiply table. Row k lists, for term
// k, the dimension index of every multiply the monomial needs: in
// ascending dimension order, one entry per unit of exponent, padded
// to the surface's largest total degree with the index of a slot that
// holds 1.0. Term k is then coeff[k] * n[row[0]] * n[row[1]] * ...,
// evaluated left to right, and evaluate() is a single fixed-stride
// loop with no per-exponent branching. The values are bit-identical
// to the nested exponent walk it replaces: the real multiplies are the
// same ones in the same order, and x * 1.0 == x exactly in IEEE-754.
// That rests on the shipped flags: no -ffast-math (which may
// reassociate) and no FMA contraction (ISO C++20 mode implies
// -ffp-contract=off in GCC, and the baseline x86-64 target has no FMA
// unit to contract into). The Vandermonde rows of fit() come from the
// same table (seed 1.0 instead of the coefficient), so fit and
// evaluation share one monomial routine.
#ifndef CTSIM_LA_POLYFIT_H
#define CTSIM_LA_POLYFIT_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "la/matrix.h"

namespace ctsim::la {

/// A polynomial in `dims` variables with total degree <= `degree`,
/// fitted to samples by least squares. Inputs are affinely normalized
/// to [0, 1] per dimension before monomial evaluation, which keeps the
/// Vandermonde system well conditioned across the very different
/// scales of slews (ps) and lengths (um).
class PolySurface {
  public:
    PolySurface() = default;

    /// Fit a surface of total degree `degree` to `samples` (each of
    /// size `dims`) with target values `values`. Requires
    /// samples.size() == values.size() >= number of monomials.
    static PolySurface fit(int dims, int degree, const std::vector<std::vector<double>>& samples,
                           const std::vector<double>& values);

    double evaluate(std::span<const double> x) const;
    double operator()(double a, double b) const {
        const std::array<double, 2> x{a, b};
        return evaluate(x);
    }
    double operator()(double a, double b, double c) const {
        const std::array<double, 3> x{a, b, c};
        return evaluate(x);
    }

    int dims() const { return dims_; }
    int degree() const { return degree_; }
    bool empty() const { return coeffs_.empty(); }

    /// Maximum / root-mean-square absolute residual over a sample set.
    struct Residuals {
        double max_abs{0.0};
        double rms{0.0};
    };
    Residuals residuals(const std::vector<std::vector<double>>& samples,
                        const std::vector<double>& values) const;

    void serialize(std::ostream& os) const;
    static PolySurface deserialize(std::istream& is);

  private:
    /// Most input dimensions a surface may have.
    static constexpr int kMaxDims = 8;
    /// Normalized input: dims_ coordinates, then the 1.0 pad slot.
    using Norm = std::array<double, kMaxDims + 1>;

    /// Build the multiply table from `nterms` term-major exponent
    /// rows (`exponents` holds one `dims_`-tuple per term).
    void build_table(const std::vector<int>& exponents, std::size_t nterms);
    Norm normalize(const double* x) const;

    int dims_{0};
    int degree_{0};
    int stride_{0};                    ///< multiplies per term (largest total degree)
    std::vector<std::uint8_t> table_;  ///< terms x stride_ indices into Norm
    std::vector<double> coeffs_;
    std::vector<double> offset_;  // per-dim normalization: (x - offset) * scale
    std::vector<double> scale_;
};

}  // namespace ctsim::la

#endif  // CTSIM_LA_POLYFIT_H
