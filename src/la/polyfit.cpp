#include "la/polyfit.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace ctsim::la {

namespace {

/// Exponent tuples of all monomials in `dims` variables with total
/// degree <= `degree`, term-major. The depth-first order is the term
/// order of every serialized surface, so it must not change.
std::vector<int> monomial_exponents(int dims, int degree) {
    std::vector<int> out;
    std::vector<int> cur(dims, 0);
    const auto recurse = [&](auto&& self, int dim, int remaining) -> void {
        if (dim == dims) {
            out.insert(out.end(), cur.begin(), cur.end());
            return;
        }
        for (int e = 0; e <= remaining; ++e) {
            cur[dim] = e;
            self(self, dim + 1, remaining - e);
        }
        cur[dim] = 0;
    };
    recurse(recurse, 0, degree);
    return out;
}

/// seed * n[row[0]] * ... * n[row[k - 1]], left to right, with k = S
/// when S > 0 (a compile-time stride the loop unrolls over) and
/// k = `stride` otherwise. Fit and evaluation both multiply through
/// here, so their monomials cannot drift apart.
template <int S>
double monomial(double seed, const std::uint8_t* row, int stride, const double* n) {
    const int k = S > 0 ? S : stride;
    for (int j = 0; j < k; ++j) seed *= n[row[j]];
    return seed;
}

template <int S>
double sum_terms(const std::vector<double>& coeffs, const std::uint8_t* table, int stride,
                 const double* n) {
    double acc = 0.0;
    for (std::size_t c = 0; c < coeffs.size(); ++c)
        acc += monomial<S>(coeffs[c], table + c * stride, stride, n);
    return acc;
}

}  // namespace

void PolySurface::build_table(const std::vector<int>& exponents, std::size_t nterms) {
    stride_ = 0;
    for (std::size_t c = 0; c < nterms; ++c) {
        int total = 0;
        for (int d = 0; d < dims_; ++d) total += exponents[c * dims_ + d];
        stride_ = std::max(stride_, total);
    }
    table_.assign(nterms * static_cast<std::size_t>(stride_),
                  static_cast<std::uint8_t>(dims_));  // the 1.0 pad slot
    for (std::size_t c = 0; c < nterms; ++c) {
        std::uint8_t* row = table_.data() + c * static_cast<std::size_t>(stride_);
        for (int d = 0; d < dims_; ++d)
            for (int e = 0; e < exponents[c * dims_ + d]; ++e) *row++ = static_cast<std::uint8_t>(d);
    }
}

PolySurface::Norm PolySurface::normalize(const double* x) const {
    Norm n{};
    for (int d = 0; d < dims_; ++d) n[d] = (x[d] - offset_[d]) * scale_[d];
    n[dims_] = 1.0;
    return n;
}

PolySurface PolySurface::fit(int dims, int degree,
                             const std::vector<std::vector<double>>& samples,
                             const std::vector<double>& values) {
    if (samples.size() != values.size())
        throw std::invalid_argument("polyfit: sample/value count mismatch");
    if (dims < 0 || dims > kMaxDims || degree < 0)
        throw std::invalid_argument("polyfit: dims must be in [0, 8] and degree >= 0");
    PolySurface s;
    s.dims_ = dims;
    s.degree_ = degree;
    const std::vector<int> exponents = monomial_exponents(dims, degree);
    const std::size_t nterms = dims > 0 ? exponents.size() / dims : 1;
    if (samples.size() < nterms)
        throw std::invalid_argument("polyfit: not enough samples for requested degree");
    s.build_table(exponents, nterms);

    // Per-dimension affine normalization to [0, 1].
    s.offset_.assign(dims, std::numeric_limits<double>::max());
    std::vector<double> hi(dims, std::numeric_limits<double>::lowest());
    for (const auto& x : samples) {
        if (static_cast<int>(x.size()) != dims)
            throw std::invalid_argument("polyfit: sample dimension mismatch");
        for (int d = 0; d < dims; ++d) {
            s.offset_[d] = std::min(s.offset_[d], x[d]);
            hi[d] = std::max(hi[d], x[d]);
        }
    }
    s.scale_.assign(dims, 1.0);
    for (int d = 0; d < dims; ++d) {
        const double range = hi[d] - s.offset_[d];
        s.scale_[d] = range > 1e-12 ? 1.0 / range : 1.0;
    }

    Matrix a(samples.size(), nterms);
    for (std::size_t r = 0; r < samples.size(); ++r) {
        const Norm n = s.normalize(samples[r].data());
        for (std::size_t c = 0; c < nterms; ++c)
            a(r, c) = monomial<0>(1.0, s.table_.data() + c * s.stride_, s.stride_, n.data());
    }
    s.coeffs_ = solve_least_squares(std::move(a), values);
    return s;
}

double PolySurface::evaluate(std::span<const double> x) const {
    if (static_cast<int>(x.size()) != dims_)
        throw std::invalid_argument("polyfit: evaluate dimension mismatch");
    const Norm n = normalize(x.data());
    // The shipped library's strides (single-wire degree 3-4, branch
    // degree 2) get an unrolled loop; any other stride runs the same
    // multiplies through the generic one.
    switch (stride_) {
        case 2: return sum_terms<2>(coeffs_, table_.data(), stride_, n.data());
        case 3: return sum_terms<3>(coeffs_, table_.data(), stride_, n.data());
        case 4: return sum_terms<4>(coeffs_, table_.data(), stride_, n.data());
        default: return sum_terms<0>(coeffs_, table_.data(), stride_, n.data());
    }
}

PolySurface::Residuals PolySurface::residuals(const std::vector<std::vector<double>>& samples,
                                              const std::vector<double>& values) const {
    Residuals r;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double err = std::abs(evaluate(samples[i]) - values[i]);
        r.max_abs = std::max(r.max_abs, err);
        sum_sq += err * err;
    }
    if (!samples.empty()) r.rms = std::sqrt(sum_sq / static_cast<double>(samples.size()));
    return r;
}

void PolySurface::serialize(std::ostream& os) const {
    os << dims_ << ' ' << degree_ << ' ' << coeffs_.size() << '\n';
    os.precision(17);
    for (int d = 0; d < dims_; ++d) os << offset_[d] << ' ' << scale_[d] << '\n';
    for (std::size_t c = 0; c < coeffs_.size(); ++c) {
        // A term's exponent of dimension d is how often d occurs in
        // its table row.
        const std::uint8_t* row = table_.data() + c * static_cast<std::size_t>(stride_);
        for (int d = 0; d < dims_; ++d) os << std::count(row, row + stride_, d) << ' ';
        os << coeffs_[c] << '\n';
    }
}

PolySurface PolySurface::deserialize(std::istream& is) {
    PolySurface s;
    std::size_t nterms = 0;
    is >> s.dims_ >> s.degree_ >> nterms;
    if (!is || s.dims_ < 0 || s.dims_ > kMaxDims || s.degree_ < 0)
        throw std::runtime_error("polyfit: malformed surface header");
    s.offset_.resize(s.dims_);
    s.scale_.resize(s.dims_);
    for (int d = 0; d < s.dims_; ++d) is >> s.offset_[d] >> s.scale_[d];
    std::vector<int> exponents(nterms * s.dims_);
    s.coeffs_.resize(nterms);
    for (std::size_t c = 0; c < nterms; ++c) {
        long long total = 0;
        for (int d = 0; d < s.dims_; ++d) {
            int& e = exponents[c * s.dims_ + d];
            is >> e;
            if (e < 0) throw std::runtime_error("polyfit: negative exponent in surface body");
            total += e;
        }
        if (total > s.degree_)
            throw std::runtime_error("polyfit: term exceeds the surface's declared degree");
        is >> s.coeffs_[c];
    }
    if (!is) throw std::runtime_error("polyfit: malformed surface body");
    s.build_table(exponents, nterms);
    return s;
}

}  // namespace ctsim::la
