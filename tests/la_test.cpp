#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "la/matrix.h"
#include "la/polyfit.h"

namespace ctsim::la {
namespace {

TEST(Matrix, MultiplyIdentityLike) {
    Matrix a(2, 3);
    a(0, 0) = 1;
    a(0, 2) = 2;
    a(1, 1) = 3;
    const Vector y = multiply(a, {1, 2, 3});
    EXPECT_DOUBLE_EQ(y[0], 7.0);
    EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(LeastSquares, ExactSquareSystem) {
    Matrix a(2, 2);
    a(0, 0) = 2;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 3;
    const Vector x = solve_least_squares(a, {5, 10});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LeastSquares, OverdeterminedRecoversLine) {
    // y = 3 + 2t sampled with symmetric noise that cancels exactly.
    Matrix a(4, 2);
    Vector b(4);
    const double ts[4] = {0, 1, 2, 3};
    const double noise[4] = {0.5, -0.5, -0.5, 0.5};
    for (int i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = ts[i];
        b[i] = 3.0 + 2.0 * ts[i] + noise[i];
    }
    const Vector x = solve_least_squares(a, b);
    // The noise pattern is orthogonal to both basis columns, so least
    // squares recovers the underlying line exactly.
    EXPECT_NEAR(x[0], 3.0, 1e-9);
    EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(LeastSquares, ThrowsOnRankDeficiency) {
    Matrix a(3, 2);
    for (int i = 0; i < 3; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = 2.0;  // second column = 2x first
    }
    a(0, 1) = 2.0;
    EXPECT_THROW(solve_least_squares(a, {1, 2, 3}), std::runtime_error);
}

TEST(SolveLinear, PivotingHandlesZeroDiagonal) {
    Matrix a(2, 2);
    a(0, 0) = 0;
    a(0, 1) = 1;
    a(1, 0) = 1;
    a(1, 1) = 0;
    const Vector x = solve_linear(a, {2, 3});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(PolySurface, RecoversExactPolynomial2D) {
    // f(x, y) = 1 + 2x + 3y + 0.5xy - x^2
    const auto f = [](double x, double y) { return 1 + 2 * x + 3 * y + 0.5 * x * y - x * x; };
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 6; ++i)
        for (int j = 0; j <= 6; ++j) {
            const double x = 10.0 + 5.0 * i, y = 100.0 + 40.0 * j;  // wild scales
            xs.push_back({x, y});
            ys.push_back(f(x, y));
        }
    const PolySurface s = PolySurface::fit(2, 3, xs, ys);
    const auto res = s.residuals(xs, ys);
    EXPECT_LT(res.max_abs, 1e-6);
    EXPECT_NEAR(s(12.0, 111.0), f(12.0, 111.0), 1e-6);
}

TEST(PolySurface, RecoversExactPolynomial3D) {
    const auto f = [](double x, double y, double z) { return 2 + x + y * z - 0.1 * z * z; };
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (int i = 0; i <= 4; ++i)
        for (int j = 0; j <= 4; ++j)
            for (int k = 0; k <= 4; ++k) {
                xs.push_back({1.0 * i, 2.0 * j, 3.0 * k});
                ys.push_back(f(1.0 * i, 2.0 * j, 3.0 * k));
            }
    const PolySurface s = PolySurface::fit(3, 2, xs, ys);
    EXPECT_LT(s.residuals(xs, ys).max_abs, 1e-8);
}

TEST(PolySurface, SerializationRoundTrip) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> dist(0.0, 100.0);
    for (int i = 0; i < 50; ++i) {
        const double x = dist(rng), y = dist(rng);
        xs.push_back({x, y});
        ys.push_back(3.0 * x - 0.02 * x * y + 5.0);
    }
    const PolySurface s = PolySurface::fit(2, 2, xs, ys);
    std::stringstream ss;
    s.serialize(ss);
    const PolySurface t = PolySurface::deserialize(ss);
    for (int i = 0; i < 10; ++i) {
        const double x = dist(rng), y = dist(rng);
        EXPECT_NEAR(s(x, y), t(x, y), 1e-9);
    }
}

/// The nested exponent walk PolySurface evaluated with before its
/// multiply table: a reference the table kernel must match bit for
/// bit. Exponent tuples are enumerated depth-first, the term order of
/// every serialized surface.
struct ReferencePoly {
    int dims;
    std::vector<std::vector<int>> exponents;

    ReferencePoly(int d, int degree) : dims(d) {
        std::vector<int> cur(dims, 0);
        const auto recurse = [&](auto&& self, int dim, int remaining) -> void {
            if (dim == dims) {
                exponents.push_back(cur);
                return;
            }
            for (int e = 0; e <= remaining; ++e) {
                cur[dim] = e;
                self(self, dim + 1, remaining - e);
            }
            cur[dim] = 0;
        };
        recurse(recurse, 0, degree);
    }

    double monomial(double seed, std::size_t c, const std::vector<double>& norm) const {
        for (int d = 0; d < dims; ++d)
            for (int e = 0; e < exponents[c][d]; ++e) seed *= norm[d];
        return seed;
    }

    /// Coefficients and normalization read back from a serialized
    /// surface, so the reference evaluates exactly what it was given.
    struct Parsed {
        std::vector<double> offset, scale, coeffs;
    };
    Parsed parse(const PolySurface& s) const {
        std::stringstream ss;
        s.serialize(ss);
        int d = 0, deg = 0;
        std::size_t n = 0;
        ss >> d >> deg >> n;
        Parsed p;
        p.offset.resize(d);
        p.scale.resize(d);
        for (int k = 0; k < d; ++k) ss >> p.offset[k] >> p.scale[k];
        p.coeffs.resize(n);
        for (std::size_t c = 0; c < n; ++c) {
            for (int k = 0; k < d; ++k) {
                int e = -1;
                ss >> e;
                EXPECT_EQ(e, exponents[c][k]) << "term " << c << " dim " << k;
            }
            ss >> p.coeffs[c];
        }
        return p;
    }

    std::vector<double> normalized(const Parsed& p, const std::vector<double>& x) const {
        std::vector<double> norm(dims);
        for (int d = 0; d < dims; ++d) norm[d] = (x[d] - p.offset[d]) * p.scale[d];
        return norm;
    }

    double evaluate(const Parsed& p, const std::vector<double>& x) const {
        const std::vector<double> norm = normalized(p, x);
        double acc = 0.0;
        for (std::size_t c = 0; c < exponents.size(); ++c)
            acc += monomial(p.coeffs[c], c, norm);
        return acc;
    }

    /// The least-squares fit the reference Vandermonde matrix gives.
    std::vector<double> fit(const Parsed& p, const std::vector<std::vector<double>>& xs,
                            const std::vector<double>& ys) const {
        Matrix a(xs.size(), exponents.size());
        for (std::size_t r = 0; r < xs.size(); ++r) {
            const std::vector<double> norm = normalized(p, xs[r]);
            for (std::size_t c = 0; c < exponents.size(); ++c) a(r, c) = monomial(1.0, c, norm);
        }
        return solve_least_squares(std::move(a), ys);
    }
};

TEST(PolySurface, MultiplyTableKernelMatchesNestedExponentWalkExactly) {
    std::mt19937 rng(20);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int dims = 1; dims <= 4; ++dims) {
        for (int degree = 0; degree <= 5; ++degree) {
            SCOPED_TRACE(testing::Message() << "dims " << dims << " degree " << degree);
            const ReferencePoly ref(dims, degree);
            // Box [lo, lo + span] per dimension, wildly different scales.
            std::vector<double> lo(dims), span(dims);
            for (int d = 0; d < dims; ++d) {
                lo[d] = -50.0 + 100.0 * unit(rng);
                span[d] = std::pow(10.0, -1.0 + 4.0 * unit(rng));
            }
            const std::size_t nsamples = 3 * ref.exponents.size() + 8;
            std::vector<std::vector<double>> xs;
            std::vector<double> ys;
            for (std::size_t i = 0; i < nsamples; ++i) {
                std::vector<double> x(dims);
                for (int d = 0; d < dims; ++d) x[d] = lo[d] + span[d] * unit(rng);
                ys.push_back(std::sin(x[0]) + 0.01 * x[dims - 1] * x[0] + unit(rng));
                xs.push_back(std::move(x));
            }
            const PolySurface s = PolySurface::fit(dims, degree, xs, ys);
            const ReferencePoly::Parsed p = ref.parse(s);
            ASSERT_EQ(p.coeffs.size(), ref.exponents.size());

            // Fit: the table's Vandermonde rows are the reference rows.
            const std::vector<double> want = ref.fit(p, xs, ys);
            for (std::size_t c = 0; c < want.size(); ++c)
                EXPECT_EQ(p.coeffs[c], want[c]) << "coefficient " << c;

            std::stringstream ss;
            s.serialize(ss);
            const PolySurface t = PolySurface::deserialize(ss);
            // Points inside the fitted box and up to one box-width
            // outside it (the library clamps, but the kernel must not
            // care where it is evaluated).
            for (int i = 0; i < 64; ++i) {
                const double reach = i % 2 == 0 ? 1.0 : 3.0;
                std::vector<double> x(dims);
                for (int d = 0; d < dims; ++d)
                    x[d] = lo[d] + span[d] * (reach * unit(rng) - (reach - 1.0) / 2.0);
                const double r = ref.evaluate(p, x);
                EXPECT_EQ(s.evaluate(x), r) << "point " << i;
                EXPECT_EQ(t.evaluate(x), r) << "deserialized, point " << i;
            }
        }
    }
}

TEST(PolySurface, DeserializeRejectsTermsBeyondTheDeclaredDegree) {
    // dims 2, degree 1, two terms; the second claims x^2.
    std::stringstream bad("2 1 2\n0 1\n0 1\n0 0 1.5\n2 0 0.5\n");
    EXPECT_THROW(PolySurface::deserialize(bad), std::runtime_error);
    std::stringstream negative("2 1 2\n0 1\n0 1\n0 0 1.5\n-1 0 0.5\n");
    EXPECT_THROW(PolySurface::deserialize(negative), std::runtime_error);
    std::stringstream good("2 1 2\n0 1\n0 1\n0 0 1.5\n1 0 0.5\n");
    const PolySurface s = PolySurface::deserialize(good);
    EXPECT_EQ(s(2.0, 7.0), 1.5 + 0.5 * 2.0);
}

TEST(PolySurface, ThrowsWithTooFewSamples) {
    std::vector<std::vector<double>> xs = {{0, 0}, {1, 1}};
    std::vector<double> ys = {0, 1};
    EXPECT_THROW(PolySurface::fit(2, 3, xs, ys), std::invalid_argument);
}

}  // namespace
}  // namespace ctsim::la
