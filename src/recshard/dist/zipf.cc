#include "recshard/dist/zipf.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "recshard/base/logging.hh"

namespace recshard {

namespace {

/** (exp(t) - 1) / t, stable near t == 0. */
double
expm1OverT(double t)
{
    return std::abs(t) > 1e-8 ? std::expm1(t) / t
                              : 1.0 + t / 2.0 * (1.0 + t / 3.0);
}

/** log(1 + t) / t, stable near t == 0. */
double
log1pOverT(double t)
{
    return std::abs(t) > 1e-8 ? std::log1p(t) / t
                              : 1.0 - t / 2.0 * (1.0 - 2.0 * t / 3.0);
}

} // namespace

ZipfSampler::ZipfSampler(std::uint64_t n_, double alpha_)
    : n(n_), alpha(alpha_)
{
    fatal_if(n == 0, "Zipf support must be non-empty");
    fatal_if(alpha < 0.0, "Zipf exponent must be >= 0, got ", alpha);
    if (alpha > 0.0) {
        hX1 = hIntegral(1.5) - 1.0;
        hN = hIntegral(static_cast<double>(n) + 0.5);
        sThreshold = 2.0 -
            hIntegralInverse(hIntegral(2.5) - h(2.0));
    }
}

// H is an antiderivative of h(x) = x^-alpha on [1, n + 1/2]; the
// expm1/log1p helpers keep both H and its inverse stable through
// alpha == 1, where the closed forms degenerate to log(x)/exp(x).

double
ZipfSampler::hIntegral(double x) const
{
    const double logx = std::log(x);
    return expm1OverT((1.0 - alpha) * logx) * logx;
}

double
ZipfSampler::h(double x) const
{
    return std::exp(-alpha * std::log(x));
}

double
ZipfSampler::hIntegralInverse(double x) const
{
    double t = x * (1.0 - alpha);
    t = std::max(t, -1.0); // clamp round-off below the pole
    return std::exp(log1pOverT(t) * x);
}

double
ZipfSampler::acceptBound(double k) const
{
    return hIntegral(k + 0.5) - h(k);
}

std::uint64_t
ZipfSampler::rankAt(double u) const
{
    const double x = hIntegralInverse(u);
    double k = std::floor(x + 0.5);
    k = std::clamp(k, 1.0, static_cast<double>(n));
    if (k - x <= sThreshold || u >= acceptBound(k))
        return static_cast<std::uint64_t>(k) - 1;
    return kRejected;
}

std::uint64_t
ZipfSampler::operator()(Rng &rng) const
{
    if (alpha == 0.0)
        return static_cast<std::uint64_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));

    // Hörmann & Derflinger rejection-inversion: invert H over the
    // continuous envelope, round to the nearest integer rank, and
    // accept either inside the always-accept band or by the exact
    // h comparison. Expected iterations are O(1) for all alpha.
    for (;;) {
        const std::uint64_t rank = rankAt(envelopePoint(rng));
        if (rank != kRejected)
            return rank;
    }
}

double
ZipfSampler::normalization() const
{
    if (norm > 0.0)
        return norm;
    // Exact generalized harmonic for modest supports; for huge ones
    // (only hit by analytic reports, never by sampling) the tail
    // beyond the first million terms is integrated analytically.
    const std::uint64_t exact_terms =
        std::min<std::uint64_t>(n, 1'000'000);
    double sum = 0.0;
    for (std::uint64_t k = exact_terms; k >= 1; --k)
        sum += std::exp(-alpha * std::log(static_cast<double>(k)));
    if (exact_terms < n) {
        const double a = static_cast<double>(exact_terms) + 0.5;
        const double b = static_cast<double>(n) + 0.5;
        // Integral of x^-alpha over [a, b] (midpoint-corrected).
        sum += alpha == 1.0
            ? std::log(b / a)
            : (std::pow(b, 1.0 - alpha) - std::pow(a, 1.0 - alpha)) /
                (1.0 - alpha);
    }
    norm = sum;
    return norm;
}

double
ZipfSampler::pmf(std::uint64_t k) const
{
    fatal_if(k >= n, "rank ", k, " outside support ", n);
    return std::exp(-alpha *
                    std::log(static_cast<double>(k) + 1.0)) /
        normalization();
}

std::vector<double>
ZipfSampler::exactCdf() const
{
    std::vector<double> cdf;
    cdf.reserve(n);
    const double z = normalization();
    double acc = 0.0;
    for (std::uint64_t k = 1; k <= n; ++k) {
        acc += std::exp(-alpha * std::log(static_cast<double>(k)));
        cdf.push_back(acc / z);
    }
    return cdf;
}

namespace {

/** Relative distance from a boundary inside which the table defers
 *  to the exact step: ~10^6 times the error of evaluating H or its
 *  inverse (the probes in tests/zipf_table_test.cc straddle it). */
constexpr double kMargin = 1e-9;

/** Guide buckets per tabulated rank. */
constexpr std::uint64_t kGuidePerRank = 4;

} // namespace

ZipfTable::ZipfTable(std::uint64_t n, double alpha, bool tabulate)
    : zipf(n, alpha)
{
    if (!tabulate || alpha == 0.0)
        return;
    const std::uint64_t K = std::min(n, kMaxRanks);
    ranks.resize(K);
    double below = -std::numeric_limits<double>::infinity();
    for (std::uint64_t i = 0; i < K; ++i) {
        const double k = static_cast<double>(i + 1);
        // The step rounds u to rank k on [H(k - 1/2), H(k + 1/2));
        // rank 1 has no lower boundary, since the step clamps rank 0
        // up to 1. Both ends are pulled in by the margin.
        const double upper = zipf.hIntegral(k + 0.5);
        // s <= 1/2 (h is convex), so k - s >= 1/2 stays inside H's
        // domain.
        ranks[i] = {below, upper - kMargin * std::abs(upper),
                    zipf.acceptBound(k),
                    zipf.hIntegral(k - zipf.sThreshold)};
        below = upper + kMargin * std::abs(upper);
    }

    // Guide buckets over [hX1, upper(K)), the envelope points the
    // table can decide; u is uniform there, so a draw walks past
    // 1 / kGuidePerRank boundaries on average.
    const std::uint64_t G = K * kGuidePerRank;
    guideLo = zipf.hX1;
    guideScale = static_cast<double>(G) /
        (ranks.back().upper - guideLo);
    guide.resize(G);
    std::uint64_t i = 0;
    for (std::uint64_t g = 0; g < G; ++g) {
        const double start = guideLo + static_cast<double>(g) / guideScale;
        while (i + 1 < K && ranks[i].upper <= start)
            ++i;
        guide[g] = static_cast<std::uint16_t>(i);
    }
}

std::uint64_t
ZipfTable::decide(double u) const
{
    if (!(u < ranks.back().upper))
        return kUndecided; // past the table, or in its top margin
    const double pos = (u - guideLo) * guideScale;
    std::size_t i = guide[pos > 0.0
        ? std::min(static_cast<std::size_t>(pos), guide.size() - 1)
        : 0];
    while (u >= ranks[i].upper) // stops at the last rank at the latest
        ++i;
    const Rank &r = ranks[i];
    if (u < r.lower)
        return kUndecided; // within a rounding boundary's margin
    // Accepted if u clears the identical h-comparison double, or lies
    // clearly inside the shortcut band (x >= k - s, i.e. u >= H(k - s)).
    if (u >= r.accept)
        return i;
    const double margin = kMargin * std::abs(r.shortcut);
    if (u - r.shortcut > margin)
        return i;
    return r.shortcut - u > margin ? kRejected : kUndecided;
}

std::uint64_t
ZipfTable::operator()(Rng &rng) const
{
    if (ranks.empty())
        return zipf(rng);
    // The exact sampler's loop, one envelope point per iteration;
    // only the decision on each point comes from the table.
    for (;;) {
        const std::uint64_t rank = rankAt(zipf.envelopePoint(rng));
        if (rank != kRejected)
            return rank;
    }
}

std::uint64_t
ZipfTable::rankAt(double u) const
{
    const std::uint64_t rank = ranks.empty() ? kUndecided : decide(u);
    return rank == kUndecided ? zipf.rankAt(u) : rank;
}

} // namespace recshard
