/**
 * @file
 * Differential tests for the table-driven synthesis kernels. A
 * ZipfTable must draw exactly the ranks ZipfSampler draws, from the
 * same random numbers, leaving the generator in the same state: over
 * every catalog the serving workloads and the paper models synthesize,
 * over edge supports and exponents, and at envelope points placed on
 * and around every tabulated boundary. FastModulo must equal `%` for
 * every divisor shape.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/dist/zipf.hh"
#include "recshard/hashing/hashers.hh"

namespace {

using namespace recshard;

constexpr std::uint64_t K = ZipfTable::kMaxRanks;

/** `draws` draws of the table against the exact sampler from one
 *  seed: equal ranks draw for draw, equal generator state after. */
void
expectSameDraws(std::uint64_t n, double alpha, int draws,
                std::uint64_t seed)
{
    SCOPED_TRACE("n " + std::to_string(n) + " alpha " +
                 std::to_string(alpha));
    const ZipfSampler exact(n, alpha);
    const ZipfTable table(n, alpha);
    EXPECT_EQ(table.tabulatedRanks(),
              alpha == 0.0 ? 0 : std::min(n, K));
    Rng a(seed), b(seed);
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t want = exact(a);
        ASSERT_EQ(table(b), want) << "draw " << i;
        ASSERT_LT(want, n);
    }
    EXPECT_TRUE(a == b);
}

/** Every (cardinality, alpha) a model's features synthesize. */
void
expectSameDrawsForModel(const ModelSpec &model, int draws)
{
    std::uint64_t seed = 1;
    for (const FeatureSpec &f : model.features)
        expectSameDraws(f.cardinality, f.alpha, draws, seed++);
}

TEST(ZipfTable, MatchesExactOnServingCatalogs)
{
    // The serving workloads' model: its own catalogs, and the drift
    // catalog (one raw value per row, alpha 1.2).
    ModelSpec model = makeTinyModel(12, 20000, 7);
    expectSameDrawsForModel(model, 100000);
    for (FeatureSpec &f : model.features) {
        f.cardinality = f.hashSize;
        f.alpha = 1.2;
    }
    expectSameDrawsForModel(model, 100000);
}

TEST(ZipfTable, MatchesExactOnPaperModels)
{
    expectSameDrawsForModel(makeRm1(1.0 / 32), 4000);
    expectSameDrawsForModel(makeRm3(1.0 / 32), 4000);
}

TEST(ZipfTable, MatchesExactOnEdgeSupportsAndExponents)
{
    const std::uint64_t supports[] = {1, 2, 3, K, K + 1,
                                      (1ULL << 32) + 5};
    const double alphas[] = {0.0, 0.5, 1.0, 1.0 - 1e-9, 1.0 + 1e-9,
                             1.2, 3.0};
    std::uint64_t seed = 100;
    for (const std::uint64_t n : supports)
        for (const double alpha : alphas)
            expectSameDraws(n, alpha, 50000, seed++);
}

TEST(ZipfTable, TableLessIsTheExactSampler)
{
    const ZipfTable table(20000, 1.1, false);
    EXPECT_EQ(table.tabulatedRanks(), 0u);
    const ZipfSampler exact(20000, 1.1);
    Rng a(5), b(5);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(table(b), exact(a));
    EXPECT_TRUE(a == b);
}

/** H, the envelope integral, and its inverse in closed form (for
 *  probe placement; the probes straddle each boundary widely enough
 *  that its last bits do not matter). */
double
envelopeIntegral(double x, double alpha)
{
    return alpha == 1.0 ? std::log(x)
                        : (std::pow(x, 1.0 - alpha) - 1.0) /
            (1.0 - alpha);
}

double
envelopeIntegralInverse(double y, double alpha)
{
    return alpha == 1.0 ? std::exp(y)
                        : std::pow(1.0 + (1.0 - alpha) * y,
                                   1.0 / (1.0 - alpha));
}

TEST(ZipfTable, MatchesExactAroundEveryBoundary)
{
    // Envelope points on and around each rank's rounding boundary
    // H(k + 1/2), acceptance threshold H(k + 1/2) - h(k) and shortcut
    // boundary H(k - s): exactly on it, a few ulps off (inside the
    // margin, where the table must defer to the exact step), and well
    // off (where it decides).
    const double offsets[] = {0.0,   1e-16, 4e-16, 1e-15, 1e-13,
                              1e-11, 1e-10, 5e-10, 1e-9,  2e-9,
                              1e-8,  1e-6};
    for (const double alpha : {0.5, 1.0, 1.0 + 1e-9, 1.2, 3.0}) {
        for (const std::uint64_t n : {std::uint64_t{3}, K + 1}) {
            SCOPED_TRACE("n " + std::to_string(n) + " alpha " +
                         std::to_string(alpha));
            const ZipfSampler exact(n, alpha);
            const ZipfTable table(n, alpha);
            const double lo = envelopeIntegral(1.5, alpha) - 1.0;
            const double hi = envelopeIntegral(n + 0.5, alpha);
            const double s = 2.0 -
                envelopeIntegralInverse(envelopeIntegral(2.5, alpha) -
                                            std::pow(2.0, -alpha),
                                        alpha);
            for (std::uint64_t k = 1; k <= std::min(n, K); ++k) {
                const double b = envelopeIntegral(k + 0.5, alpha);
                const double a = b - std::pow(k, -alpha);
                const double c = envelopeIntegral(k - s, alpha);
                for (const double base : {b, a, c}) {
                    for (const double off : offsets) {
                        for (const double sign : {-1.0, 1.0}) {
                            const double u =
                                base + sign * off * std::abs(base);
                            if (u < lo || u > hi)
                                continue;
                            ASSERT_EQ(table.rankAt(u), exact.rankAt(u))
                                << "k " << k << " u " << u;
                        }
                    }
                }
            }
        }
    }
}

TEST(FastModulo, EqualsRemainderForEveryDivisorShape)
{
    std::vector<std::uint64_t> divisors = {
        1, 2, 3, 1ULL << 63, std::numeric_limits<std::uint64_t>::max()};
    for (int k = 2; k < 64; ++k) {
        divisors.push_back(1ULL << k);
        divisors.push_back((1ULL << k) - 1);
        divisors.push_back((1ULL << k) + 1);
    }
    std::vector<FastModulo> mods;
    for (const std::uint64_t d : divisors)
        mods.emplace_back(d);

    Rng rng(0x5eed);
    for (int i = 0; i < 1000000; ++i) {
        const std::uint64_t x = rng.nextU64();
        for (const FastModulo &m : mods)
            ASSERT_EQ(m(x), x % m.divisor())
                << x << " % " << m.divisor();
    }
    // The extremes of the numerator range, and multiples of d.
    for (const FastModulo &m : mods) {
        const std::uint64_t d = m.divisor();
        for (const std::uint64_t x :
             {std::uint64_t{0}, std::uint64_t{1}, d - 1, d, d + 1,
              2 * d, std::numeric_limits<std::uint64_t>::max(),
              std::numeric_limits<std::uint64_t>::max() - 1})
            ASSERT_EQ(m(x), x % d) << x << " % " << d;
    }
}

TEST(FastModulo, FeatureHasherKeepsTheRemainderReduction)
{
    // The hasher's rows are the mixed value % hash size, as they
    // were before the reduction lost its division.
    for (const std::uint64_t size :
         {std::uint64_t{1}, std::uint64_t{97}, std::uint64_t{1} << 20,
          std::uint64_t{1'000'003}, (std::uint64_t{1} << 40) + 7}) {
        const std::uint64_t salt = size * 31 + 5;
        const FeatureHasher hasher(size, salt);
        const std::uint64_t mixed_salt =
            salt * 0x9e3779b97f4a7c15ULL + 0x6a09e667f3bcc909ULL;
        Rng rng(size);
        for (int i = 0; i < 10000; ++i) {
            const std::uint64_t v = rng.nextU64() >> (i % 64);
            ASSERT_EQ(hasher(v), mixSplitMix64(v ^ mixed_salt) % size);
        }
    }
}

} // namespace
