/**
 * @file
 * Zipf-distributed rank sampling (paper Section 3.1).
 *
 * Raw categorical values of production sparse features follow power
 * laws: the rank-k value (0-based here) is drawn with probability
 * proportional to 1 / (k+1)^alpha. Supports the full range the
 * workload model needs — alpha == 0 (uniform) through strong skew,
 * and supports beyond 2^32 values — with an O(1) constructor and
 * O(1) expected sampling time via rejection-inversion (Hörmann &
 * Derflinger).
 *
 * ZipfSampler is the exact sampler: every draw evaluates the
 * envelope's inverse (a log1p and an exp). ZipfTable draws the same
 * ranks from the same random numbers, table-driven: for the first
 * min(n, 4096) ranks it precomputes the rounding boundaries
 * H(k - 1/2) and H(k + 1/2), the acceptance threshold
 * H(k + 1/2) - h(k) and the shortcut boundary H(k - s), with the
 * sampler's own fp code, plus a guide table from the envelope point u
 * to its candidate rank. Each
 * loop iteration still takes one nextDouble() and forms the same u.
 * The table decides only when u lies more than 1e-9 relative from
 * every boundary it is compared against — far beyond the error of
 * evaluating H or its inverse; the acceptance comparison uses the
 * identical double, so it needs no margin. Every other u (past the
 * last tabulated rank, or inside a margin) runs the sampler's
 * unchanged exact step. Ranks and random-number consumption are
 * therefore bit-identical to ZipfSampler's. A table costs 40 bytes
 * per tabulated rank (160 KiB at the cap). Bulk data synthesis
 * builds one per feature per call, shares it read-only across
 * workers and frees it when the call returns; per-call synthesis
 * uses a table-less ZipfTable, which is the exact sampler.
 */

#ifndef RECSHARD_DIST_ZIPF_HH
#define RECSHARD_DIST_ZIPF_HH

#include <cstdint>
#include <vector>

#include "recshard/base/random.hh"

namespace recshard {

/** Draws 0-based Zipf ranks in [0, n). */
class ZipfSampler
{
  public:
    /**
     * @param n     Support size (number of distinct values), >= 1.
     * @param alpha Skew exponent, >= 0; 0 is uniform.
     */
    ZipfSampler(std::uint64_t n, double alpha);

    /** Draw one rank in [0, n). */
    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t support() const { return n; }
    double exponent() const { return alpha; }

    /** Exact probability of rank k (normalization computed lazily). */
    double pmf(std::uint64_t k) const;

    /**
     * The exact CDF over all n ranks; intended for small supports
     * (tests, analytic reports) — O(n) time and memory.
     */
    std::vector<double> exactCdf() const;

    /** rankAt()'s result when the envelope point is rejected. */
    static constexpr std::uint64_t kRejected = ~std::uint64_t{0};

    /**
     * One rejection-inversion iteration (alpha > 0) at envelope point
     * u, which a draw takes uniformly from [H(3/2) - 1, H(n + 1/2)]:
     * the 0-based rank it accepts, or kRejected.
     */
    std::uint64_t rankAt(double u) const;

  private:
    friend class ZipfTable;

    /** The envelope point one loop iteration draws (alpha > 0). */
    double envelopePoint(Rng &rng) const
    {
        return hN + rng.nextDouble() * (hX1 - hN);
    }

    /** The h-comparison threshold of 1-based rank k. */
    double acceptBound(double k) const;

    double hIntegral(double x) const;
    double h(double x) const;
    double hIntegralInverse(double x) const;
    double normalization() const;

    std::uint64_t n;
    double alpha;
    // Rejection-inversion constants (alpha > 0 only).
    double hX1 = 0.0;        //!< hIntegral(1.5) - 1
    double hN = 0.0;         //!< hIntegral(n + 0.5)
    double sThreshold = 0.0; //!< acceptance shortcut threshold
    mutable double norm = -1.0; //!< cached generalized harmonic H(n)
};

/**
 * ZipfSampler's draws, table-driven over the first ranks (see the
 * file comment). Immutable once built, so one table may be shared by
 * any number of threads, each drawing from its own Rng.
 */
class ZipfTable
{
  public:
    /** Ranks tabulated at most (160 KiB per table): the ranks
     *  most draws of a skewed catalog land on. */
    static constexpr std::uint64_t kMaxRanks = 4096;

    /**
     * @param n        Support size, >= 1.
     * @param alpha    Skew exponent, >= 0.
     * @param tabulate Build the table; false gives the table-less
     *                 exact sampler (as does alpha == 0, whose
     *                 uniform draw needs no table).
     */
    ZipfTable(std::uint64_t n, double alpha, bool tabulate = true);

    /** Draw one rank in [0, n): the rank ZipfSampler(n, alpha) would
     *  draw from the same Rng state, which is left as it would. */
    std::uint64_t operator()(Rng &rng) const;

    const ZipfSampler &sampler() const { return zipf; }

    /** ZipfSampler::rankAt(u), decided by the table where it can. */
    std::uint64_t rankAt(double u) const;

    /** Ranks the table decides (0 when table-less). */
    std::uint64_t tabulatedRanks() const { return ranks.size(); }

  private:
    /** Precomputed per 1-based rank k with ZipfSampler's own code:
     *  the envelope points the step rounds to k, less the margins,
     *  and the two acceptance tests' thresholds. */
    struct Rank
    {
        double lower;    //!< H(k - 1/2) plus margin; -inf for k == 1
        double upper;    //!< H(k + 1/2) minus margin
        double accept;   //!< h-comparison threshold H(k + 1/2) - h(k)
        double shortcut; //!< shortcut boundary H(k - s)
    };

    /** The table's verdict on u: a 0-based rank, kRejected, or
     *  kUndecided when u lies within a boundary's margin or past the
     *  table. */
    std::uint64_t decide(double u) const;

    static constexpr std::uint64_t kRejected = ZipfSampler::kRejected;
    static constexpr std::uint64_t kUndecided = kRejected - 1;

    ZipfSampler zipf;
    std::vector<Rank> ranks;
    /** guide[g]: the first rank whose upper bound exceeds the start
     *  of bucket g of [guideLo, ranks.back().upper). */
    std::vector<std::uint16_t> guide;
    double guideLo = 0.0;
    double guideScale = 0.0; //!< buckets per unit of u
};

} // namespace recshard

#endif // RECSHARD_DIST_ZIPF_HH
