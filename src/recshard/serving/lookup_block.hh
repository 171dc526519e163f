/**
 * @file
 * LookupBlock: every embedding lookup of one query (or one
 * micro-batch) in a single compact 32-bit CSR block.
 *
 * The serving and routing tiers materialize their traffic once and
 * replay it against every plan, so the lookups are most of what a
 * serving run holds in memory and most of what ShardServer streams
 * per dispatch. A block stores each lookup in 4 bytes, and all of a
 * query's features share three allocations:
 *
 *   rows           every feature's row ids, feature-major: feature
 *                  j's lookups are rows[featureStart[j] ..
 *                  featureStart[j] + featureLookups(j)).
 *   featureStart   one entry per feature: its first index in rows.
 *   sampleOffsets  samples + 1 entries per feature, feature-major.
 *                  With off = featureOffsets(j), candidate s of
 *                  feature j owns its rows [off[s], off[s + 1]);
 *                  off[0] == 0 and off[samples] is the feature's
 *                  lookup count.
 *
 * The per-candidate offsets let degraded-mode serving (overload/)
 * execute only a query's first `kept` ranking candidates: a prefix
 * of each feature, read in place (prefixEnd()).
 *
 * Row ids are 32-bit. Every table a block is built for has at most
 * kMaxCompactRows rows: requireCompactRows() checks the model before
 * a trace draws any lookup, and readRoutedTrace() checks every row
 * it reads back.
 */

#ifndef RECSHARD_SERVING_LOOKUP_BLOCK_HH
#define RECSHARD_SERVING_LOOKUP_BLOCK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/datagen/feature_spec.hh"

namespace recshard {

/** Largest table (in rows) whose row ids a LookupBlock can hold. */
constexpr std::uint64_t kMaxCompactRows = 1ULL << 32;

/** fatal() if any of the model's tables has more than
 *  kMaxCompactRows rows. */
void requireCompactRows(const ModelSpec &model);

/** One query's (or micro-batch's) lookups, per feature and per
 *  candidate sample; see the file comment for the layout. */
struct LookupBlock
{
    /** Candidate samples the block covers. */
    std::uint32_t samples = 0;
    std::vector<std::uint32_t> rows;
    std::vector<std::uint32_t> featureStart;
    std::vector<std::uint32_t> sampleOffsets;

    std::uint32_t numFeatures() const
    {
        return static_cast<std::uint32_t>(featureStart.size());
    }

    /** Feature j's row ids (featureLookups(j) of them). */
    const std::uint32_t *featureRows(std::uint32_t j) const
    {
        return rows.data() + featureStart[j];
    }

    /** Feature j's samples + 1 candidate boundaries. */
    const std::uint32_t *featureOffsets(std::uint32_t j) const
    {
        return sampleOffsets.data() +
            static_cast<std::size_t>(j) * (std::size_t{samples} + 1);
    }

    /** Lookups feature j makes for its first `kept` candidates. */
    std::uint32_t prefixEnd(std::uint32_t j, std::uint32_t kept) const
    {
        return featureOffsets(j)[kept];
    }

    std::uint32_t featureLookups(std::uint32_t j) const
    {
        return prefixEnd(j, samples);
    }

    /** Lookups of the first `kept` candidates, over all features. */
    std::uint64_t prefixLookups(std::uint32_t kept) const;

    /** Empty the block for `samples` candidates, reserving room for
     *  `features` features and `lookups` rows. */
    void reset(std::uint32_t samples, std::uint32_t features,
               std::size_t lookups);

    /** Start the next feature; its rows follow the previous one's. */
    void addFeature();

    /**
     * Append a batch's candidates to the current feature: its row
     * ids, narrowed to 32 bits (the caller has checked the table
     * with requireCompactRows()), and its offsets past the rows the
     * feature already holds.
     */
    void appendSamples(const FeatureBatch &batch);
};

} // namespace recshard

#endif // RECSHARD_SERVING_LOOKUP_BLOCK_HH
