#include "recshard/serving/lookup_block.hh"

#include <limits>

#include "recshard/base/logging.hh"

namespace recshard {

void
requireCompactRows(const ModelSpec &model)
{
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        fatal_if(model.features[j].hashSize > kMaxCompactRows,
                 "EMB ", j, " has ", model.features[j].hashSize,
                 " rows; lookup traces hold 32-bit row ids (at most ",
                 kMaxCompactRows, " rows per table)");
}

std::uint64_t
LookupBlock::prefixLookups(std::uint32_t kept) const
{
    std::uint64_t n = 0;
    for (std::uint32_t j = 0; j < numFeatures(); ++j)
        n += prefixEnd(j, kept);
    return n;
}

void
LookupBlock::reset(std::uint32_t samples_, std::uint32_t features,
                   std::size_t lookups)
{
    samples = samples_;
    rows.clear();
    featureStart.clear();
    sampleOffsets.clear();
    rows.reserve(lookups);
    featureStart.reserve(features);
    sampleOffsets.reserve(features * (std::size_t{samples} + 1));
}

void
LookupBlock::addFeature()
{
    featureStart.push_back(static_cast<std::uint32_t>(rows.size()));
    sampleOffsets.push_back(0);
}

void
LookupBlock::appendSamples(const FeatureBatch &batch)
{
    panic_if(featureStart.empty(), "no feature to append to");
    panic_if(batch.offsets.empty(), "batch has no offsets");
    fatal_if(rows.size() + batch.indices.size() >
                 std::numeric_limits<std::uint32_t>::max(),
             "a lookup block holds at most 2^32 - 1 lookups");
    const auto base =
        static_cast<std::uint32_t>(rows.size() - featureStart.back());
    for (std::size_t s = 1; s < batch.offsets.size(); ++s)
        sampleOffsets.push_back(base + batch.offsets[s]);
    rows.insert(rows.end(), batch.indices.begin(), batch.indices.end());
}

} // namespace recshard
