#include "recshard/datagen/dataset.hh"

#include <cmath>

#include "recshard/base/logging.hh"
#include "recshard/dist/sampling.hh"
#include "recshard/hashing/hashers.hh"

namespace recshard {

std::uint32_t
FeatureBatch::presentSamples() const
{
    std::uint32_t present = 0;
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i)
        present += offsets[i + 1] > offsets[i];
    return present;
}

double
DriftModel::multiplier(FeatureKind kind, std::uint32_t month) const
{
    const double slope = kind == FeatureKind::User
        ? userSlopePerMonth : contentSlopePerMonth;
    const double phase = kind == FeatureKind::User ? 0.0 : 1.3;
    return 1.0 + slope * month +
        wiggleAmplitude * std::sin(0.9 * month + phase);
}

std::uint64_t
DriftModel::valueShift(std::uint32_t month,
                       std::uint64_t cardinality) const
{
    if (hotChurnPerMonth <= 0.0 || month == 0 || cardinality == 0)
        return 0;
    const double raw = hotChurnPerMonth *
        static_cast<double>(month) *
        static_cast<double>(cardinality);
    return static_cast<std::uint64_t>(raw) % cardinality;
}

SyntheticDataset::SyntheticDataset(ModelSpec spec_, std::uint64_t seed_)
    : model(std::move(spec_)), seed(seed_)
{
    model.validate();
}

FeatureBatch
SyntheticDataset::featureBatch(std::uint32_t feature,
                               std::uint32_t batch_size,
                               std::uint64_t batch_index) const
{
    FeatureBatch batch;
    featureBatch(batch, feature, batch_size, batch_index, monthV);
    return batch;
}

void
SyntheticDataset::featureBatch(FeatureBatch &batch,
                               std::uint32_t feature,
                               std::uint32_t batch_size,
                               std::uint64_t batch_index,
                               std::uint32_t month) const
{
    checkFeature(feature);
    const FeatureSpec &f = model.features[feature];
    featureBatch(batch, ZipfTable(f.cardinality, f.alpha, false), feature,
                 batch_size, batch_index, month);
}

ZipfTable
SyntheticDataset::zipfTable(std::uint32_t feature) const
{
    checkFeature(feature);
    const FeatureSpec &f = model.features[feature];
    return ZipfTable(f.cardinality, f.alpha);
}

std::vector<ZipfTable>
SyntheticDataset::zipfTables() const
{
    std::vector<ZipfTable> tables;
    tables.reserve(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        tables.push_back(zipfTable(j));
    return tables;
}

void
SyntheticDataset::checkFeature(std::uint32_t feature) const
{
    fatal_if(feature >= model.numFeatures(),
             "feature ", feature, " out of range");
}

void
SyntheticDataset::featureBatch(FeatureBatch &batch,
                               const ZipfTable &zipf,
                               std::uint32_t feature,
                               std::uint32_t batch_size,
                               std::uint64_t batch_index,
                               std::uint32_t month) const
{
    checkFeature(feature);
    fatal_if(batch_size == 0, "batch size must be >= 1");
    const FeatureSpec &f = model.features[feature];
    fatal_if(zipf.sampler().support() != f.cardinality ||
                 zipf.sampler().exponent() != f.alpha,
             "Zipf sampler does not match feature ", feature);

    // Independent substream per (feature, month, batch index).
    Rng rng = Rng(seed).fork(feature)
        .fork((static_cast<std::uint64_t>(month) << 40) ^
              batch_index);

    const double drifted_pool = f.meanPool *
        driftV.multiplier(f.kind, month);
    const PoolingDist pooling(drifted_pool, f.poolSigma, f.maxPool);
    const FeatureHasher hasher(f.hashSize, f.hashSalt);
    // Popularity churn: rotate the raw value space so the hot ranks
    // land on new values as months pass. Both terms lie below the
    // cardinality, so (v + shift) % cardinality is one conditional
    // subtract; zero churn leaves the historical stream unchanged.
    const std::uint64_t shift = driftV.valueShift(month, f.cardinality);
    const std::uint64_t wrap_at = f.cardinality - shift;

    batch.offsets.clear();
    batch.indices.clear();
    batch.offsets.reserve(batch_size + 1);
    batch.offsets.push_back(0);
    batch.indices.reserve(static_cast<std::size_t>(
        batch_size * f.coverage * drifted_pool * 1.2) + 8);
    for (std::uint32_t s = 0; s < batch_size; ++s) {
        if (rng.bernoulli(f.coverage)) {
            const std::uint32_t pool = pooling(rng);
            for (std::uint32_t k = 0; k < pool; ++k) {
                const std::uint64_t v = zipf(rng);
                batch.indices.push_back(hasher(
                    v >= wrap_at ? v - wrap_at : v + shift));
            }
        }
        batch.offsets.push_back(
            static_cast<std::uint32_t>(batch.indices.size()));
    }
}

SparseBatch
SyntheticDataset::batch(std::uint32_t batch_size,
                        std::uint64_t batch_index) const
{
    SparseBatch out;
    out.batchSize = batch_size;
    out.features.reserve(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        out.features.push_back(featureBatch(j, batch_size,
                                            batch_index));
    return out;
}

std::vector<float>
SyntheticDataset::denseBatch(std::uint32_t num_dense,
                             std::uint32_t batch_size,
                             std::uint64_t batch_index) const
{
    Rng rng = Rng(seed).fork(0xdef5eULL).fork(batch_index);
    std::vector<float> values(static_cast<std::size_t>(num_dense) *
                              batch_size);
    for (auto &v : values)
        v = static_cast<float>(rng.gaussian());
    return values;
}

} // namespace recshard
