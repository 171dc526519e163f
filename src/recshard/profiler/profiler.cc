#include "recshard/profiler/profiler.hh"

#include <algorithm>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

DataProfiler::DataProfiler(const ModelSpec &spec,
                           std::uint64_t dense_threshold)
    : model(spec)
{
    model.validate();
    acc.resize(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        acc[j].useDense = model.features[j].hashSize <= dense_threshold;
}

void
DataProfiler::addFeatureBatch(std::uint32_t feature,
                              const FeatureBatch &batch)
{
    panic_if(finalized, "profiler reused after finalize()");
    fatal_if(feature >= model.numFeatures(),
             "feature ", feature, " out of range");
    PerFeature &pf = acc[feature];
    panic_if(pf.released, "feature ", feature,
             " accumulated after its profile was taken");
    const std::uint64_t hash_size = model.features[feature].hashSize;
    // Count arrays are allocated on first use, so a profiler fed one
    // feature at a time (profileDataset) holds one array per worker.
    if (pf.useDense && pf.dense.empty())
        pf.dense.assign(hash_size, 0);

    pf.totalSamples += batch.batchSize();
    pf.presentSamples += batch.presentSamples();
    pf.lookups += batch.numLookups();
    for (const std::uint64_t row : batch.indices) {
        panic_if(row >= hash_size, "row ", row,
                 " outside hash size ", hash_size,
                 " for feature ", feature);
        if (pf.useDense)
            ++pf.dense[row];
        else
            ++pf.sparse[row];
    }
}

void
DataProfiler::addBatch(const SparseBatch &batch)
{
    fatal_if(batch.features.size() != model.numFeatures(),
             "batch feature count ", batch.features.size(),
             " != model feature count ", model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        addFeatureBatch(j, batch.features[j]);
}

std::vector<EmbProfile>
DataProfiler::finalize()
{
    panic_if(finalized, "profiler finalized twice");
    finalized = true;

    std::vector<EmbProfile> out(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j)
        out[j] = finalizeFeature(j);
    return out;
}

EmbProfile
DataProfiler::finalizeFeature(std::uint32_t feature)
{
    fatal_if(feature >= model.numFeatures(),
             "feature ", feature, " out of range");
    PerFeature &pf = acc[feature];
    panic_if(pf.released, "feature ", feature,
             " profile taken twice");
    pf.released = true;

    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    if (pf.useDense) {
        for (std::uint64_t row = 0; row < pf.dense.size(); ++row)
            if (pf.dense[row])
                counts.emplace_back(row, pf.dense[row]);
        pf.dense.clear();
        pf.dense.shrink_to_fit();
    } else {
        counts.reserve(pf.sparse.size());
        // lint:allow(no-unordered-iteration): FrequencyCdf ctor sorts by (count, row)
        for (const auto &[row, count] : pf.sparse)
            counts.emplace_back(row, count);
        pf.sparse.clear();
    }
    EmbProfile profile;
    profile.cdf = FrequencyCdf(model.features[feature].hashSize,
                               std::move(counts));
    profile.samplesSeen = pf.totalSamples;
    profile.lookups = pf.lookups;
    profile.coverage = pf.totalSamples
        ? static_cast<double>(pf.presentSamples) /
              static_cast<double>(pf.totalSamples)
        : 0.0;
    profile.avgPool = pf.presentSamples
        ? static_cast<double>(pf.lookups) /
              static_cast<double>(pf.presentSamples)
        : 0.0;
    return profile;
}

std::vector<EmbProfile>
profileDataset(const SyntheticDataset &data, std::uint64_t num_samples,
               std::uint32_t batch_size)
{
    fatal_if(num_samples == 0, "cannot profile zero samples");
    fatal_if(batch_size == 0, "batch size must be >= 1");
    const ModelSpec &model = data.spec();
    const std::uint32_t J = model.numFeatures();
    DataProfiler profiler(model);

    // Each feature is profiled start to finish by one worker: its
    // batches, its count array and its CDF touch nothing another
    // feature does. Heaviest first (expected lookups plus the count
    // array's scan), so the last feature claimed is a light one.
    std::vector<std::uint32_t> order(J);
    std::vector<double> weight(J);
    for (std::uint32_t j = 0; j < J; ++j) {
        const FeatureSpec &f = model.features[j];
        order[j] = j;
        weight[j] = static_cast<double>(num_samples) * f.coverage *
                f.meanPool +
            static_cast<double>(f.hashSize);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return weight[a] > weight[b];
                     });

    // Batch-index region disjoint from training replay (which uses
    // small indices).
    constexpr std::uint64_t kProfileRegion = 1ULL << 40;
    std::vector<EmbProfile> out(J);
    std::vector<FeatureBatch> scratch(parallelWorkers(J));
    parallelFor(J, [&](unsigned worker, std::size_t k) {
        const std::uint32_t j = order[k];
        FeatureBatch &fb = scratch[worker];
        // This feature's tabulated Zipf draw, freed with the item.
        const ZipfTable zipf = data.zipfTable(j);
        std::uint64_t remaining = num_samples;
        for (std::uint64_t batch_index = kProfileRegion; remaining > 0;
             ++batch_index) {
            const auto this_batch = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(batch_size, remaining));
            data.featureBatch(fb, zipf, j, this_batch, batch_index,
                              data.month());
            profiler.addFeatureBatch(j, fb);
            remaining -= this_batch;
        }
        out[j] = profiler.finalizeFeature(j);
    });
    return out;
}

} // namespace recshard
