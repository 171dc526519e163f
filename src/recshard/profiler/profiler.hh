/**
 * @file
 * Training-data profiling (paper Section 4.1, Fig. 10 phase 1).
 *
 * Streams sampled training batches and accumulates, per EMB:
 * (1) the post-hash value-frequency CDF, (2) the average pooling
 * factor, and (3) the coverage. The paper observes that sampling
 * <= 1% of a production data store suffices; the profiler is
 * agnostic to the sampling rate — callers feed it however many
 * batches they wish.
 */

#ifndef RECSHARD_PROFILER_PROFILER_HH
#define RECSHARD_PROFILER_PROFILER_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/datagen/feature_spec.hh"
#include "recshard/dist/frequency_cdf.hh"

namespace recshard {

/** Per-EMB statistics the sharder consumes. */
struct EmbProfile
{
    FrequencyCdf cdf;     //!< post-hash value-frequency CDF
    double avgPool = 0.0; //!< mean lookups per *present* sample
    double coverage = 0.0;//!< fraction of samples feature is present
    std::uint64_t samplesSeen = 0;
    std::uint64_t lookups = 0;

    /** Expected EMB accesses per training sample. */
    double expectedAccessesPerSample() const
    {
        return avgPool * coverage;
    }
};

/** Streaming statistics accumulator over sampled batches. */
class DataProfiler
{
  public:
    /**
     * @param spec            Model being profiled.
     * @param dense_threshold Tables with hashSize <= threshold use a
     *                        dense count array; larger tables fall
     *                        back to a hash map of touched rows.
     */
    explicit DataProfiler(const ModelSpec &spec,
                          std::uint64_t dense_threshold = 1ULL << 25);

    /** Accumulate one feature's batch. */
    void addFeatureBatch(std::uint32_t feature,
                         const FeatureBatch &batch);

    /** Accumulate a whole sparse batch. */
    void addBatch(const SparseBatch &batch);

    /**
     * Produce per-EMB profiles and release the accumulators. The
     * profiler must not be reused afterwards.
     */
    std::vector<EmbProfile> finalize();

    /**
     * Produce one EMB's profile and release its accumulator; the
     * feature takes no more batches afterwards, and finalize()
     * would fail on it. Like addFeatureBatch(), it touches only
     * that feature's state, so distinct features may be
     * accumulated and finalized concurrently.
     */
    EmbProfile finalizeFeature(std::uint32_t feature);

  private:
    struct PerFeature
    {
        bool useDense = false;
        std::vector<std::uint32_t> dense;
        std::unordered_map<std::uint64_t, std::uint64_t> sparse;
        std::uint64_t presentSamples = 0;
        std::uint64_t totalSamples = 0;
        std::uint64_t lookups = 0;
        bool released = false; //!< profile taken by finalizeFeature()
    };

    const ModelSpec &model;
    std::vector<PerFeature> acc;
    bool finalized = false;
};

/**
 * Convenience wrapper: profile `num_samples` samples drawn from the
 * dataset in batches of `batch_size`, using a batch-index region
 * disjoint from training replay. Features are profiled on up to
 * parallelWorkers() threads (base/parallel.hh); the profiles equal
 * a sequential addFeatureBatch() loop for every worker count.
 */
std::vector<EmbProfile> profileDataset(const SyntheticDataset &data,
                                       std::uint64_t num_samples,
                                       std::uint32_t batch_size = 4096);

} // namespace recshard

#endif // RECSHARD_PROFILER_PROFILER_HH
