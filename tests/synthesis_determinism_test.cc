/**
 * @file
 * Determinism tests for bulk data synthesis. The routed traces and
 * the dataset profile are generated on a worker pool
 * (base/parallel.hh), and they, like the serving trace, draw their
 * Zipf values through per-call ZipfTables (dist/zipf.hh). Each must
 * equal a sequential loop written here over the per-call
 * SyntheticDataset::featureBatch, which draws through the exact
 * sampler, whatever the worker count. Also checks the pool itself:
 * every item runs once, on a worker id below parallelWorkers().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "recshard/base/parallel.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/routing/trace.hh"
#include "recshard/serving/serving.hh"

namespace {

using namespace recshard;

/** One query of the sequential reference: the dataset's own
 *  featureBatch() output per feature, 64-bit rows and all. */
struct ReferenceQuery
{
    Query query;
    std::vector<FeatureBatch> features;
};

/** Sequential reference: arrivals and lookups query by query, at
 *  the month month_of(i), through the dataset's own month. */
template <typename MonthOf>
std::vector<ReferenceQuery>
referenceTrace(SyntheticDataset data, const LoadConfig &load,
               std::uint64_t n, MonthOf month_of)
{
    LoadGenerator generator(load);
    std::vector<ReferenceQuery> trace(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        data.setMonth(month_of(i));
        ReferenceQuery &rq = trace[i];
        rq.query = generator.next();
        rq.query.id = i;
        for (std::uint32_t j = 0; j < data.spec().numFeatures(); ++j)
            rq.features.push_back(data.featureBatch(
                j, rq.query.samples, rq.query.batchIndex));
    }
    return trace;
}

void
expectSameTrace(const RoutedTrace &got,
                const std::vector<ReferenceQuery> &want)
{
    ASSERT_EQ(got.queries.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const RoutedQuery &x = got.queries[i];
        const ReferenceQuery &y = want[i];
        ASSERT_EQ(x.query.id, y.query.id);
        ASSERT_EQ(x.query.arrival, y.query.arrival);
        ASSERT_EQ(x.query.samples, y.query.samples);
        ASSERT_EQ(x.query.batchIndex, y.query.batchIndex);
        const LookupBlock &block = x.lookups;
        ASSERT_EQ(block.samples, y.query.samples);
        ASSERT_EQ(block.numFeatures(), y.features.size());
        std::uint64_t total = 0;
        for (std::uint32_t j = 0; j < block.numFeatures(); ++j) {
            const FeatureBatch &fb = y.features[j];
            // Rows compared after widening back to 64 bits.
            const std::vector<std::uint64_t> rows(
                block.featureRows(j),
                block.featureRows(j) + block.featureLookups(j));
            ASSERT_EQ(rows, fb.indices) << "query " << i;
            const std::vector<std::uint32_t> offsets(
                block.featureOffsets(j),
                block.featureOffsets(j) + block.samples + 1);
            ASSERT_EQ(offsets, fb.offsets) << "query " << i;
            total += fb.indices.size();
        }
        ASSERT_EQ(x.totalLookups, total) << "query " << i;
        ASSERT_EQ(block.rows.size(), total) << "query " << i;
        ASSERT_EQ(block.rows.capacity(), block.rows.size())
            << "query " << i;
    }
}

ModelSpec
model()
{
    return makeTinyModel(6, 3000, 17);
}

LoadConfig
load()
{
    LoadConfig l;
    l.qps = 20000.0;
    l.meanQuerySamples = 6.0;
    l.seed = 29;
    return l;
}

TEST(SynthesisDeterminism, RoutedTraceMatchesSequentialLoop)
{
    SyntheticDataset data(model(), 5);
    data.setMonth(2);
    // 1000 queries: several parallel chunks and a partial last one.
    const RoutedTrace got = materializeRoutedTrace(data, load(), 1000);
    expectSameTrace(got, referenceTrace(data, load(), 1000,
                                        [](std::uint64_t) { return 2u; }));
    EXPECT_EQ(data.month(), 2u);
}

TEST(SynthesisDeterminism, DriftingTraceMatchesSequentialLoop)
{
    SyntheticDataset data(model(), 11);
    DriftModel drift;
    drift.hotChurnPerMonth = 0.05;
    data.setDrift(drift);
    data.setMonth(3);
    DriftTraceSchedule schedule;
    schedule.startMonth = 1;
    schedule.months = 5;
    const std::uint64_t n = 1000;
    const RoutedTrace got =
        materializeDriftingRoutedTrace(data, load(), n, schedule);
    expectSameTrace(got, referenceTrace(data, load(), n,
                                        [&](std::uint64_t i) {
                                            return static_cast<
                                                std::uint32_t>(
                                                1 + i * 5 / n);
                                        }));
    // The dataset's own month is never touched.
    EXPECT_EQ(data.month(), 3u);
}

TEST(SynthesisDeterminism, ProfileMatchesSequentialLoop)
{
    ModelSpec spec = model();
    // One table above the profiler's dense-array threshold (2^25
    // rows), so both accumulator kinds are compared.
    spec.features[1].hashSize = 1ULL << 26;
    spec.features[1].cardinality = 1ULL << 27;
    SyntheticDataset data(spec, 9);
    // 10 000 samples in batches of 4096: a partial last batch.
    const std::uint64_t samples = 10000;
    const std::vector<EmbProfile> got = profileDataset(data, samples);

    DataProfiler reference(data.spec());
    std::uint64_t batch_index = 1ULL << 40;
    for (std::uint64_t left = samples; left > 0; ++batch_index) {
        const auto n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(4096, left));
        for (std::uint32_t j = 0; j < spec.numFeatures(); ++j)
            reference.addFeatureBatch(
                j, data.featureBatch(j, n, batch_index));
        left -= n;
    }
    const std::vector<EmbProfile> want = reference.finalize();

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < want.size(); ++j) {
        SCOPED_TRACE("feature " + std::to_string(j));
        EXPECT_EQ(got[j].samplesSeen, want[j].samplesSeen);
        EXPECT_EQ(got[j].lookups, want[j].lookups);
        EXPECT_EQ(got[j].coverage, want[j].coverage);
        EXPECT_EQ(got[j].avgPool, want[j].avgPool);
        const FrequencyCdf &a = got[j].cdf;
        const FrequencyCdf &b = want[j].cdf;
        EXPECT_EQ(a.hashSize(), b.hashSize());
        EXPECT_EQ(a.totalAccesses(), b.totalAccesses());
        EXPECT_EQ(a.singletonRows(), b.singletonRows());
        ASSERT_EQ(a.rankedRows(), b.rankedRows());
        for (std::uint64_t r = 0; r < a.touchedRows(); ++r)
            ASSERT_EQ(a.countAtRank(r), b.countAtRank(r));
    }
}

TEST(SynthesisDeterminism, ServingTraceMatchesSequentialLoop)
{
    SyntheticDataset data(model(), 21);
    DriftModel drift;
    drift.hotChurnPerMonth = 0.05;
    data.setDrift(drift);
    data.setMonth(4);
    ServingConfig config;
    config.load = load();
    config.numQueries = 600;
    const ServingTrace got = generateTrace(data, config);
    ASSERT_EQ(got.lookups.size(), got.batches.size());
    // Each batch holds, per feature, its queries' lookups one after
    // another, offsets running on across query boundaries.
    for (std::size_t b = 0; b < got.batches.size(); ++b) {
        const LookupBlock &block = got.lookups[b];
        ASSERT_EQ(block.numFeatures(), data.spec().numFeatures());
        for (std::uint32_t j = 0; j < block.numFeatures(); ++j) {
            std::vector<std::uint64_t> rows;
            std::vector<std::uint32_t> offsets = {0};
            for (const Query &q : got.batches[b].queries) {
                const FeatureBatch fb =
                    data.featureBatch(j, q.samples, q.batchIndex);
                const auto base = static_cast<std::uint32_t>(rows.size());
                rows.insert(rows.end(), fb.indices.begin(),
                            fb.indices.end());
                for (std::uint32_t s = 1; s <= fb.batchSize(); ++s)
                    offsets.push_back(base + fb.offsets[s]);
            }
            ASSERT_EQ(std::vector<std::uint64_t>(
                          block.featureRows(j),
                          block.featureRows(j) + block.featureLookups(j)),
                      rows)
                << "batch " << b << " feature " << j;
            ASSERT_EQ(std::vector<std::uint32_t>(
                          block.featureOffsets(j),
                          block.featureOffsets(j) + block.samples + 1),
                      offsets)
                << "batch " << b << " feature " << j;
        }
    }
}

TEST(SynthesisDeterminism, TableDrawEqualsPerCallDraw)
{
    // The bulk overload, with the feature's table, writes the rows the
    // per-call overload writes, at any month and churn.
    SyntheticDataset data(model(), 23);
    DriftModel drift;
    drift.hotChurnPerMonth = 0.3;
    data.setDrift(drift);
    FeatureBatch got;
    for (std::uint32_t j = 0; j < data.spec().numFeatures(); ++j) {
        const ZipfTable zipf = data.zipfTable(j);
        EXPECT_GT(zipf.tabulatedRanks(), 0u);
        for (std::uint32_t month = 0; month < 5; ++month) {
            data.featureBatch(got, zipf, j, 128, 40 + month, month);
            FeatureBatch exact;
            data.featureBatch(exact, j, 128, 40 + month, month);
            EXPECT_EQ(got.indices, exact.indices) << "feature " << j;
            EXPECT_EQ(got.offsets, exact.offsets) << "feature " << j;
        }
    }
}

TEST(SynthesisDeterminism, ExplicitMonthEqualsStreamMonth)
{
    SyntheticDataset data(model(), 13);
    DriftModel drift;
    drift.hotChurnPerMonth = 0.1;
    data.setDrift(drift);
    SyntheticDataset at7 = data;
    at7.setMonth(7);
    const FeatureBatch want = at7.featureBatch(2, 64, 99);
    // A reused scratch batch is overwritten, not appended to.
    FeatureBatch got = data.featureBatch(0, 200, 1);
    data.featureBatch(got, 2, 64, 99, 7);
    EXPECT_EQ(got.indices, want.indices);
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(data.month(), 0u);
}

TEST(ParallelFor, RunsEveryItemOnceOnABoundedWorker)
{
    EXPECT_EQ(parallelWorkers(0), 1u);
    EXPECT_EQ(parallelWorkers(1), 1u);
    EXPECT_LE(parallelWorkers(1000), 8u);
    EXPECT_LE(parallelWorkers(1000),
              std::max(1u, std::thread::hardware_concurrency()));
    for (const std::size_t n : {0u, 1u, 3u, 257u}) {
        std::vector<std::atomic<int>> runs(n);
        std::atomic<bool> bad_worker{false};
        const unsigned workers = parallelWorkers(n);
        parallelFor(n, [&](unsigned w, std::size_t i) {
            if (w >= workers)
                bad_worker = true;
            ++runs[i];
        });
        EXPECT_FALSE(bad_worker);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(runs[i], 1) << "item " << i;
    }
}

} // namespace
