/**
 * @file
 * Tests for the synthetic workload model: feature specs, the
 * RM1/RM2/RM3 model zoo (Table 2), batch generation, and drift.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "recshard/base/stats.hh"
#include "recshard/datagen/dataset.hh"
#include "recshard/datagen/model_zoo.hh"

namespace {

using namespace recshard;

TEST(FeatureSpec, ByteAccounting)
{
    FeatureSpec f;
    f.name = "f";
    f.cardinality = 100;
    f.hashSize = 50;
    f.dim = 64;
    f.bytesPerElement = 4;
    f.coverage = 0.5;
    f.meanPool = 10;
    EXPECT_EQ(f.rowBytes(), 256u);
    EXPECT_EQ(f.tableBytes(), 12800u);
    EXPECT_DOUBLE_EQ(f.expectedAccessesPerSample(), 5.0);
}

TEST(ModelZoo, Rm1MatchesTable2Exactly)
{
    const ModelSpec rm1 = makeRm1(1.0);
    EXPECT_EQ(rm1.numFeatures(), kRmNumFeatures);
    EXPECT_EQ(rm1.totalHashRows(), kRm1TotalRows);
    // 318 GB total EMB size (Table 2): rows * 64 dims * 4 B.
    EXPECT_EQ(rm1.totalBytes(), kRm1TotalRows * 64ULL * 4ULL);
    EXPECT_NEAR(static_cast<double>(rm1.totalBytes()) / 1e9, 341.0,
                4.0); // 318 GiB == ~341 decimal GB
}

TEST(ModelZoo, Rm2Rm3MatchTable2Exactly)
{
    EXPECT_EQ(makeRm2(1.0).totalHashRows(), kRm2TotalRows);
    EXPECT_EQ(makeRm3(1.0).totalHashRows(), kRm3TotalRows);
}

TEST(ModelZoo, RmsShareFeatureStatistics)
{
    const ModelSpec rm1 = makeRm1(0.01);
    const ModelSpec rm2 = makeRm2(0.01);
    ASSERT_EQ(rm1.numFeatures(), rm2.numFeatures());
    for (std::uint32_t j = 0; j < rm1.numFeatures(); ++j) {
        EXPECT_EQ(rm1.features[j].alpha, rm2.features[j].alpha);
        EXPECT_EQ(rm1.features[j].meanPool, rm2.features[j].meanPool);
        EXPECT_EQ(rm1.features[j].coverage, rm2.features[j].coverage);
        // Hash sizes roughly double (min-clamped tables excepted).
        if (rm1.features[j].hashSize > 1000) {
            const double ratio =
                static_cast<double>(rm2.features[j].hashSize) /
                static_cast<double>(rm1.features[j].hashSize);
            EXPECT_NEAR(ratio, 2.0, 0.1);
        }
    }
}

TEST(ModelZoo, RowScaleShrinksProportionally)
{
    const ModelSpec full = makeRm1(1.0);
    const ModelSpec scaled = makeRm1(1.0 / 64.0);
    const double ratio = static_cast<double>(scaled.totalHashRows()) /
        static_cast<double>(full.totalHashRows());
    EXPECT_NEAR(ratio, 1.0 / 64.0, 0.001);
}

TEST(ModelZoo, DeterministicAcrossCalls)
{
    const ModelSpec a = makeRm1(0.01);
    const ModelSpec b = makeRm1(0.01);
    ASSERT_EQ(a.numFeatures(), b.numFeatures());
    for (std::uint32_t j = 0; j < a.numFeatures(); ++j) {
        EXPECT_EQ(a.features[j].hashSize, b.features[j].hashSize);
        EXPECT_EQ(a.features[j].hashSalt, b.features[j].hashSalt);
    }
}

TEST(ModelZoo, CharacterizationRangesMatchPaper)
{
    const ModelSpec rm1 = makeRm1(1.0);
    RunningStat pool, coverage, alpha;
    int near_uniform = 0;
    for (const auto &f : rm1.features) {
        pool.push(f.meanPool);
        coverage.push(f.coverage);
        alpha.push(f.alpha);
        near_uniform += f.alpha < 0.3;
    }
    // Fig. 6a: pooling factors from ~1 up to ~200.
    EXPECT_LT(pool.min(), 3.0);
    EXPECT_GT(pool.max(), 100.0);
    // Fig. 6b: coverage from <1% to 100%.
    EXPECT_LT(coverage.min(), 0.01);
    EXPECT_DOUBLE_EQ(coverage.max(), 1.0);
    // Fig. 5: a handful of near-uniform features, most skewed.
    EXPECT_GT(near_uniform, 10);
    EXPECT_LT(near_uniform, 100);
}

TEST(ModelZoo, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeRmByName("rm9", 1.0),
                ::testing::ExitedWithCode(1), "unknown model");
}

TEST(Dataset, BatchShapeAndDeterminism)
{
    const ModelSpec model = makeTinyModel(4, 500, 7);
    SyntheticDataset data(model, 99);

    const FeatureBatch a = data.featureBatch(0, 64, 3);
    const FeatureBatch b = data.featureBatch(0, 64, 3);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.indices, b.indices);
    EXPECT_EQ(a.batchSize(), 64u);
    ASSERT_EQ(a.offsets.size(), 65u);
    EXPECT_EQ(a.offsets.front(), 0u);
    EXPECT_EQ(a.offsets.back(), a.indices.size());

    const FeatureBatch c = data.featureBatch(0, 64, 4);
    EXPECT_NE(a.indices, c.indices); // different batch index
}

TEST(Dataset, IndicesStayWithinHashSize)
{
    const ModelSpec model = makeTinyModel(4, 300, 11);
    SyntheticDataset data(model, 5);
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        const FeatureBatch fb = data.featureBatch(j, 256, 0);
        for (const auto idx : fb.indices)
            EXPECT_LT(idx, model.features[j].hashSize);
    }
}

TEST(Dataset, EmpiricalStatsTrackSpec)
{
    ModelSpec model = makeTinyModel(1, 2000, 3);
    model.features[0].coverage = 0.6;
    model.features[0].meanPool = 12.0;
    model.features[0].poolSigma = 0.4;
    model.features[0].maxPool = 100;
    SyntheticDataset data(model, 17);

    std::uint64_t present = 0, samples = 0, lookups = 0;
    for (std::uint64_t b = 0; b < 40; ++b) {
        const FeatureBatch fb = data.featureBatch(0, 512, b);
        present += fb.presentSamples();
        samples += fb.batchSize();
        lookups += fb.numLookups();
    }
    const double coverage = static_cast<double>(present) / samples;
    const double avg_pool = static_cast<double>(lookups) / present;
    EXPECT_NEAR(coverage, 0.6, 0.02);
    EXPECT_NEAR(avg_pool, 12.0, 0.8);
}

TEST(Dataset, SkewedFeatureConcentratesAccesses)
{
    ModelSpec model = makeTinyModel(1, 5000, 23);
    model.features[0].alpha = 1.4;
    model.features[0].cardinality = 100000;
    model.features[0].coverage = 1.0;
    SyntheticDataset data(model, 31);

    std::vector<std::uint64_t> counts(model.features[0].hashSize, 0);
    for (std::uint64_t b = 0; b < 20; ++b)
        for (const auto idx : data.featureBatch(0, 512, b).indices)
            ++counts[idx];
    std::sort(counts.begin(), counts.end(), std::greater<>());
    std::uint64_t total = 0, head = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        total += counts[i];
        if (i < counts.size() / 100)
            head += counts[i];
    }
    // Top 1% of rows should hold a large share of accesses.
    EXPECT_GT(static_cast<double>(head) / total, 0.5);
}

TEST(Drift, MultiplierShapesMatchFig9)
{
    const DriftModel drift;
    // Zero month: multiplier near 1 for both kinds.
    EXPECT_NEAR(drift.multiplier(FeatureKind::User, 0), 1.0, 0.02);
    EXPECT_NEAR(drift.multiplier(FeatureKind::Content, 0), 1.0, 0.02);
    // After 20 months: users drift more than content (Fig. 9).
    const double user20 = drift.multiplier(FeatureKind::User, 20);
    const double content20 =
        drift.multiplier(FeatureKind::Content, 20);
    EXPECT_GT(user20, content20);
    EXPECT_NEAR(user20, 1.10, 0.03);
    EXPECT_NEAR(content20, 1.05, 0.03);
}

TEST(Drift, DatasetPoolingFollowsMonth)
{
    ModelSpec model = makeTinyModel(1, 1000, 3);
    model.features[0].coverage = 1.0;
    model.features[0].meanPool = 20.0;
    model.features[0].poolSigma = 0.3;
    model.features[0].maxPool = 200;
    model.features[0].kind = FeatureKind::User;
    SyntheticDataset data(model, 5);

    auto mean_pool_at = [&](std::uint32_t month) {
        data.setMonth(month);
        std::uint64_t lookups = 0, present = 0;
        for (std::uint64_t b = 0; b < 20; ++b) {
            const FeatureBatch fb = data.featureBatch(0, 512, b);
            lookups += fb.numLookups();
            present += fb.presentSamples();
        }
        return static_cast<double>(lookups) / present;
    };
    const double m0 = mean_pool_at(0);
    const double m20 = mean_pool_at(20);
    EXPECT_GT(m20, m0 * 1.05);
}

TEST(Dataset, DenseBatchIsStandardNormal)
{
    const ModelSpec model = makeTinyModel(2, 100, 1);
    SyntheticDataset data(model, 77);
    const auto dense = data.denseBatch(13, 2048, 0);
    ASSERT_EQ(dense.size(), 13u * 2048u);
    RunningStat acc;
    for (float v : dense)
        acc.push(v);
    EXPECT_NEAR(acc.mean(), 0.0, 0.05);
    EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(Dataset, RejectsBadArguments)
{
    const ModelSpec model = makeTinyModel(2, 100, 1);
    SyntheticDataset data(model, 1);
    EXPECT_EXIT(data.featureBatch(9, 8, 0),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(data.featureBatch(0, 0, 0),
                ::testing::ExitedWithCode(1), "batch size");
    // A Zipf sampler built for another catalog.
    FeatureBatch fb;
    const FeatureSpec &f = model.features[0];
    EXPECT_EXIT(data.featureBatch(fb, ZipfTable(f.cardinality + 1, f.alpha),
                                  0, 8, 0, 0),
                ::testing::ExitedWithCode(1), "does not match");
    EXPECT_EXIT(data.zipfTable(9), ::testing::ExitedWithCode(1),
                "out of range");
}

} // namespace
