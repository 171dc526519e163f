/**
 * @file
 * Differential test for the flat LruRowCache: the cache must behave
 * exactly like the classic std::list + std::unordered_map LRU, kept
 * below as the reference. Both caches are driven by the same seeded
 * key streams under every admission policy ("always", "tinylfu",
 * "cdf-gated") at capacities 1, 16 and 500. Each cache gets its own
 * policy instance, wrapped in a recorder, so the test checks every
 * touch() result, the hit/miss/rejected/size counters after every
 * touch, and every (key, full, victim) triple handed to admit().
 */

#include <gtest/gtest.h>

#include <list>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "recshard/base/random.hh"
#include "recshard/dist/zipf.hh"
#include "recshard/serving/cache_admission.hh"
#include "recshard/serving/lru_cache.hh"

namespace {

using namespace recshard;

/** The LRU as it was before the flat layout: the oracle. */
class ReferenceLru
{
  public:
    ReferenceLru(std::uint64_t capacity, CacheAdmission *admission)
        : capacity(capacity), admission(admission)
    {
    }

    bool
    touch(std::uint64_t key)
    {
        if (capacity == 0)
            return false;
        if (admission)
            admission->onAccess(key);
        const auto it = map.find(key);
        if (it != map.end()) {
            order.splice(order.begin(), order, it->second);
            ++hits;
            return true;
        }
        ++misses;
        const bool full = map.size() >= capacity;
        if (admission &&
            !admission->admit(key, full, full ? order.back() : 0)) {
            ++rejected;
            return false;
        }
        if (full) {
            map.erase(order.back());
            order.pop_back();
        }
        order.push_front(key);
        map[key] = order.begin();
        return false;
    }

    std::uint64_t size() const { return map.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;

  private:
    std::uint64_t capacity;
    CacheAdmission *admission;
    std::list<std::uint64_t> order; // MRU at front
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> map;
};

/** Forwards to a real policy and logs every admit() call. */
class RecordingAdmission : public CacheAdmission
{
  public:
    explicit RecordingAdmission(std::unique_ptr<CacheAdmission> inner)
        : inner(std::move(inner))
    {
    }

    void onAccess(std::uint64_t key) override { inner->onAccess(key); }

    bool
    admit(std::uint64_t key, bool full, std::uint64_t victim) override
    {
        const bool admitted = inner->admit(key, full, victim);
        calls.emplace_back(key, full, victim, admitted);
        return admitted;
    }

    const char *name() const override { return inner->name(); }

    std::vector<std::tuple<std::uint64_t, bool, std::uint64_t, bool>>
        calls;

  private:
    std::unique_ptr<CacheAdmission> inner;
};

constexpr std::uint32_t kTables = 3;
constexpr std::uint64_t kRows = 2000;

/** A skewed multi-table key stream: hot rows recur, cold rows scan. */
std::vector<std::uint64_t>
keyStream(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    const ZipfSampler zipf(kRows, 1.05);
    std::vector<std::uint64_t> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto table =
            static_cast<std::uint32_t>(rng.uniformInt(0, kTables - 1));
        keys.push_back(LruRowCache::rowKey(table, zipf(rng)));
    }
    return keys;
}

/** Per-table CDFs of a stream, for "cdf-gated". */
std::vector<FrequencyCdf>
streamCdfs(const std::vector<std::uint64_t> &keys)
{
    std::vector<std::vector<std::uint64_t>> counts(
        kTables, std::vector<std::uint64_t>(kRows, 0));
    for (const std::uint64_t key : keys)
        ++counts[key >> 48][key & ((1ULL << 48) - 1)];
    std::vector<FrequencyCdf> cdfs;
    for (const auto &c : counts) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
        for (std::uint64_t row = 0; row < kRows; ++row)
            if (c[row])
                pairs.emplace_back(row, c[row]);
        cdfs.emplace_back(kRows, std::move(pairs));
    }
    return cdfs;
}

void
runDifferential(const std::string &policy, std::uint64_t capacity,
                std::uint64_t seed)
{
    SCOPED_TRACE(policy + " capacity " + std::to_string(capacity));
    const std::vector<std::uint64_t> keys = keyStream(seed, 40000);
    // The CDFs come from a different stream, so the gate is an
    // imperfect forecast, as in serving.
    const std::vector<FrequencyCdf> cdfs =
        streamCdfs(keyStream(seed + 1, 20000));
    CacheAdmissionConfig cfg;
    cfg.policy = policy;
    cfg.hotQuantile = 0.9;
    for (const FrequencyCdf &cdf : cdfs)
        cfg.cdfs.push_back(&cdf);

    RecordingAdmission flat_gate(makeCacheAdmission(cfg, capacity));
    RecordingAdmission ref_gate(makeCacheAdmission(cfg, capacity));
    LruRowCache flat(capacity, &flat_gate);
    ReferenceLru ref(capacity, &ref_gate);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const bool hit = flat.touch(keys[i]);
        ASSERT_EQ(hit, ref.touch(keys[i])) << "touch " << i;
        ASSERT_EQ(flat.hits(), ref.hits) << "touch " << i;
        ASSERT_EQ(flat.misses(), ref.misses) << "touch " << i;
        ASSERT_EQ(flat.rejected(), ref.rejected) << "touch " << i;
        ASSERT_EQ(flat.size(), ref.size()) << "touch " << i;
        ASSERT_EQ(flat_gate.calls.size(), ref_gate.calls.size());
        if (!flat_gate.calls.empty()) {
            ASSERT_EQ(flat_gate.calls.back(), ref_gate.calls.back())
                << "touch " << i;
        }
    }
    // The stream must exercise hits, evictions and (for the gated
    // policies) rejections, or the comparison shows little.
    EXPECT_GT(flat.hits(), 0u);
    EXPECT_EQ(flat.size(), capacity);
    if (policy != "always") {
        EXPECT_GT(flat.rejected(), 0u);
    }
}

TEST(LruDifferential, MatchesReferenceUnderEveryPolicy)
{
    for (const char *policy : {"always", "tinylfu", "cdf-gated"})
        for (const std::uint64_t capacity : {1u, 16u, 500u})
            runDifferential(policy, capacity, 1000 + capacity);
}

TEST(LruDifferential, MatchesReferenceWithoutAdmission)
{
    for (const std::uint64_t capacity : {0u, 1u, 2u, 16u, 500u}) {
        LruRowCache flat(capacity);
        ReferenceLru ref(capacity, nullptr);
        for (const std::uint64_t key : keyStream(capacity + 7, 20000))
            ASSERT_EQ(flat.touch(key), ref.touch(key));
        EXPECT_EQ(flat.hits(), ref.hits);
        EXPECT_EQ(flat.misses(), ref.misses);
        EXPECT_EQ(flat.size(), ref.size());
    }
}

TEST(LruDifferential, GrowsPastThePreallocatedIndex)
{
    // A capacity above the up-front reservation makes the index
    // rebuild as the cache fills; behavior must not change.
    const std::uint64_t capacity = 100000;
    LruRowCache flat(capacity);
    ReferenceLru ref(capacity, nullptr);
    Rng rng(3);
    for (int i = 0; i < 400000; ++i) {
        const std::uint64_t key = LruRowCache::rowKey(
            0, static_cast<std::uint64_t>(rng.uniformInt(0, 150000)));
        ASSERT_EQ(flat.touch(key), ref.touch(key)) << "touch " << i;
    }
    EXPECT_EQ(flat.hits(), ref.hits);
    EXPECT_EQ(flat.size(), capacity);
}

} // namespace
