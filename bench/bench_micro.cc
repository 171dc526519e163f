/**
 * @file
 * Microbenchmarks (google-benchmark) for the performance-critical
 * primitives: hashing, Zipf sampling (exact and table-driven), batch
 * generation, dataset profiling, CDF construction, remap
 * application, tier resolution, the solver's split kernel, a full
 * engine iteration, routed-trace materialization, DES dispatch,
 * admission decisions, the hedge-delay latency window and the LRU
 * hot-row cache.
 */

#include <benchmark/benchmark.h>

#include "recshard/base/random.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/dist/frequency_cdf.hh"
#include "recshard/dist/zipf.hh"
#include "recshard/engine/execution.hh"
#include "recshard/hashing/hashers.hh"
#include "recshard/lp/simplex.hh"
#include "recshard/overload/admission.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/remap/remap_table.hh"
#include "recshard/routing/router.hh"
#include "recshard/routing/trace.hh"
#include "recshard/serving/lru_cache.hh"
#include "recshard/sharding/recshard_solver.hh"

namespace {

using namespace recshard;

void
BM_MixSplitMix64(benchmark::State &state)
{
    std::uint64_t x = 12345;
    for (auto _ : state) {
        x = mixSplitMix64(x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_MixSplitMix64);

void
BM_FeatureHasher(benchmark::State &state)
{
    const FeatureHasher hasher(1'000'003, 42);
    std::uint64_t v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hasher(v++));
    }
}
BENCHMARK(BM_FeatureHasher);

void
BM_ZipfSample(benchmark::State &state)
{
    const ZipfSampler zipf(
        static_cast<std::uint64_t>(state.range(0)), 1.1);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf(rng));
    }
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 16)->Arg(1 << 24)->Arg(1LL << 32);

void
BM_ZipfSampleTable(benchmark::State &state)
{
    // The same draws as BM_ZipfSample, through the bulk-synthesis
    // table (built outside the timed loop).
    const ZipfTable zipf(static_cast<std::uint64_t>(state.range(0)), 1.1);
    Rng rng(7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(zipf(rng));
    }
}
BENCHMARK(BM_ZipfSampleTable)->Arg(1 << 16)->Arg(1 << 24)
    ->Arg(1LL << 32);

void
BM_FeatureBatchGeneration(benchmark::State &state)
{
    const ModelSpec model = makeTinyModel(1, 100000, 3);
    SyntheticDataset data(model, 5);
    std::uint64_t batch_idx = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            data.featureBatch(0, 1024, batch_idx++));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FeatureBatchGeneration);

void
BM_ProfileDataset(benchmark::State &state)
{
    // The serving workloads' profiling pass: 12 tables of 20 000
    // rows, 30 000 samples. One item is one profiled lookup.
    const ModelSpec model = makeTinyModel(12, 20000, 7);
    const SyntheticDataset data(model, 5);
    std::uint64_t lookups = 0;
    for (auto _ : state) {
        const auto profiles = profileDataset(data, 30000, 4096);
        for (const EmbProfile &p : profiles)
            lookups += p.lookups;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lookups));
}
BENCHMARK(BM_ProfileDataset)->Unit(benchmark::kMillisecond);

void
BM_FrequencyCdfBuild(benchmark::State &state)
{
    const std::uint64_t touched = state.range(0);
    Rng rng(11);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < touched; ++r)
        counts.push_back({r, static_cast<std::uint64_t>(
                                 rng.uniformInt(1, 1 << 20))});
    for (auto _ : state) {
        auto copy = counts;
        benchmark::DoNotOptimize(
            FrequencyCdf(touched * 2, std::move(copy)));
    }
    state.SetItemsProcessed(state.iterations() * touched);
}
BENCHMARK(BM_FrequencyCdfBuild)->Arg(1 << 12)->Arg(1 << 18);

void
BM_RemapApply(benchmark::State &state)
{
    FeatureSpec spec;
    spec.name = "bench";
    spec.cardinality = 1 << 20;
    spec.hashSize = 1 << 19;
    spec.dim = 64;
    Rng rng(3);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < (1 << 17); ++r)
        counts.push_back({r * 3, static_cast<std::uint64_t>(
                                     rng.uniformInt(1, 1000))});
    const FrequencyCdf cdf(spec.hashSize, counts);
    const RemapTable table = RemapTable::build(spec, cdf, 1 << 16);

    std::vector<std::uint64_t> indices(8192);
    for (auto &idx : indices)
        idx = static_cast<std::uint64_t>(
            rng.uniformInt(0, spec.hashSize - 1));
    for (auto _ : state) {
        auto copy = indices;
        table.remapIndices(copy);
        benchmark::DoNotOptimize(copy);
    }
    state.SetItemsProcessed(state.iterations() * indices.size());
}
BENCHMARK(BM_RemapApply);

void
BM_TierResolve(benchmark::State &state)
{
    Rng rng(5);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    for (std::uint64_t r = 0; r < (1 << 16); ++r)
        counts.push_back({r * 2, static_cast<std::uint64_t>(
                                     rng.uniformInt(1, 100))});
    const FrequencyCdf cdf(1 << 18, counts);
    const TierResolver resolver =
        TierResolver::split(cdf, 1 << 15, 1 << 18);
    std::uint64_t row = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            resolver.inHbm(row++ & ((1 << 18) - 1)));
    }
}
BENCHMARK(BM_TierResolve);

void
BM_SimplexSolve(benchmark::State &state)
{
    // A dense-ish random LP of the size B&B nodes see.
    const int n = state.range(0);
    Rng rng(9);
    LpProblem lp;
    for (int j = 0; j < n; ++j)
        lp.addVariable(0, 1, -rng.uniform(0.1, 2.0));
    for (int i = 0; i < n; ++i) {
        std::vector<LinearTerm> terms;
        for (int j = 0; j < n; ++j)
            terms.push_back({j, rng.uniform(0.0, 1.0)});
        lp.addConstraint(terms, Relation::LE, rng.uniform(1, 4));
    }
    const SimplexSolver solver(lp);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SimplexSolve)->Arg(16)->Arg(64);

void
BM_RecShardSolve(benchmark::State &state)
{
    const auto features = static_cast<std::uint32_t>(state.range(0));
    const ModelSpec model = makeTinyModel(features, 20000, 13);
    SyntheticDataset data(model, 5);
    const auto profiles = profileDataset(data, 8000, 4096);
    SystemSpec sys = SystemSpec::paper(4, 1.0);
    sys.hbm.capacityBytes = model.totalBytes() / 10;
    sys.uvm.capacityBytes = model.totalBytes();
    RecShardOptions opts;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            recShardPlan(model, profiles, sys, opts));
    }
}
BENCHMARK(BM_RecShardSolve)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void
BM_EngineIteration(benchmark::State &state)
{
    const ModelSpec model = makeTinyModel(8, 5000, 3);
    SyntheticDataset data(model, 5);
    const auto profiles = profileDataset(data, 5000, 2048);
    const SystemSpec sys = SystemSpec::paper(2, 1.0);
    ShardingPlan plan;
    plan.strategy = "bench";
    plan.tables.resize(model.numFeatures());
    for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
        plan.tables[j].gpu = j % 2;
        plan.tables[j].hbmRows = model.features[j].hashSize / 2;
    }
    ExecutionEngine engine(data, sys, EmbCostModel(sys));
    const auto resolvers =
        ExecutionEngine::buildResolvers(model, plan, profiles);
    ReplayConfig cfg;
    cfg.batchSize = 1024;
    cfg.warmupIterations = 0;
    cfg.measureIterations = 1;
    for (auto _ : state) {
        cfg.firstBatchIndex += 1;
        benchmark::DoNotOptimize(
            engine.replay({&plan}, {resolvers}, cfg));
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EngineIteration)->Unit(benchmark::kMillisecond);

void
BM_MaterializeRoutedTrace(benchmark::State &state)
{
    // The serve-threads cluster's model: 12 tables of 20 000 rows.
    const ModelSpec model = makeTinyModel(12, 20000, 7);
    const SyntheticDataset data(model, 5);
    LoadConfig load;
    load.qps = 40000.0;
    std::uint64_t lookups = 0;
    for (auto _ : state) {
        const RoutedTrace trace = materializeRoutedTrace(
            data, load, static_cast<std::uint64_t>(state.range(0)));
        for (const RoutedQuery &q : trace.queries)
            lookups += q.totalLookups;
        ++load.seed;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lookups));
}
BENCHMARK(BM_MaterializeRoutedTrace)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

void
BM_RouterRoute(benchmark::State &state)
{
    // DES dispatch and ShardServer pricing: 2000 queries over a
    // 3-node cluster of 12 tables x 20 000 rows (20% of the model in
    // HBM), round-robin, 500-row LRU per GPU. One item is one
    // lookup; each iteration routes the trace from a cold start.
    ModelSpec model = makeTinyModel(12, 20000, 7);
    for (auto &f : model.features)
        f.dim = 128;
    const SyntheticDataset data(model, 5);
    SystemSpec system = SystemSpec::paper(2, 1.0);
    system.hbm.capacityBytes = static_cast<std::uint64_t>(
        0.2 * static_cast<double>(model.totalBytes()) / system.numGpus);
    system.uvm.capacityBytes = model.totalBytes();
    ClusterPlanOptions options;
    options.numNodes = 3;
    const RoutingCluster cluster = buildRoutingCluster(
        model, profileDataset(data, 30000, 4096), system, options);
    LoadConfig load;
    load.qps = 40000.0;
    const RoutedTrace trace = materializeRoutedTrace(data, load, 2000);
    RouterConfig config;
    config.server.cacheRows = 500;

    std::uint64_t lookups = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Router(model, cluster, config).route(trace));
        for (const RoutedQuery &q : trace.queries)
            lookups += q.totalLookups;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(lookups));
}
BENCHMARK(BM_RouterRoute)->Unit(benchmark::kMillisecond);

void
BM_AdmissionDecide(benchmark::State &state)
{
    // One arrival's verdict on a 3-node cluster: arg 0 is
    // queue-threshold, arg 1 adaptive (its per-node EWMAs warmed by
    // dispatch observations first). Outstanding counts cycle through
    // a seeded spread that straddles both shed points.
    const bool adaptive = state.range(0) == 1;
    AdmissionConfig config;
    config.policy = adaptive ? "adaptive" : "queue-threshold";
    config.maxOutstanding = 16;
    const auto controller = makeAdmissionController(config, 3, 1e-3);
    for (std::uint32_t i = 0; i < 300; ++i)
        controller->observeDispatch(i % 3, i * 1e-5, 1e-5, 5e-5);
    Rng rng(13);
    std::vector<std::uint64_t> outstanding(1024);
    for (auto &o : outstanding)
        o = static_cast<std::uint64_t>(rng.uniformInt(0, 32));
    std::size_t i = 0;
    double now = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller->decide(
            now, static_cast<std::uint32_t>(i % 3), outstanding[i]));
        now += 1e-5;
        i = (i + 1) & (outstanding.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(config.policy);
}
BENCHMARK(BM_AdmissionDecide)->Arg(0)->Arg(1);

void
BM_LatencyWindow(benchmark::State &state)
{
    // The hedge-delay estimate at the router's defaults: every
    // completion pushes its latency into the 512-sample window, and
    // every refreshInterval-th recomputes the p95. One item is one
    // completion.
    const HedgeConfig hedge;
    LatencyWindow window(hedge.windowSize);
    Rng rng(17);
    std::vector<double> latencies(1 << 12);
    for (double &l : latencies)
        l = rng.uniform(1e-4, 2e-3);
    std::size_t i = 0;
    for (auto _ : state) {
        window.push(latencies[i]);
        if (window.pushed() % hedge.refreshInterval == 0)
            benchmark::DoNotOptimize(window.quantile(hedge.quantile));
        i = (i + 1) & (latencies.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LatencyWindow);

void
BM_LruTouch(benchmark::State &state)
{
    // Zipf-skewed keys over 4 tables, so touches mix hits, misses
    // and evictions as on the serving path.
    const ZipfSampler zipf(100000, 1.05);
    Rng rng(11);
    std::vector<std::uint64_t> keys(1 << 20);
    for (std::size_t i = 0; i < keys.size(); ++i)
        keys[i] = LruRowCache::rowKey(static_cast<std::uint32_t>(i % 4),
                                      zipf(rng));
    LruRowCache cache(static_cast<std::uint64_t>(state.range(0)));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.touch(keys[i]));
        i = (i + 1) & (keys.size() - 1);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hit_rate"] = cache.hitRate();
}
BENCHMARK(BM_LruTouch)->Arg(500)->Arg(1 << 14);

} // namespace

BENCHMARK_MAIN();
