/**
 * @file
 * offline-rm3: the paper pipeline in its capacity-constrained regime.
 *
 * Makes the calls RecShardPipeline::run makes (profileDataset, the
 * "recshard" planner, ExecutionEngine::buildResolvers), then replays
 * the plan over the Fig. 11 window: rm3 at row scale 1/32 on
 * SystemSpec::paper(16, 1/32), plan and replay batch 4096, the five
 * measured iterations after one warm-up batch. The replay engine
 * keeps no state across iterations, so each measured iteration is
 * replayed by its own call (giving per-iteration times) and the
 * warm-up batch, which changes no result, is not generated. That is
 * 42.6 GB of EMBs against 12 GB of HBM at full scale.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/engine/execution.hh"
#include "recshard/planner/registry.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/sharding/recshard_solver.hh"

namespace perfbench {

using namespace recshard;

namespace {

constexpr double kScale = 1.0 / 32.0;
constexpr std::uint32_t kGpus = 16;
constexpr std::uint32_t kBatch = 4096;
constexpr std::uint32_t kWarmup = 1;
constexpr std::uint32_t kIters = 5;
constexpr std::uint64_t kProfileSamples = 40000;
/**
 * The profiled sample is fixed (the Fig. 11 experiment seed): the
 * recshard solve's local-search effort depends on the sample (1.5 s
 * to 39 s across ten sample seeds on a 4-core x86 machine), so a
 * seeded sample would make solve time measure the seed rather than
 * the solver. --seed drives the replayed training traffic;
 * popularity depends on the model alone, so the plan fits every
 * seed's traffic.
 */
constexpr std::uint64_t kProfileSeed = 42;
constexpr std::uint32_t kProfileBatch = 4096;
/** profileDataset's batch-index region (disjoint from replay). */
constexpr std::uint64_t kProfileRegion = 1ULL << 40;
/**
 * Set-up builds per batch. The set-up takes about 0.1 ms, so one
 * batch is built before planning and one after the replay, and the
 * figure is taken over both.
 */
constexpr int kSetupRepeats = 500;
/** Window replays per untraced run, at least; each must repeat the
 *  first. */
constexpr int kMinReplays = 2;

/** Non-fatal mirror of ShardingPlan::validate on a two-tier system. */
std::string
planViolation(const ModelSpec &model, const SystemSpec &sys,
              const ShardingPlan &plan)
{
    if (plan.tables.size() != model.features.size())
        return "plan covers the wrong number of EMBs";
    for (std::size_t j = 0; j < plan.tables.size(); ++j) {
        const EmbPlacement &t = plan.tables[j];
        if (t.gpu >= sys.numGpus)
            return "EMB " + std::to_string(j) + " on a missing GPU";
        if (t.hbmRows > model.features[j].hashSize)
            return "EMB " + std::to_string(j) + " pins too many rows";
        if (!(t.hbmAccessFraction >= 0.0 && t.hbmAccessFraction <= 1.0))
            return "EMB " + std::to_string(j) + " HBM fraction outside [0,1]";
    }
    for (std::uint32_t m = 0; m < sys.numGpus; ++m) {
        if (plan.hbmBytesOnGpu(model, m) > sys.hbm.capacityBytes)
            return "HBM overflow on GPU " + std::to_string(m);
        if (plan.uvmBytesOnGpu(model, m) > sys.uvm.capacityBytes)
            return "UVM overflow on GPU " + std::to_string(m);
    }
    return "";
}

/** First difference between two profile sets, or "". */
std::string
profileDifference(const std::vector<EmbProfile> &a,
                  const std::vector<EmbProfile> &b)
{
    if (a.size() != b.size())
        return "table count differs";
    for (std::size_t j = 0; j < a.size(); ++j) {
        const std::string at = "table " + std::to_string(j) + ": ";
        if (a[j].avgPool != b[j].avgPool)
            return at + "pooling differs";
        if (a[j].coverage != b[j].coverage)
            return at + "coverage differs";
        const FrequencyCdf &x = a[j].cdf, &y = b[j].cdf;
        if (x.totalAccesses() != y.totalAccesses() ||
            x.touchedRows() != y.touchedRows() ||
            x.rankedRows() != y.rankedRows())
            return at + "CDF rows differ";
        for (std::uint64_t r = 0; r < x.touchedRows(); ++r)
            if (x.countAtRank(r) != y.countAtRank(r))
                return at + "CDF counts differ";
    }
    return "";
}

/** Reads "<n> <word>" out of the recshard planner's notes. */
std::uint64_t
countBefore(const std::string &notes, const std::string &word)
{
    const std::size_t at = notes.find(" " + word);
    if (at == std::string::npos)
        return 0;
    std::size_t start = at;
    while (start > 0 && notes[start - 1] >= '0' && notes[start - 1] <= '9')
        --start;
    return start == at ? 0 : std::stoull(notes.substr(start, at - start));
}

/** The window's measured iterations, replayed one call each. */
struct Window
{
    std::vector<double> iterBottleneck; //!< seconds, per iteration
    std::vector<double> gpuTime;        //!< summed per-GPU seconds
    std::uint64_t hbm = 0, uvm = 0;
};

Window
replayWindow(const ExecutionEngine &engine, const ShardingPlan &plan,
             const std::vector<TierResolver> &resolvers, Tracer &tracer)
{
    Window w;
    w.gpuTime.assign(kGpus, 0.0);
    for (std::uint32_t i = 0; i < kIters; ++i) {
        ReplayConfig rc;
        rc.batchSize = kBatch;
        rc.warmupIterations = 0;
        rc.measureIterations = 1;
        rc.firstBatchIndex = kWarmup + i;
        std::vector<ReplayResult> r;
        {
            Scope s(tracer, "engine.replay");
            r = engine.replay({&plan}, {resolvers}, rc);
        }
        w.iterBottleneck.push_back(r[0].meanBottleneckTime);
        for (std::uint32_t m = 0; m < kGpus; ++m) {
            w.gpuTime[m] += r[0].gpuMeanTime[m];
            w.hbm += r[0].traffic[m].hbmAccesses;
            w.uvm += r[0].traffic[m].uvmAccesses;
        }
    }
    return w;
}

} // namespace

void
runOfflineRm3(const Options &opts, Tracer &tracer, Report &report)
{
    report.attempted = kIters;

    // Set-up: the model, its data stream and the system, built
    // many times so the reported figure is a median of many samples.
    std::vector<double> setup;
    std::unique_ptr<SyntheticDataset> sample, data;
    SystemSpec sys;
    const auto setUp = [&](std::unique_ptr<SyntheticDataset> &smp,
                           std::unique_ptr<SyntheticDataset> &dat,
                           SystemSpec &sy) {
        for (int r = 0; r < kSetupRepeats; ++r) {
            Scope s(tracer, "setup");
            const auto t0 = Clock::now();
            smp = std::make_unique<SyntheticDataset>(makeRm3(kScale),
                                                     kProfileSeed);
            dat = std::make_unique<SyntheticDataset>(smp->spec(),
                                                     opts.seed);
            sy = SystemSpec::paper(kGpus, kScale);
            setup.push_back(secondsSince(t0));
        }
    };
    setUp(sample, data, sys);
    const ModelSpec &model = data->spec();
    std::cerr << "offline-rm3: " << model.numFeatures() << " EMBs, "
              << kGpus << " GPUs, seed " << opts.seed << "\n";

    // Plan: the calls RecShardPipeline::run makes. The run's budget
    // starts here; planning alone usually spends it, so the window is
    // then replayed kMinReplays times.
    const auto budget_start = Clock::now();
    auto t0 = budget_start;
    std::vector<EmbProfile> profiles;
    {
        Scope s(tracer, "profileDataset");
        profiles = profileDataset(*sample, kProfileSamples, kProfileBatch);
    }
    const double profile_s = secondsSince(t0);

    const PlanRequest req =
        PlanRequest::make(model, profiles, sys, kBatch);
    PlanResult solved;
    {
        Scope s(tracer, "sharding.plan");
        solved = PlannerRegistry::create("recshard")->plan(req);
    }

    std::vector<TierResolver> resolvers;
    {
        Scope s(tracer, "remap.buildResolvers");
        resolvers = ExecutionEngine::buildResolvers(model, solved.plan,
                                                    profiles);
    }

    const std::string violation = solved.diag.feasible
        ? planViolation(model, sys, solved.plan)
        : "planner found no feasible plan";
    report.check(violation.empty(),
                 "recshard plan does not validate: " + violation,
                 kIters);
    if (!violation.empty())
        return; // replaying an invalid plan would abort the run

    // Evaluate: the fixed window, replayed until the budget is spent;
    // the traced run needs one traced window.
    const ExecutionEngine engine(*data, sys, EmbCostModel(sys));
    const int min_replays = opts.trace ? 1 : kMinReplays;
    int replays = 0;
    Window first;
    while (replays < min_replays ||
           (!opts.trace && secondsSince(budget_start) < opts.seconds)) {
        Window w = replayWindow(engine, solved.plan, resolvers, tracer);
        if (++replays == 1) {
            first = std::move(w);
            continue;
        }
        report.check(w.iterBottleneck == first.iterBottleneck &&
                         w.hbm == first.hbm && w.uvm == first.uvm,
                     "replaying the same window changed its result",
                     kIters);
    }

    {
        std::unique_ptr<SyntheticDataset> smp, dat;
        SystemSpec sy;
        setUp(smp, dat, sy);
    }

    double bottleneck = 0.0;
    for (const double b : first.iterBottleneck)
        bottleneck += b;
    bottleneck /= kIters;
    const double gpu_max =
        *std::max_element(first.gpuTime.begin(), first.gpuTime.end());
    double gpu_mean = 0.0;
    for (const double g : first.gpuTime)
        gpu_mean += g / kGpus;
    const double lookups = static_cast<double>(first.hbm + first.uvm);
    const double uvm_frac = static_cast<double>(first.uvm) / lookups;

    report.modeled["bottleneck_ms"] = bottleneck * 1e3;
    report.modeled["gpu_imbalance"] = gpu_max / gpu_mean;
    report.modeled["uvm_access_frac"] = uvm_frac;
    report.modeled["goodput_qps"] = kBatch / bottleneck;
    report.modeled["p50_ms"] = median(first.iterBottleneck) * 1e3;
    report.modeled["p99_ms"] = quantile(first.iterBottleneck, 0.99) * 1e3;
    report.modeled["served_lookup_frac"] = 1.0;
    report.modeled["planner.est_bottleneck_ms"] =
        solved.diag.bottleneckCost * 1e3;

    if (!opts.trace) {
        report.metric("setup_s", median(setup));
        report.metric("peak_rss_mb", peakRssMb());
        report.metric("bottleneck_ms", bottleneck * 1e3);
        report.metric("gpu_imbalance", gpu_max / gpu_mean);
        report.metric("uvm_access_frac", uvm_frac);
        report.metric("goodput_qps", kBatch / bottleneck);
        report.metric("p50_ms", report.modeled["p50_ms"]);
        report.metric("p99_ms", report.modeled["p99_ms"]);
        report.metric("served_lookup_frac", 1.0);
        return;
    }

    // Traced run: split each layer out of the calls above.

    // The profiling loop profileDataset runs, re-issued with spans
    // around the data generator and the profiler; it must yield the
    // same profiles.
    t0 = Clock::now();
    std::uint64_t profiled_lookups = 0;
    std::vector<EmbProfile> split;
    {
        Scope loop(tracer, "profile.split_loop");
        DataProfiler profiler(model);
        std::uint64_t remaining = kProfileSamples;
        for (std::uint64_t b = kProfileRegion; remaining > 0; ++b) {
            const auto n = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(kProfileBatch, remaining));
            for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
                FeatureBatch fb;
                {
                    Scope s(tracer, "datagen.featureBatch");
                    fb = sample->featureBatch(j, n, b);
                }
                profiled_lookups += fb.indices.size();
                Scope s(tracer, "profiler.addFeatureBatch");
                profiler.addFeatureBatch(j, fb);
            }
            remaining -= n;
        }
        Scope s(tracer, "dist.finalize");
        split = profiler.finalize();
    }
    const double traced_profile_s = secondsSince(t0);
    const std::string diff = profileDifference(split, profiles);
    report.check(diff.empty(),
                 "split profiling loop disagrees with profileDataset: " +
                     diff,
                 kIters);
    std::uint64_t touched = 0;
    for (const EmbProfile &p : split)
        touched += p.cdf.touchedRows();

    RecShardOptions constructive;
    constructive.batchSize = kBatch;
    constructive.localSearchRounds = 0;
    {
        Scope s(tracer, "sharding.constructive");
        (void)recShardPlan(model, profiles, sys, constructive);
    }

    // The replay window's batches alone, without the engine.
    {
        Scope s(tracer, "datagen.replay_window");
        for (std::uint32_t i = 0; i < kIters; ++i)
            for (std::uint32_t j = 0; j < model.numFeatures(); ++j) {
                Scope g(tracer, "datagen.replay_featureBatch");
                (void)data->featureBatch(j, kBatch, kWarmup + i);
            }
    }

    const double constructive_s = tracer.total("sharding.constructive");
    const double gpu_iters = double(kGpus) * kIters;
    report.metric("datagen.profile_gen_s",
                  tracer.total("datagen.featureBatch"));
    report.metric("datagen.samples", double(kProfileSamples));
    report.metric("profiler.accumulate_s",
                  tracer.total("profiler.addFeatureBatch"));
    report.metric("profiler.lookups", double(profiled_lookups));
    report.metric("profiler.self_check", diff.empty() ? 1.0 : 0.0);
    report.metric("dist.cdf_build_s", tracer.total("dist.finalize"));
    report.metric("dist.touched_rows", double(touched));
    report.metric("sharding.solve_s", tracer.total("sharding.plan"));
    report.metric("sharding.constructive_s", constructive_s);
    report.metric("sharding.local_search_s",
                  tracer.total("sharding.plan") - constructive_s);
    report.metric("sharding.moves",
                  double(countBefore(solved.diag.notes, "moves")));
    report.metric("sharding.swaps",
                  double(countBefore(solved.diag.notes, "swaps")));
    report.metric("remap.build_s", tracer.total("remap.buildResolvers"));
    report.metric("planner.est_bottleneck_ms",
                  solved.diag.bottleneckCost * 1e3);
    report.metric("planner.replay_bottleneck_ms", bottleneck * 1e3);
    report.metric("planner.est_over_replay",
                  solved.diag.bottleneckCost / bottleneck);
    report.metric("datagen.replay_gen_s",
                  tracer.total("datagen.replay_featureBatch"));
    report.metric("engine.replay_s", tracer.total("engine.replay"));
    report.metric("engine.hbm_accesses_per_gpu_iter",
                  double(first.hbm) / gpu_iters);
    report.metric("engine.uvm_accesses_per_gpu_iter",
                  double(first.uvm) / gpu_iters);
    // Tracing overhead: the span-dense split profiling loop against
    // the untraced profileDataset call over the same samples.
    report.metric("trace.traced_s", traced_profile_s);
    report.metric("trace.untraced_s", profile_s);
    report.metric("trace.overhead_s", traced_profile_s - profile_s);
}

} // namespace perfbench
