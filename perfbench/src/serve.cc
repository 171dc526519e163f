/**
 * @file
 * The two serving workloads, both over the 3-node, 2-GPU-per-node
 * tiny-model cluster of bench_throughput_ceiling.
 *
 * serve-threads: a static Poisson trace. The DES Router records the
 *   decisions once (admit-all, round-robin, plain LRU hot-row
 *   cache); RealTimeExecutor replays them in mirror mode on real
 *   threads. The whole trace is pushed at once, so the run measures
 *   batch throughput at a fixed query count.
 *
 * serve-drift: a drifting Poisson trace offered past saturation,
 *   served by LiveReplanServer in virtual time, open loop on a fixed
 *   arrival schedule, with
 *   locality-aware routing, adaptive admission with degradation,
 *   TinyLFU cache admission and replanning on.
 *
 * The load is fixed here: offered rates, query counts and thread
 * counts never follow the machine or a saturation estimate.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "common.hh"
#include "recshard/datagen/model_zoo.hh"
#include "recshard/planner/planner.hh"
#include "recshard/profiler/profiler.hh"
#include "recshard/replan/live.hh"
#include "recshard/routing/realtime.hh"
#include "recshard/serving/cache_admission.hh"

namespace perfbench {

using namespace recshard;

namespace {

// Cluster shape shared by both workloads (bench_throughput_ceiling).
constexpr std::uint32_t kFeatures = 12;
constexpr std::uint64_t kRows = 20000;
constexpr std::uint32_t kDim = 128;
constexpr std::uint32_t kNodes = 3;
constexpr std::uint32_t kGpusPerNode = 2;
constexpr double kHbmFrac = 0.2;
constexpr std::uint64_t kProfileSamples = 30000;
constexpr double kSlaSeconds = 1e-3;
/** The model is fixed; --seed drives the data and the arrivals. */
constexpr std::uint64_t kModelSeed = 7;
/**
 * Set-up + timed-work rounds per run, at least. Runs are kept short:
 * the host's speed drifts over minutes, so a shorter run keeps ten
 * runs of a workload within less of that drift.
 */
constexpr int kMinRounds = 2;
/**
 * Planning passes (profile + cluster build) per round, and cluster
 * builds per pass. Planning is under a second and the cluster solve
 * under a millisecond, so both are sampled many times for a steady
 * median; every repeat must give the same plans.
 */
constexpr int kPlanPasses = 3;
constexpr int kSolveRepeats = 10;

// serve-threads load.
constexpr std::uint64_t kThreadsQueries = 20000;
constexpr double kThreadsQps = 40000.0; // DES arrival rate
constexpr double kThreadsMeanSamples = 4.0;
constexpr std::uint64_t kThreadsCacheRows = 500;
constexpr double kThreadsOverheadSeconds = 5e-6;
constexpr std::uint32_t kWorkers = 2;
constexpr std::uint32_t kProducers = 1;
constexpr int kTimedPerRound = 3;

// serve-drift load.
constexpr std::uint64_t kDriftQueries = 4000;
/** Poisson rate past the cluster's saturation, so adaptive admission
 *  holds the delay target by degrading queries. */
constexpr double kDriftQps = 120000.0;
constexpr double kDriftMeanSamples = 8.0;
constexpr std::uint64_t kDriftCacheRows = 16;
constexpr double kDriftOverheadSeconds = 1e-6;
constexpr double kZipfAlpha = 1.2;
constexpr double kChurnPerMonth = 0.08;
constexpr std::uint32_t kMonths = 12;
constexpr std::uint64_t kEpochQueries = 500;

/** The cluster every serving workload starts from. */
struct Cluster
{
    ModelSpec model;
    std::unique_ptr<SyntheticDataset> data;
    SystemSpec system;
    std::vector<EmbProfile> profiles;
    RoutingCluster cluster;
    /** Per cluster build: wall seconds, and the summed per-node
     *  PlanDiagnostics::solveSeconds. */
    std::vector<double> clusterSeconds;
    std::vector<double> solveSeconds;
    /** Every repeated cluster build gave the first build's plans. */
    bool plansRepeat = true;
};

ModelSpec
tinyModel(bool drift_catalog)
{
    ModelSpec model = makeTinyModel(kFeatures, kRows, kModelSeed);
    for (FeatureSpec &f : model.features) {
        f.dim = kDim;
        if (drift_catalog) {
            // One raw value per row and a uniform strong skew, so the
            // hot set's monthly rotation erodes the pins gradually
            // (as in bench_replan_drift).
            f.cardinality = f.hashSize;
            f.alpha = kZipfAlpha;
        }
    }
    return model;
}

bool
samePlans(const RoutingCluster &a, const RoutingCluster &b)
{
    if (a.numNodes() != b.numNodes())
        return false;
    for (std::uint32_t n = 0; n < a.numNodes(); ++n) {
        const auto &x = a.planSet.plans[n].tables;
        const auto &y = b.planSet.plans[n].tables;
        if (x.size() != y.size())
            return false;
        for (std::size_t j = 0; j < x.size(); ++j)
            if (x[j].gpu != y[j].gpu || x[j].hbmRows != y[j].hbmRows)
                return false;
    }
    return true;
}

/** One planning pass: profile the data, then build the cluster plans
 *  kSolveRepeats times, recording every timing. */
void
planCluster(Cluster &c, Tracer &tracer)
{
    {
        Scope s(tracer, "profileDataset");
        c.profiles = profileDataset(*c.data, kProfileSamples);
    }
    ClusterPlanOptions cp;
    cp.numNodes = kNodes;
    for (int i = 0; i < kSolveRepeats; ++i) {
        const auto t1 = Clock::now();
        RoutingCluster built;
        {
            Scope s(tracer, "routing.buildRoutingCluster");
            built = buildRoutingCluster(c.model, c.profiles, c.system, cp);
        }
        c.clusterSeconds.push_back(secondsSince(t1));
        double solve = 0.0;
        for (const PlanDiagnostics &d : built.planSet.diags)
            solve += d.solveSeconds;
        c.solveSeconds.push_back(solve);
        if (i == 0) {
            c.cluster = std::move(built);
        } else {
            c.plansRepeat = c.plansRepeat && samePlans(built, c.cluster);
        }
    }
}

/** Model, data and per-node system, then one planning pass. */
void
buildCluster(Cluster &c, std::uint64_t seed, bool drift_catalog,
             Tracer &tracer)
{
    c.model = tinyModel(drift_catalog);
    c.data = std::make_unique<SyntheticDataset>(
        c.model, seed * 2654435761ULL + 1);
    c.system = SystemSpec::paper(kGpusPerNode, 1.0);
    c.system.hbm.capacityBytes = static_cast<std::uint64_t>(
        static_cast<double>(c.model.totalBytes()) * kHbmFrac /
        kGpusPerNode);
    c.system.uvm.capacityBytes = c.model.totalBytes();
    planCluster(c, tracer);
}

/**
 * Per-GPU estimated EMB cost of every node plan (the evaluator
 * behind PlanDiagnostics::bottleneckCost, applied per GPU), seconds
 * per iteration of the planner's batch.
 */
std::vector<double>
clusterGpuCosts(const Cluster &c)
{
    const std::uint32_t batch = RecShardOptions{}.batchSize;
    std::vector<double> costs;
    for (std::uint32_t n = 0; n < c.cluster.numNodes(); ++n) {
        const SystemSpec &sys = c.cluster.nodeSystem(n);
        const EmbCostModel cost(sys);
        const ShardingPlan &plan = c.cluster.planSet.plans[n];
        std::vector<double> gpu(sys.numGpus, 0.0);
        for (std::size_t j = 0; j < plan.tables.size(); ++j) {
            const EmbProfile &p = c.profiles[j];
            const EmbPlacement &t = plan.tables[j];
            gpu[t.gpu] += p.coverage *
                cost.estimatedEmbCost(c.model.features[j], p.avgPool,
                                      p.cdf.accessFraction(t.hbmRows),
                                      batch);
        }
        costs.insert(costs.end(), gpu.begin(), gpu.end());
    }
    return costs;
}

/** Plan-side metrics every serving workload reports. */
void
reportPlans(const Cluster &c, Report &report, bool traced)
{
    const std::vector<double> gpu = clusterGpuCosts(c);
    const double worst = *std::max_element(gpu.begin(), gpu.end());
    double mean = 0.0;
    for (const double g : gpu)
        mean += g / static_cast<double>(gpu.size());
    report.modeled["bottleneck_ms"] = worst * 1e3;
    report.modeled["gpu_imbalance"] = worst / mean;
    if (traced)
        return;
    report.metric("bottleneck_ms", worst * 1e3);
    report.metric("gpu_imbalance", worst / mean);
}

std::uint64_t
offeredLookups(const RoutedTrace &trace)
{
    std::uint64_t n = 0;
    for (const RoutedQuery &q : trace.queries)
        n += q.totalLookups;
    return n;
}

} // namespace

void
runServeThreads(const Options &opts, Tracer &tracer, Report &report)
{
    LoadConfig load;
    load.qps = kThreadsQps;
    load.meanQuerySamples = kThreadsMeanSamples;
    load.seed = opts.seed ^ 0x60157ULL;
    RealTimeConfig cfg;
    cfg.mode = "mirror";
    cfg.router.policy = RoutingPolicy::RoundRobin;
    cfg.router.server.cacheRows = kThreadsCacheRows;
    cfg.router.server.batchOverheadSeconds = kThreadsOverheadSeconds;
    cfg.router.slaSeconds = kSlaSeconds;
    cfg.workerThreads = kWorkers;
    cfg.producerThreads = kProducers;

    // Rounds until the budget is spent, so every timing is sampled
    // across the whole run: set-up (cluster, trace, the DES run that
    // records the decisions), a discarded warm-up execution, then
    // timed mirror executions. Each execution's ledger must equal
    // the DES's, and every round's DES must equal the first.
    Cluster c;
    RoutedTrace trace;
    RoutingReport des, first_des;
    std::vector<RouteDecision> decisions;
    std::vector<double> setup, trace_s, des_s;
    std::vector<RealTimeReport> runs;
    std::vector<double> untraced_walls;
    const auto budget_start = Clock::now();
    for (int round = 0;
         round < kMinRounds || secondsSince(budget_start) < opts.seconds;
         ++round) {
        trace = RoutedTrace{};
        const auto t0 = Clock::now();
        {
            Scope s(tracer, "setup");
            buildCluster(c, opts.seed, false, tracer);
            auto t1 = Clock::now();
            {
                Scope g(tracer, "datagen.materializeRoutedTrace");
                trace = materializeRoutedTrace(*c.data, load,
                                               kThreadsQueries);
            }
            trace_s.push_back(secondsSince(t1));
            t1 = Clock::now();
            Scope g(tracer, "routing.route");
            des = Router(c.model, c.cluster, cfg.router)
                      .route(trace, &decisions);
            des_s.push_back(secondsSince(t1));
        }
        setup.push_back(secondsSince(t0));
        if (round == 0)
            first_des = des;
        report.check(ledgerOf(des) == ledgerOf(first_des) &&
                         des.p99Latency == first_des.p99Latency &&
                         des.goodput == first_des.goodput,
                     "repeating the set-up changed the DES report",
                     des.queries);

        const ServingLedger expected = ledgerOf(des);
        const RealTimeExecutor exec(c.model, c.cluster, cfg);
        const auto execute = [&](bool timed) {
            RealTimeReport r = exec.run(trace, decisions);
            const bool same = ledgerOf(r) == expected;
            report.check(same,
                         "mirror ledger differs from the DES ledger:\n" +
                             describeLedger(ledgerOf(r)) +
                             "\nexpected\n" + describeLedger(expected),
                         r.ledger.offered);
            if (timed) {
                report.attempted += r.ledger.offered;
                report.failed += r.ledger.shed;
            }
            return r;
        };
        (void)execute(false);
        for (int i = 0; i < kTimedPerRound; ++i) {
            if (opts.trace) {
                // Alternate untraced and traced executions so the
                // tracing overhead is measured under like conditions.
                untraced_walls.push_back(execute(true).wallSeconds);
                Scope s(tracer, "routing.RealTimeExecutor.run");
                runs.push_back(execute(true));
            } else {
                runs.push_back(execute(true));
            }
        }
        // More planning passes after the timed work, so the planning
        // timings are sampled across the run.
        for (int i = 1; i < kPlanPasses; ++i)
            planCluster(c, tracer);
    }
    report.check(c.plansRepeat,
                 "re-planning the same profile changed a node plan",
                 report.attempted);
    report.check(des.shedQueries == 0 && des.degradedQueries == 0,
                 "admit-all DES shed or degraded queries",
                 des.shedQueries + des.degradedQueries);

    std::vector<double> walls, rates, p50s;
    std::uint64_t max_outstanding = 0;
    for (const RealTimeReport &r : runs) {
        walls.push_back(r.wallSeconds);
        rates.push_back(r.lookupsPerSecond);
        p50s.push_back(r.wall.p50Latency);
        max_outstanding = std::max(max_outstanding, r.maxNodeOutstanding);
    }
    const std::uint64_t offered_lookups = offeredLookups(trace);
    const std::uint64_t executed = runs.front().executedLookups;
    const std::uint64_t served_lookups =
        des.hbmAccesses + des.uvmAccesses + des.cacheHits;
    report.check(executed == served_lookups && executed == offered_lookups,
                 "executed lookups differ from the offered lookups",
                 report.attempted);
    std::cerr << "serve-threads: " << runs.size() << " timed executions of "
              << kThreadsQueries << " queries, median "
              << median(walls) << " s\n";

    report.modeled["uvm_access_frac"] = des.uvmAccessFraction;
    report.modeled["goodput_qps"] = des.goodput;
    report.modeled["p50_ms"] = des.p50Latency * 1e3;
    report.modeled["p99_ms"] = des.p99Latency * 1e3;
    report.modeled["candidate_frac"] = des.candidateFraction;
    reportPlans(c, report, opts.trace);

    const double wall = median(walls);
    if (!opts.trace) {
        report.metric("setup_s", median(setup));
        report.metric("peak_rss_mb", peakRssMb());
        report.metric("uvm_access_frac", des.uvmAccessFraction);
        report.metric("goodput_qps", des.goodput);
        report.metric("p50_ms", des.p50Latency * 1e3);
        report.metric("p99_ms", des.p99Latency * 1e3);
        report.metric("served_lookup_frac",
                      static_cast<double>(executed) /
                          static_cast<double>(offered_lookups));
        return;
    }

    const double lookups = static_cast<double>(served_lookups);
    report.metric("datagen.trace_s", median(trace_s));
    report.metric("routing.cluster_build_s", median(c.clusterSeconds));
    report.metric("sharding.solve_s", median(c.solveSeconds));
    report.metric("routing.des_s", median(des_s));
    report.metric("routing.realtime_s", wall);
    report.metric("routing.lookups", static_cast<double>(executed));
    report.metric("routing.lookups_per_s", median(rates));
    report.metric("routing.max_node_outstanding",
                  static_cast<double>(max_outstanding));
    report.metric("routing.wall_p50_ms", median(p50s) * 1e3);
    report.metric("serving.cache_hit_frac",
                  static_cast<double>(des.cacheHits) / lookups);
    report.metric("serving.uvm_access_frac",
                  static_cast<double>(des.uvmAccesses) / lookups);
    report.metric("serving.lookups", lookups);
    report.metric("trace.traced_s", wall);
    report.metric("trace.untraced_s", median(untraced_walls));
    report.metric("trace.overhead_s", wall - median(untraced_walls));
}

void
runServeDrift(const Options &opts, Tracer &tracer, Report &report)
{
    LoadConfig load;
    load.qps = kDriftQps;
    load.meanQuerySamples = kDriftMeanSamples;
    load.seed = opts.seed ^ 0x60157ULL;
    DriftTraceSchedule schedule;
    schedule.months = kMonths;

    ReplanConfig rc;
    rc.policy = RoutingPolicy::LocalityAware;
    rc.slaSeconds = kSlaSeconds;
    rc.server.cacheRows = kDriftCacheRows;
    rc.server.batchOverheadSeconds = kDriftOverheadSeconds;
    rc.server.admission.policy = "tinylfu";
    rc.overload.admission.policy = "adaptive";
    rc.overload.degradation.enabled = true;
    rc.epochQueries = kEpochQueries;
    rc.migration.rowsPerStep = 256;
    rc.maxReplans = 6;

    // Rounds until the budget is spent: set-up (cluster, drifting
    // trace, server), then one timed serve(). Every round must give
    // the same report.
    Cluster c;
    RoutedTrace trace;
    ReplanReport first;
    std::vector<double> setup, trace_s, walls, untraced_walls;
    const auto budget_start = Clock::now();
    for (int round = 0;
         round < kMinRounds || secondsSince(budget_start) < opts.seconds;
         ++round) {
        trace = RoutedTrace{};
        const auto t0 = Clock::now();
        std::unique_ptr<LiveReplanServer> server;
        {
            Scope s(tracer, "setup");
            buildCluster(c, opts.seed, true, tracer);
            DriftModel drift;
            drift.hotChurnPerMonth = kChurnPerMonth;
            c.data->setDrift(drift);
            const auto t1 = Clock::now();
            {
                Scope g(tracer, "datagen.materializeDriftingRoutedTrace");
                trace = materializeDriftingRoutedTrace(
                    *c.data, load, kDriftQueries, schedule);
            }
            trace_s.push_back(secondsSince(t1));
            // The replacement plan pins at most one GPU's HBM of a
            // table; track that many hot-row candidates exactly.
            const std::uint64_t budget_rows =
                c.system.hbm.capacityBytes /
                c.model.features.front().rowBytes();
            std::uint32_t k = 1024;
            while (k < budget_rows)
                k *= 2;
            rc.sketch.topK = k;
            rc.sketch.width = 4 * k;
            server = std::make_unique<LiveReplanServer>(c.model, c.cluster,
                                                        rc);
        }
        setup.push_back(secondsSince(t0));

        const auto serve = [&] {
            const auto t = Clock::now();
            ReplanReport r = server->serve(trace);
            return std::make_pair(std::move(r), secondsSince(t));
        };
        if (opts.trace)
            untraced_walls.push_back(serve().second);
        std::pair<ReplanReport, double> r;
        {
            Scope s(tracer, "replan.LiveReplanServer.serve");
            r = serve();
        }
        walls.push_back(r.second);
        const ReplanReport &now = r.first;
        if (round == 0)
            first = now;
        report.check(now.p99Latency == first.p99Latency &&
                         now.p50Latency == first.p50Latency &&
                         now.goodput == first.goodput &&
                         now.servedQueries == first.servedQueries &&
                         now.uvmAccesses == first.uvmAccesses &&
                         now.migrationSteps == first.migrationSteps,
                     "serving the same trace again gave another report",
                     now.queries);

        // Conservation: offered == served (full + degraded) + shed,
        // as a whole and summed over the epoch log.
        std::uint64_t arrivals = 0, served = 0, shed = 0;
        for (const ReplanEpochStats &e : now.epochs) {
            arrivals += e.arrivals;
            served += e.served;
            shed += e.shed;
        }
        report.attempted += now.queries;
        report.failed += now.shedQueries;
        report.check(now.queries == kDriftQueries &&
                         now.servedQueries + now.shedQueries ==
                             now.queries &&
                         arrivals == now.queries &&
                         served == now.servedQueries &&
                         shed == now.shedQueries,
                     "offered queries are not conserved", now.queries);
        server.reset();
        for (int i = 1; i < kPlanPasses; ++i)
            planCluster(c, tracer);
    }
    report.check(c.plansRepeat,
                 "re-planning the same profile changed a node plan",
                 report.attempted);

    const std::uint64_t offered_lookups = offeredLookups(trace);
    const std::uint64_t executed =
        first.hbmAccesses + first.uvmAccesses + first.cacheHits;
    const double lookup_frac = static_cast<double>(executed) /
        static_cast<double>(offered_lookups);
    const double wall = median(walls);
    std::cerr << "serve-drift: " << first.queries << " offered over "
              << first.durationSeconds << " s virtual, "
              << first.servedQueries << " served, " << first.goodQueries
              << " within SLA, " << first.replansCompleted
              << " replans; median serve() " << wall << " s over "
              << walls.size() << " rounds\n";

    report.modeled["uvm_access_frac"] = first.uvmAccessFraction;
    report.modeled["goodput_qps"] = first.goodput;
    report.modeled["p50_ms"] = first.p50Latency * 1e3;
    report.modeled["p99_ms"] = first.p99Latency * 1e3;
    report.modeled["served_lookup_frac"] = lookup_frac;
    reportPlans(c, report, opts.trace);

    if (!opts.trace) {
        report.metric("setup_s", median(setup));
        report.metric("peak_rss_mb", peakRssMb());
        report.metric("uvm_access_frac", first.uvmAccessFraction);
        report.metric("goodput_qps", first.goodput);
        report.metric("p50_ms", first.p50Latency * 1e3);
        report.metric("p99_ms", first.p99Latency * 1e3);
        report.metric("served_lookup_frac", lookup_frac);
        return;
    }

    // A standalone sketch pass: every query at full fidelity through
    // one LiveProfiler, then the export the replanner consumes.
    LiveProfiler profiler(c.model, rc.sketch);
    {
        Scope s(tracer, "replan.observe_pass");
        for (const RoutedQuery &q : trace.queries)
            profiler.observeQuery(q, q.query.samples);
    }
    {
        Scope s(tracer, "replan.exportProfiles");
        (void)profiler.exportProfiles();
    }

    const double lookups = static_cast<double>(executed);
    report.metric("datagen.drift_trace_s", median(trace_s));
    report.metric("routing.cluster_build_s", median(c.clusterSeconds));
    report.metric("sharding.solve_s", median(c.solveSeconds));
    report.metric("replan.serve_s", wall);
    report.metric("replan.queries_per_s",
                  static_cast<double>(kDriftQueries) / wall);
    report.metric("replan.sketch_observe_s",
                  tracer.total("replan.observe_pass"));
    report.metric("replan.sketch_export_s",
                  tracer.total("replan.exportProfiles"));
    report.metric("replan.assessments",
                  static_cast<double>(first.assessmentsRun));
    report.metric("replan.replans_completed",
                  static_cast<double>(first.replansCompleted));
    report.metric("replan.migration_steps",
                  static_cast<double>(first.migrationSteps));
    report.metric("replan.replan_yield",
                  first.assessmentsRun
                      ? static_cast<double>(first.replansCompleted) /
                          static_cast<double>(first.assessmentsRun)
                      : 0.0);
    report.metric("overload.offered", static_cast<double>(first.queries));
    report.metric("overload.shed", static_cast<double>(first.shedQueries));
    report.metric("overload.trimmed_lookups",
                  static_cast<double>(offered_lookups - executed));
    report.metric("serving.cache_hit_frac",
                  static_cast<double>(first.cacheHits) / lookups);
    report.metric("serving.uvm_access_frac",
                  static_cast<double>(first.uvmAccesses) / lookups);
    report.metric("serving.lookups", lookups);
    report.metric("trace.traced_s", wall);
    report.metric("trace.untraced_s", median(untraced_walls));
    report.metric("trace.overhead_s", wall - median(untraced_walls));
}

} // namespace perfbench
