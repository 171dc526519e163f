#include "recshard/routing/realtime.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include "recshard/base/logging.hh"
#include "recshard/routing/mpsc_queue.hh"

namespace recshard {

namespace {

/** One admitted query in a node's admission queue. */
struct QueueItem
{
    std::uint64_t id = 0;
    std::uint32_t tier = 0;
    std::uint32_t kept = 0;
    /** Wall seconds (since run start) the producer enqueued it —
     *  the arrival timestamp wall latency is measured from. */
    double enqueueSeconds = 0.0;
};

/**
 * One node's runtime state. The queue and outstanding counter are
 * the producer/worker hand-off; everything else is owned by the
 * single worker thread that drives this node, so the pool's caches
 * and virtual clocks never race.
 */
struct NodeRuntime
{
    NodeRuntime(const ModelSpec &model, const ShardingPlan &plan,
                const std::vector<TierResolver> &resolvers,
                const SystemSpec &system,
                const ShardServerConfig &config)
        : pool(model, plan, resolvers, system, config)
    {
    }

    MpscQueue<QueueItem> queue;
    std::atomic<std::uint64_t> outstanding{0};
    std::atomic<std::uint64_t> maxOutstanding{0};
    ShardServerPool pool;
    /** Worker-owned: previous executeOne finish (virtual), so the
     *  per-dispatch service time can be recovered from the pool's
     *  monotone virtual clock. */
    double virtualFinish = 0.0;
};

/** Worker-thread-local slice of the conservation/fidelity ledger. */
struct WorkerLedger
{
    explicit WorkerLedger(std::uint32_t tiers)
        : tierQueries(tiers, 0), tierOfferedCand(tiers, 0),
          tierServedCand(tiers, 0)
    {
    }

    std::vector<std::uint64_t> tierQueries;
    std::vector<std::uint64_t> tierOfferedCand;
    std::vector<std::uint64_t> tierServedCand;
    std::uint64_t hbm = 0;
    std::uint64_t uvm = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t executedLookups = 0;
};

/** Producer-thread-local shed accounting. */
struct ProducerLedger
{
    std::uint64_t shed = 0;
    std::uint64_t shedOfferedCand = 0;
};

void
raiseMax(std::atomic<std::uint64_t> &slot, std::uint64_t value)
{
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

bool
operator==(const ServingLedger &a, const ServingLedger &b)
{
    return a.offered == b.offered && a.served == b.served &&
        a.full == b.full && a.degraded == b.degraded &&
        a.shed == b.shed &&
        a.offeredCandidates == b.offeredCandidates &&
        a.servedCandidates == b.servedCandidates &&
        a.tierQueries == b.tierQueries &&
        a.tierCandidateFraction == b.tierCandidateFraction &&
        a.hbmAccesses == b.hbmAccesses &&
        a.uvmAccesses == b.uvmAccesses &&
        a.cacheHits == b.cacheHits;
}

std::string
describeLedger(const ServingLedger &ledger)
{
    std::ostringstream os;
    os << "offered " << ledger.offered << " = full " << ledger.full
       << " + degraded " << ledger.degraded << " + shed "
       << ledger.shed << " (served " << ledger.served << ")\n"
       << "candidates " << ledger.servedCandidates << " / "
       << ledger.offeredCandidates << "\ntiers [";
    for (std::size_t t = 0; t < ledger.tierQueries.size(); ++t)
        os << (t ? " " : "") << ledger.tierQueries[t];
    os << "] fractions [";
    for (std::size_t t = 0; t < ledger.tierCandidateFraction.size();
         ++t)
        os << (t ? " " : "") << ledger.tierCandidateFraction[t];
    os << "]\nhbm " << ledger.hbmAccesses << " uvm "
       << ledger.uvmAccesses << " cacheHits " << ledger.cacheHits;
    return os.str();
}

ServingLedger
ledgerOf(const RoutingReport &report)
{
    ServingLedger l;
    l.offered = report.queries;
    l.served = report.servedQueries;
    l.full = report.fullQueries;
    l.degraded = report.degradedQueries;
    l.shed = report.shedQueries;
    l.offeredCandidates = report.offeredCandidates;
    l.servedCandidates = report.servedCandidates;
    l.tierQueries = report.tierQueries;
    l.tierCandidateFraction = report.tierCandidateFraction;
    l.hbmAccesses = report.hbmAccesses;
    l.uvmAccesses = report.uvmAccesses;
    l.cacheHits = report.cacheHits;
    return l;
}

RealTimeExecutor::RealTimeExecutor(const ModelSpec &model_,
                                   const RoutingCluster &cluster_,
                                   RealTimeConfig config)
    : model(model_), cluster(cluster_), cfg(std::move(config))
{
    fatal_if(cluster.numNodes() == 0,
             "real-time executor needs >= 1 node");
    fatal_if(cfg.mode != "mirror" && cfg.mode != "live",
             "unknown real-time mode '", cfg.mode,
             "'; known modes: mirror, live");
    fatal_if(cfg.router.hedge.enabled,
             "request hedging is a DES-only mechanism; the "
             "real-time backend does not duplicate work (disable "
             "hedge.enabled)");
    fatal_if(cfg.mode == "live" &&
                 cfg.router.policy != RoutingPolicy::RoundRobin,
             "live mode routes statically round-robin (query id "
             "mod nodes); load- and locality-aware policies are "
             "only meaningful through the DES twin (mirror mode)");
    // Fail fast on a bad overload config, exactly like the Router.
    makeAdmissionController(cfg.router.overload.admission,
                            cluster.numNodes(),
                            cfg.router.slaSeconds);
    (void)DegradationPolicy(cfg.router.overload.degradation);
}

std::uint32_t
RealTimeExecutor::resolvedWorkerThreads() const
{
    const std::uint32_t N = cluster.numNodes();
    if (cfg.workerThreads != 0)
        return std::min(cfg.workerThreads, N);
    std::uint32_t hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 2;
    return std::min(N, std::max<std::uint32_t>(1, hw - 1));
}

std::uint32_t
RealTimeExecutor::resolvedProducerThreads() const
{
    std::uint32_t p =
        cfg.producerThreads != 0 ? cfg.producerThreads : 1;
    // Mirror producers partition the node space; extras would idle.
    if (cfg.mode == "mirror")
        p = std::min(p, cluster.numNodes());
    return p;
}

RealTimeReport
RealTimeExecutor::run(const RoutedTrace &trace) const
{
    if (cfg.mode == "live") {
        static const std::vector<RouteDecision> none;
        return run(trace, none);
    }
    // Mirror: the deterministic twin decides, real threads execute.
    std::vector<RouteDecision> decisions;
    Router(model, cluster, cfg.router).route(trace, &decisions);
    return run(trace, decisions);
}

RealTimeReport
RealTimeExecutor::run(
    const RoutedTrace &trace,
    const std::vector<RouteDecision> &decisions) const
{
    fatal_if(trace.queries.empty(), "no queries to serve");
    const bool mirror = cfg.mode == "mirror";
    fatal_if(mirror && decisions.size() != trace.queries.size(),
             "decision stream covers ", decisions.size(), " of ",
             trace.queries.size(), " queries");
    fatal_if(!mirror && !decisions.empty(),
             "live mode decides at the queues; a pre-recorded "
             "decision stream would be ignored");

    const std::uint32_t N = cluster.numNodes();
    const std::uint64_t Q = trace.queries.size();
    const std::uint32_t W = resolvedWorkerThreads();
    const std::uint32_t P = resolvedProducerThreads();

    const DegradationPolicy degrade(cfg.router.overload.degradation);
    const std::uint32_t tiers =
        degrade.enabled() ? degrade.numTiers() : 1;
    // Live mode's controller: shared by every producer, so it must
    // be thread-safe (overload/admission.hh documents the
    // contract). Mirror mode never consults one — the decision
    // stream already encodes the DES twin's verdicts.
    const std::unique_ptr<AdmissionController> admission = mirror
        ? nullptr
        : makeAdmissionController(cfg.router.overload.admission, N,
                                  cfg.router.slaSeconds);

    std::vector<std::unique_ptr<NodeRuntime>> nodes;
    nodes.reserve(N);
    std::uint32_t total_gpus = 0;
    for (std::uint32_t n = 0; n < N; ++n) {
        nodes.push_back(std::make_unique<NodeRuntime>(
            model, cluster.planSet.plans[n], cluster.resolvers[n],
            cluster.nodeSystem(n), cfg.router.server));
        total_gpus += cluster.nodeSystem(n).numGpus;
    }

    // One metrics shard per thread (workers first, then
    // producers): every thread records into its own shard and the
    // shards are merged once, after every thread has been joined.
    ShardedServingMetrics metrics(W + P);
    std::vector<WorkerLedger> workerLedgers(W, WorkerLedger(tiers));
    std::vector<ProducerLedger> producerLedgers(P);
    std::atomic<bool> producersDone{false};

    const auto t0 = std::chrono::steady_clock::now();
    auto nowSeconds = [&t0] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };

    auto enqueue = [&](std::uint32_t n, std::uint64_t qid,
                       std::uint32_t tier, std::uint32_t kept) {
        NodeRuntime &nr = *nodes[n];
        const std::uint64_t out =
            nr.outstanding.fetch_add(1,
                                     std::memory_order_relaxed) +
            1;
        raiseMax(nr.maxOutstanding, out);
        nr.queue.push({qid, tier, kept, nowSeconds()});
    };

    std::vector<std::thread> producers;
    producers.reserve(P);
    for (std::uint32_t p = 0; p < P; ++p) {
        producers.emplace_back([&, p] {
            ProducerLedger &led = producerLedgers[p];
            ServingMetrics &m = metrics.shard(W + p);
            if (mirror) {
                // Node-space partitioning: this producer feeds
                // exactly the nodes with node % P == p, walking the
                // full trace in arrival order — so every queue
                // receives its queries in the same order the DES
                // dispatched them, and cache counters stay
                // byte-comparable.
                for (std::uint64_t q = 0; q < Q; ++q) {
                    const RouteDecision &d = decisions[q];
                    if (d.node % P != p)
                        continue;
                    if (d.shed) {
                        ++led.shed;
                        led.shedOfferedCand +=
                            trace.queries[q].query.samples;
                        m.recordShed(nowSeconds(),
                                     trace.queries[q].query.samples);
                        continue;
                    }
                    enqueue(d.node, q, d.tier, d.keptSamples);
                }
                return;
            }
            // Live: this producer owns a contiguous query range,
            // routes statically (query id mod nodes), and asks the
            // shared admission controller against the node's
            // *actual* outstanding count — several producers
            // genuinely contend on each MPSC queue.
            const std::uint64_t lo = Q * p / P;
            const std::uint64_t hi = Q * (p + 1) / P;
            for (std::uint64_t q = lo; q < hi; ++q) {
                const std::uint32_t n =
                    static_cast<std::uint32_t>(q % N);
                const std::uint32_t samples =
                    trace.queries[q].query.samples;
                const AdmissionVerdict verdict =
                    admission->decide(nowSeconds(), n,
                                      nodes[n]->outstanding.load(
                                          std::memory_order_relaxed));
                if ((!verdict.admit && !degrade.enabled()) ||
                    (degrade.enabled() &&
                     degrade.shouldShed(verdict))) {
                    ++led.shed;
                    led.shedOfferedCand += samples;
                    m.recordShed(nowSeconds(), samples);
                    continue;
                }
                const std::uint32_t tier =
                    degrade.enabled() ? degrade.tierFor(verdict)
                                      : 0;
                const std::uint32_t kept = tier == 0
                    ? samples
                    : degrade.degradedSamples(samples, tier);
                enqueue(n, q, tier, kept);
            }
        });
    }

    std::vector<std::thread> workers;
    workers.reserve(W);
    for (std::uint32_t w = 0; w < W; ++w) {
        workers.emplace_back([&, w] {
            // This worker owns nodes with node % W == w; each node
            // is drained by exactly one thread, so its pool's
            // caches and clocks are single-writer.
            std::vector<std::uint32_t> owned;
            for (std::uint32_t n = w; n < N; n += W)
                owned.push_back(n);
            WorkerLedger &led = workerLedgers[w];
            ServingMetrics &m = metrics.shard(w);
            for (;;) {
                // Read the done flag *before* sweeping: if the
                // sweep then finds every owned queue empty, all
                // pushes (which happened-before the flag) have
                // been drained and the worker may exit.
                const bool done = producersDone.load(
                    std::memory_order_acquire);
                bool any = false;
                for (const std::uint32_t n : owned) {
                    NodeRuntime &nr = *nodes[n];
                    QueueItem item;
                    if (!nr.queue.tryPop(item))
                        continue;
                    any = true;
                    const RoutedQuery &rq =
                        trace.queries[item.id];
                    const std::uint64_t executed =
                        rq.lookups.prefixLookups(item.kept);
                    const BatchCompletion done_batch =
                        nr.pool.executeOne(
                            rq.asBatch(0.0, item.kept), rq.lookups,
                            item.kept);
                    const double now = nowSeconds();
                    const double service = done_batch.finishTime -
                        nr.virtualFinish;
                    nr.virtualFinish = done_batch.finishTime;
                    if (admission != nullptr)
                        admission->observeDispatch(
                            n, now, now - item.enqueueSeconds,
                            service);
                    ++led.tierQueries[item.tier];
                    led.tierOfferedCand[item.tier] +=
                        rq.query.samples;
                    led.tierServedCand[item.tier] += item.kept;
                    led.hbm += done_batch.hbmAccesses;
                    led.uvm += done_batch.uvmAccesses;
                    led.cacheHits += done_batch.cacheHits;
                    led.executedLookups += executed;
                    m.recordQuery(item.enqueueSeconds, now,
                                  rq.query.samples, item.kept);
                    nr.outstanding.fetch_sub(
                        1, std::memory_order_release);
                }
                if (!any) {
                    if (done)
                        break;
                    std::this_thread::yield();
                }
            }
        });
    }

    for (std::thread &t : producers)
        t.join();
    producersDone.store(true, std::memory_order_release);
    for (std::thread &t : workers)
        t.join();
    const double wall_seconds = nowSeconds();

    // ---------------------------------------------------- reduce
    RealTimeReport r;
    r.mode = cfg.mode;
    r.nodes = N;
    r.workerThreads = W;
    r.producerThreads = P;
    const std::string admission_name = mirror
        ? cfg.router.overload.admission.policy
        : std::string(admission->name());
    r.name = "realtime+" + cfg.mode + "+" +
        routingPolicyName(cfg.router.policy) +
        (admission_name != "admit-all" ? "+" + admission_name
                                       : "") +
        (degrade.enabled() ? "+degrade" : "");

    ServingLedger &l = r.ledger;
    l.offered = Q;
    l.tierQueries.assign(tiers, 0);
    std::vector<std::uint64_t> tier_offered(tiers, 0);
    std::vector<std::uint64_t> tier_served(tiers, 0);
    for (const WorkerLedger &led : workerLedgers) {
        for (std::uint32_t t = 0; t < tiers; ++t) {
            l.tierQueries[t] += led.tierQueries[t];
            tier_offered[t] += led.tierOfferedCand[t];
            tier_served[t] += led.tierServedCand[t];
        }
        l.hbmAccesses += led.hbm;
        l.uvmAccesses += led.uvm;
        l.cacheHits += led.cacheHits;
        r.executedLookups += led.executedLookups;
    }
    for (const ProducerLedger &led : producerLedgers) {
        l.shed += led.shed;
        l.offeredCandidates += led.shedOfferedCand;
    }
    l.full = l.tierQueries[0];
    for (std::uint32_t t = 1; t < tiers; ++t)
        l.degraded += l.tierQueries[t];
    l.served = l.full + l.degraded;
    panic_if(l.served + l.shed != Q, "served ", l.served,
             " + shed ", l.shed, " of ", Q,
             " queries crossed the real-time backend");
    for (std::uint32_t t = 0; t < tiers; ++t) {
        l.offeredCandidates += tier_offered[t];
        l.servedCandidates += tier_served[t];
    }
    l.tierCandidateFraction.resize(tiers, 0.0);
    for (std::uint32_t t = 0; t < tiers; ++t)
        if (tier_offered[t])
            l.tierCandidateFraction[t] =
                static_cast<double>(tier_served[t]) /
                static_cast<double>(tier_offered[t]);

    for (const auto &nr : nodes) {
        panic_if(nr->outstanding.load(std::memory_order_relaxed) !=
                     0,
                 "node finished with queries outstanding");
        r.maxNodeOutstanding = std::max(
            r.maxNodeOutstanding,
            nr->maxOutstanding.load(std::memory_order_relaxed));
    }

    double busy_seconds = 0.0;
    for (const auto &nr : nodes)
        busy_seconds += nr->pool.busySeconds();
    r.wall = metrics.merged().report(r.name, cfg.router.slaSeconds,
                                     total_gpus, busy_seconds);
    r.wallSeconds = wall_seconds;
    if (wall_seconds > 0.0) {
        r.sustainedQps =
            static_cast<double>(l.served) / wall_seconds;
        r.lookupsPerSecond =
            static_cast<double>(r.executedLookups) / wall_seconds;
    }
    return r;
}

} // namespace recshard
