#include "recshard/routing/router.hh"

#include <algorithm>
#include <queue>

#include "recshard/base/logging.hh"
#include "recshard/base/stats.hh"

namespace recshard {

namespace {

constexpr std::uint32_t kNoNode = 0xffffffffu;

enum class EventKind { Arrival, HedgeFire, Completion };

/** One scheduled event of the virtual-time loop. */
struct Event
{
    double time = 0.0;
    std::uint64_t seq = 0; //!< insertion order, breaks time ties
    EventKind kind = EventKind::Arrival;
    std::uint64_t query = 0;
    std::uint32_t node = kNoNode;    //!< Completion only
    double serviceSeconds = 0.0;     //!< Completion only
};

struct EventLater
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
};

/** Where each copy of a query went, and whether it resolved. */
struct QueryState
{
    std::uint32_t primary = kNoNode;
    std::uint32_t hedge = kNoNode;
    bool hedged = false;
    /** Some copy entered service (started queries never hedge —
     *  a duplicate could not beat the in-service copy). */
    bool started = false;
    bool done = false;
    /** Rejected at admission (never enqueued anywhere). */
    bool shed = false;
    /** Fidelity tier assigned at admission (0 = full). Fixed for
     *  the query's lifetime, so a hedge copy serves the identical
     *  candidate subset as its primary. */
    std::uint32_t tier = 0;
    /** Ranking candidates actually served (== offered at tier 0). */
    std::uint32_t keptSamples = 0;
};

} // namespace

LatencyWindow::LatencyWindow(std::uint64_t capacity)
    : cap(capacity)
{
    fatal_if(cap == 0, "latency window cannot be empty");
    buf.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(cap, 4096)));
}

void
LatencyWindow::push(double latency)
{
    if (buf.size() < cap)
        buf.push_back(latency);
    else
        // `count` samples already landed, so this one is sample
        // count+1; its slot is count % cap — overwriting exactly
        // the oldest survivor. (The historical off-by-one wrote
        // (count+1) % cap, which spared the oldest sample one
        // extra lap while evicting a one-newer sample.)
        buf[count % cap] = latency;
    ++count;
}

double
LatencyWindow::quantile(double q) const
{
    return percentile(buf, q);
}

Router::Router(const ModelSpec &model_,
               const RoutingCluster &cluster_, RouterConfig config)
    : model(model_), cluster(cluster_), cfg(config)
{
    fatal_if(cluster.numNodes() == 0, "router needs >= 1 node");
    fatal_if(cluster.resolvers.size() != cluster.planSet.plans.size(),
             "cluster has ", cluster.resolvers.size(),
             " resolver sets for ", cluster.planSet.plans.size(),
             " plans");
    fatal_if(cfg.slaSeconds < 0.0, "latency SLA must be >= 0, got ",
             cfg.slaSeconds);
    fatal_if(cfg.hedge.quantile < 0.0 || cfg.hedge.quantile > 1.0,
             "hedge quantile ", cfg.hedge.quantile,
             " outside [0,1]");
    fatal_if(cfg.hedge.windowSize == 0,
             "hedge latency window cannot be empty");
    fatal_if(cfg.hedge.refreshInterval == 0,
             "hedge-delay refresh interval must be >= 1");
    // Fail fast on a bad overload config: both are rebuilt (and
    // re-validated) per route() call, but a misconfiguration should
    // not wait for the first trace to surface.
    makeAdmissionController(cfg.overload.admission,
                            cluster.numNodes(), cfg.slaSeconds);
    (void)DegradationPolicy(cfg.overload.degradation);
}

RoutingReport
Router::route(const RoutedTrace &trace,
              std::vector<RouteDecision> *decisions) const
{
    fatal_if(trace.queries.empty(), "no queries to route");
    const std::uint32_t N = cluster.numNodes();
    const std::uint64_t Q = trace.queries.size();
    if (decisions != nullptr) {
        decisions->clear();
        decisions->resize(Q);
    }

    // Fresh per-run node state: queues, caches, virtual clocks.
    std::vector<ServingNode> nodes;
    nodes.reserve(N);
    for (std::uint32_t n = 0; n < N; ++n)
        nodes.emplace_back(n, model, cluster.planSet.plans[n],
                           cluster.resolvers[n],
                           cluster.nodeSystem(n), cfg.server);

    const LocalityIndex index(cluster.planPtrs());
    NodePicker picker(cfg.policy, index, cfg.localityLoadPenalty);

    // Overload control: the admission controller decides per
    // arrival, the degradation policy turns a shed verdict (and
    // mounting pressure) into fidelity tiers instead of drops.
    const std::unique_ptr<AdmissionController> admission =
        makeAdmissionController(cfg.overload.admission, N,
                                cfg.slaSeconds);
    const DegradationPolicy degrade(cfg.overload.degradation);
    const std::uint32_t tiers =
        degrade.enabled() ? degrade.numTiers() : 1;

    std::priority_queue<Event, std::vector<Event>, EventLater>
        events;
    std::uint64_t seq = 0;
    for (const RoutedQuery &rq : trace.queries) {
        Event e;
        e.time = rq.query.arrival;
        e.seq = seq++;
        e.kind = EventKind::Arrival;
        e.query = rq.query.id;
        events.push(e);
    }

    std::vector<QueryState> state(Q);
    std::vector<double> latencies;
    latencies.reserve(Q);
    std::vector<double> node_service(N, 0.0);

    const double first_arrival =
        trace.queries.front().query.arrival;
    double last_finish = first_arrival;
    std::uint64_t hedged = 0, hedge_wins = 0, canceled = 0;
    std::uint64_t completed = 0;
    double wasted = 0.0;
    std::uint64_t hbm = 0, uvm = 0, cache_hits = 0;

    // Overload accounting: per-tier served counts and the
    // candidate (quality) ledger.
    std::uint64_t shed = 0;
    std::uint64_t max_outstanding = 0;
    std::vector<std::uint64_t> tier_queries(tiers, 0);
    std::vector<std::uint64_t> tier_offered_cand(tiers, 0);
    std::vector<std::uint64_t> tier_served_cand(tiers, 0);
    std::uint64_t offered_cand = 0, served_cand = 0;

    // The hedge delay chases the observed latency quantile over a
    // sliding window; refreshed every refreshInterval completions,
    // not per completion, to keep the quantile sort off the
    // per-event path.
    LatencyWindow window(cfg.hedge.windowSize);
    double hedge_delay = 0.0;
    std::uint64_t since_refresh = 0;
    const std::uint64_t arm_after =
        std::max<std::uint64_t>(cfg.hedge.minSamples, 1);
    auto refreshHedgeDelay = [&] {
        hedge_delay = std::max(cfg.hedge.minDelaySeconds,
                               window.quantile(
                                   cfg.hedge.quantile));
        since_refresh = 0;
    };

    // Start a node's head-of-line query if the fleet is idle.
    auto tryDispatch = [&](std::uint32_t n, double now) {
        if (nodes[n].busy() || !nodes[n].hasPending())
            return;
        const std::uint64_t qid = nodes[n].frontPending();
        const RoutedQuery &rq = trace.queries[qid];
        // A degraded query executes only its kept candidates'
        // lookups — a CSR prefix of each feature, read in place
        // (nothing is copied) — so its service time genuinely
        // shrinks with its fidelity.
        const std::uint32_t kept = state[qid].keptSamples;
        const NodeDispatch d = nodes[n].dispatchNext(
            now, rq.asBatch(now, kept), rq.lookups, kept);
        node_service[n] += d.serviceSeconds;
        hbm += d.hbmAccesses;
        uvm += d.uvmAccesses;
        cache_hits += d.cacheHits;
        admission->observeDispatch(n, now,
                                   now - rq.query.arrival,
                                   d.serviceSeconds);

        QueryState &st = state[qid];
        st.started = true;
        if (st.hedged && cfg.hedge.tiedRequests) {
            // Tied requests: this copy entered service, so recall
            // the sibling if it is still waiting in a queue.
            const std::uint32_t other =
                n == st.primary ? st.hedge : st.primary;
            if (other != kNoNode &&
                nodes[other].cancelPending(qid))
                ++canceled;
        }

        Event e;
        e.time = d.finishTime;
        e.seq = seq++;
        e.kind = EventKind::Completion;
        e.query = qid;
        e.node = n;
        e.serviceSeconds = d.serviceSeconds;
        events.push(e);
    };

    while (!events.empty()) {
        const Event e = events.top();
        events.pop();
        switch (e.kind) {
          case EventKind::Arrival: {
              const RoutedQuery &rq = trace.queries[e.query];
              const std::uint32_t n = picker.pick(rq, nodes);
              QueryState &st = state[e.query];
              st.primary = n;
              offered_cand += rq.query.samples;

              const AdmissionVerdict verdict = admission->decide(
                  e.time, n, nodes[n].outstanding());
              if ((!verdict.admit && !degrade.enabled()) ||
                  (degrade.enabled() &&
                   degrade.shouldShed(verdict))) {
                  st.shed = true;
                  ++shed;
                  if (decisions != nullptr) {
                      (*decisions)[e.query].node = n;
                      (*decisions)[e.query].shed = true;
                  }
                  break;
              }
              st.tier = degrade.enabled()
                  ? degrade.tierFor(verdict) : 0;
              st.keptSamples = st.tier == 0
                  ? rq.query.samples
                  : degrade.degradedSamples(rq.query.samples,
                                            st.tier);
              if (decisions != nullptr) {
                  RouteDecision &d = (*decisions)[e.query];
                  d.node = n;
                  d.tier = st.tier;
                  d.keptSamples = st.keptSamples;
              }
              ++tier_queries[st.tier];
              tier_offered_cand[st.tier] += rq.query.samples;
              tier_served_cand[st.tier] += st.keptSamples;
              served_cand += st.keptSamples;

              nodes[n].enqueue(e.query);
              max_outstanding = std::max<std::uint64_t>(
                  max_outstanding, nodes[n].outstanding());
              tryDispatch(n, e.time);
              // Arm a hedge timer only once the delay estimate
              // exists; a single-node cluster never hedges (both
              // copies on one node would be forbidden anyway).
              if (cfg.hedge.enabled && N >= 2 &&
                  completed >= arm_after) {
                  Event h;
                  h.time = e.time + hedge_delay;
                  h.seq = seq++;
                  h.kind = EventKind::HedgeFire;
                  h.query = e.query;
                  events.push(h);
              }
              break;
          }

          case EventKind::HedgeFire: {
              QueryState &st = state[e.query];
              // Hedge only a query still waiting in a queue: a
              // duplicate of an in-service query cannot beat it.
              if (st.done || st.hedged || st.started)
                  break;
              // pickHedge excludes the primary: duplicating onto
              // the node that already holds the query is forbidden.
              const std::uint32_t h = picker.pickHedge(
                  trace.queries[e.query], nodes, st.primary);
              panic_if(h == st.primary,
                       "hedge landed on the primary node");
              st.hedge = h;
              st.hedged = true;
              ++hedged;
              nodes[h].enqueue(e.query);
              max_outstanding = std::max<std::uint64_t>(
                  max_outstanding, nodes[h].outstanding());
              tryDispatch(h, e.time);
              break;
          }

          case EventKind::Completion: {
              nodes[e.node].completeRunning();
              QueryState &st = state[e.query];
              if (st.done) {
                  // The losing copy of a hedged query: its service
                  // time was pure overhead.
                  wasted += e.serviceSeconds;
              } else {
                  st.done = true;
                  ++completed;
                  const double latency = e.time -
                      trace.queries[e.query].query.arrival;
                  latencies.push_back(latency);
                  last_finish = std::max(last_finish, e.time);

                  window.push(latency);
                  if (++since_refresh >=
                          cfg.hedge.refreshInterval ||
                      completed == arm_after)
                      refreshHedgeDelay();

                  if (st.hedged) {
                      if (e.node == st.hedge)
                          ++hedge_wins;
                      const std::uint32_t other =
                          e.node == st.primary ? st.hedge
                                               : st.primary;
                      // Still queued on the other node: recall it
                      // at zero cost. If it already started, its
                      // own Completion lands in the branch above.
                      if (nodes[other].cancelPending(e.query))
                          ++canceled;
                  }
              }
              tryDispatch(e.node, e.time);
              break;
          }
        }
    }

    for (const ServingNode &node : nodes)
        panic_if(node.outstanding() != 0, "node ", node.id(),
                 " finished with ", node.outstanding(),
                 " queries stranded");
    panic_if(latencies.size() + shed != Q, "served ",
             latencies.size(), " + shed ", shed, " of ", Q,
             " queries");

    RoutingReport r;
    r.policy = routingPolicyName(cfg.policy);
    r.hedging = cfg.hedge.enabled;
    r.admission = admission->name();
    r.degradation = degrade.enabled();
    r.name = r.policy + (r.hedging ? "+hedge" : "") +
        (r.admission != "admit-all" ? "+" + r.admission : "") +
        (r.degradation ? "+degrade" : "");
    r.queries = Q;
    r.slaSeconds = cfg.slaSeconds;

    const std::uint64_t served = latencies.size();
    r.servedQueries = served;
    r.shedQueries = shed;
    r.fullQueries = tier_queries[0];
    for (std::uint32_t t = 1; t < tiers; ++t)
        r.degradedQueries += tier_queries[t];
    r.shedRate = static_cast<double>(shed) /
        static_cast<double>(Q);
    r.degradedRate = static_cast<double>(r.degradedQueries) /
        static_cast<double>(Q);
    r.offeredCandidates = offered_cand;
    r.servedCandidates = served_cand;
    r.candidateFraction = offered_cand
        ? static_cast<double>(served_cand) /
            static_cast<double>(offered_cand)
        : 0.0;
    r.tierQueries = tier_queries;
    r.tierCandidateFraction.resize(tiers, 0.0);
    for (std::uint32_t t = 0; t < tiers; ++t)
        if (tier_offered_cand[t])
            r.tierCandidateFraction[t] =
                static_cast<double>(tier_served_cand[t]) /
                static_cast<double>(tier_offered_cand[t]);
    r.maxNodeOutstanding = max_outstanding;

    RunningStat lat;
    std::uint64_t violations = 0;
    for (const double l : latencies) {
        lat.push(l);
        violations += l > cfg.slaSeconds;
    }
    r.meanLatency = lat.mean();
    r.maxLatency = served ? lat.max() : 0.0;
    std::sort(latencies.begin(), latencies.end());
    if (served) {
        r.p50Latency = sortedPercentile(latencies, 0.50);
        r.p95Latency = sortedPercentile(latencies, 0.95);
        r.p99Latency = sortedPercentile(latencies, 0.99);
        r.slaViolationRate = static_cast<double>(violations) /
            static_cast<double>(served);
    }
    r.goodQueries = served - violations;

    r.hedgedQueries = hedged;
    r.hedgeRate = static_cast<double>(hedged) /
        static_cast<double>(Q);
    r.hedgeWins = hedge_wins;
    r.canceledCopies = canceled;
    r.wastedSeconds = wasted;

    r.hbmAccesses = hbm;
    r.uvmAccesses = uvm;
    r.cacheHits = cache_hits;
    const std::uint64_t accesses = hbm + uvm + cache_hits;
    r.uvmAccessFraction = accesses
        ? static_cast<double>(uvm) / static_cast<double>(accesses)
        : 0.0;
    r.cacheHitRate = cache_hits + uvm
        ? static_cast<double>(cache_hits) /
            static_cast<double>(cache_hits + uvm)
        : 0.0;

    double total_service = 0.0;
    r.nodeQueries.reserve(N);
    r.nodeBusySeconds = node_service;
    for (std::uint32_t n = 0; n < N; ++n) {
        r.nodeQueries.push_back(nodes[n].dispatched());
        total_service += node_service[n];
    }
    r.wastedWorkFraction =
        total_service > 0.0 ? wasted / total_service : 0.0;
    r.durationSeconds = last_finish - first_arrival;
    if (r.durationSeconds > 0.0) {
        r.qps = static_cast<double>(served) / r.durationSeconds;
        r.goodput = static_cast<double>(r.goodQueries) /
            r.durationSeconds;
        r.clusterUtilization = total_service /
            (static_cast<double>(N) * r.durationSeconds);
    }
    return r;
}

double
estimateSaturationQps(const ModelSpec &model,
                      const RoutingCluster &cluster,
                      RouterConfig config, const RoutedTrace &sample)
{
    // Admission and hedging off: every query runs at full fidelity
    // exactly once, so busy seconds / queries is the mean service
    // time the cluster sustains.
    config.hedge.enabled = false;
    config.overload = OverloadConfig{};
    const RoutingReport r =
        Router(model, cluster, config).route(sample);
    double busy = 0.0;
    for (const double s : r.nodeBusySeconds)
        busy += s;
    fatal_if(busy <= 0.0, "saturation probe measured no service "
             "time over ", r.queries, " queries");
    const double mean_service =
        busy / static_cast<double>(r.queries);
    return static_cast<double>(cluster.numNodes()) / mean_service;
}

std::vector<RoutingReport>
routeTrafficComparison(const ModelSpec &model,
                       const RoutingCluster &cluster,
                       const std::vector<RouterConfig> &configs,
                       const RoutedTrace &trace)
{
    fatal_if(configs.empty(), "no router configs to compare");
    std::vector<RoutingReport> reports;
    reports.reserve(configs.size());
    for (const RouterConfig &config : configs)
        reports.push_back(
            Router(model, cluster, config).route(trace));
    return reports;
}

} // namespace recshard
