#include "recshard/replan/live.hh"

#include <algorithm>
#include <memory>
#include <queue>
#include <utility>

#include "recshard/base/logging.hh"
#include "recshard/base/stats.hh"
#include "recshard/core/pipeline.hh"
#include "recshard/routing/router.hh"
#include "recshard/serving/node.hh"

namespace recshard {

namespace {

constexpr std::uint32_t kNoNode = 0xffffffffu;

enum class EventKind { Arrival, Completion, MigrationFinish,
                       MigrationKick };

/** One scheduled event of the virtual-time loop. */
struct Event
{
    double time = 0.0;
    std::uint64_t seq = 0; //!< insertion order, breaks time ties
    EventKind kind = EventKind::Arrival;
    std::uint64_t query = 0;
    std::uint32_t node = kNoNode;
};

struct EventLater
{
    bool
    operator()(const Event &a, const Event &b) const
    {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
};

struct QueryState
{
    std::uint32_t node = kNoNode;
    bool shed = false;
    std::uint32_t tier = 0;
    std::uint32_t keptSamples = 0;
};

/** One node's feedback-loop state. */
struct NodeReplan
{
    NodeReplan(const ModelSpec &model, const SketchConfig &sketch,
               const DriftConfig &drift)
        : profiler(model, sketch), detector(drift)
    {
    }

    LiveProfiler profiler;
    DriftDetector detector;
    /** In-flight migration; null while the incumbent fits. */
    std::unique_ptr<PlanMigration> migration;
    /** Plan adopted when the migration's last step commits. */
    ShardingPlan target;
    /** A migration step currently occupies the node's GPUs. */
    bool stepInFlight = false;
    /** Earliest virtual time the next step may start. */
    double nextStepOk = 0.0;
};

} // namespace

LiveReplanServer::LiveReplanServer(const ModelSpec &model_,
                                   const RoutingCluster &cluster_,
                                   ReplanConfig config)
    : model(model_), cluster(cluster_), cfg(std::move(config))
{
    fatal_if(cluster.numNodes() == 0,
             "live replanning needs >= 1 node");
    fatal_if(cfg.slaSeconds < 0.0, "latency SLA must be >= 0");
    fatal_if(cfg.epochQueries == 0,
             "epochs need >= 1 arrival each");
    cfg.sketch.validate();
    cfg.drift.validate();
    cfg.migration.validate();
    // Fail fast on a bad overload config (rebuilt per serve()).
    makeAdmissionController(cfg.overload.admission,
                            cluster.numNodes(), cfg.slaSeconds);
    (void)DegradationPolicy(cfg.overload.degradation);
}

ReplanReport
LiveReplanServer::serve(const RoutedTrace &trace) const
{
    fatal_if(trace.queries.empty(), "no queries to serve");
    const std::uint32_t N = cluster.numNodes();
    const std::uint64_t Q = trace.queries.size();
    const std::uint32_t J = model.numFeatures();

    // Live state: the cluster is the initial condition only. Plans
    // and resolvers are copied into vectors that are never resized,
    // so the references ServingNode/PlanMigration borrow stay valid
    // while elements are reassigned or mutated in place.
    std::vector<ShardingPlan> plans = cluster.planSet.plans;
    std::vector<std::vector<TierResolver>> resolvers =
        cluster.resolvers;

    std::vector<ServingNode> nodes;
    std::vector<EmbCostModel> costs;
    nodes.reserve(N);
    costs.reserve(N);
    for (std::uint32_t n = 0; n < N; ++n) {
        nodes.emplace_back(n, model, plans[n], resolvers[n],
                           cluster.nodeSystem(n), cfg.server);
        costs.emplace_back(cluster.nodeSystem(n));
    }

    const auto planPtrs = [&] {
        std::vector<const ShardingPlan *> ptrs;
        ptrs.reserve(N);
        for (std::uint32_t n = 0; n < N; ++n)
            ptrs.push_back(&plans[n]);
        return ptrs;
    };
    // The picker borrows `index`; reassigning the same object after
    // a plan handoff re-points routing at the new pin sets.
    LocalityIndex index(planPtrs());
    NodePicker picker(cfg.policy, index, cfg.localityLoadPenalty);

    const std::unique_ptr<AdmissionController> admission =
        makeAdmissionController(cfg.overload.admission, N,
                                cfg.slaSeconds);
    const DegradationPolicy degrade(cfg.overload.degradation);

    std::vector<NodeReplan> rs;
    rs.reserve(N);
    for (std::uint32_t n = 0; n < N; ++n)
        rs.emplace_back(model, cfg.sketch, cfg.drift);

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
    const double first_arrival =
        trace.queries.front().query.arrival;
    double last_finish = first_arrival;
    std::uint64_t shed = 0, shed_during_mig = 0;
    std::uint64_t hbm = 0, uvm = 0, cache_hits = 0;
    double total_service = 0.0;

    ReplanReport r;
    r.name = cfg.replanEnabled ? "live-replan" : "static-plan";
    r.queries = Q;
    r.slaSeconds = cfg.slaSeconds;

    // Epoch windowing: completions land in a LatencyWindow that is
    // reset at every boundary, so each epoch's p99 covers only its
    // own completions.
    LatencyWindow epoch_window(
        std::max<std::uint64_t>(2 * cfg.epochQueries, 64));
    double epoch_start = first_arrival;
    std::uint64_t epoch_arrivals = 0, epoch_served = 0;
    std::uint64_t epoch_shed = 0, epoch_good = 0;
    bool epoch_mig_active = false;

    const auto anyStepInFlight = [&] {
        for (const NodeReplan &node : rs)
            if (node.stepInFlight)
                return true;
        return false;
    };

    const auto closeEpoch = [&](double end) {
        ReplanEpochStats s;
        s.index = r.epochs.size();
        s.startTime = epoch_start;
        s.endTime = std::max(end, epoch_start);
        s.arrivals = epoch_arrivals;
        s.served = epoch_served;
        s.shed = epoch_shed;
        s.good = epoch_good;
        s.goodput = s.endTime > s.startTime
            ? static_cast<double>(s.good) /
                (s.endTime - s.startTime)
            : 0.0;
        s.p99 = epoch_served
            ? epoch_window.quantile(0.99) : 0.0;
        s.migrationActive = epoch_mig_active;
        r.epochs.push_back(s);
        epoch_start = s.endTime;
        epoch_arrivals = epoch_served = 0;
        epoch_shed = epoch_good = 0;
        epoch_window.reset();
        epoch_mig_active = anyStepInFlight();
    };

    const auto scheduleKick = [&](std::uint32_t n, double when) {
        Event e;
        e.time = when;
        e.seq = seq++;
        e.kind = EventKind::MigrationKick;
        e.node = n;
        events.push(e);
    };

    // Start the next migration step iff the node is fully idle: no
    // running query, no pending queries, no step already in flight,
    // and the inter-step gap elapsed. This is what subordinates
    // migration to serving — a node with any queued work never
    // spends a second migrating.
    const auto maybeStartStep = [&](std::uint32_t n, double now) {
        NodeReplan &nr = rs[n];
        if (!nr.migration || nr.migration->done() ||
            nr.stepInFlight)
            return;
        if (nodes[n].busy() || nodes[n].hasPending())
            return;
        if (now < nr.nextStepOk) {
            scheduleKick(n, nr.nextStepOk);
            return;
        }
        nr.stepInFlight = true;
        epoch_mig_active = true;
        const double dt = nr.migration->stepSeconds(costs[n]);
        r.migrationSeconds += dt;
        Event e;
        e.time = now + dt;
        e.seq = seq++;
        e.kind = EventKind::MigrationFinish;
        e.node = n;
        events.push(e);
    };

    const auto tryDispatch = [&](std::uint32_t n, double now) {
        // An in-flight step owns the node's GPUs; the head-of-line
        // query waits at most that one step.
        if (rs[n].stepInFlight)
            return;
        if (nodes[n].busy() || !nodes[n].hasPending())
            return;
        const std::uint64_t qid = nodes[n].frontPending();
        const RoutedQuery &rq = trace.queries[qid];
        const std::uint32_t kept = state[qid].keptSamples;
        const NodeDispatch d = nodes[n].dispatchNext(
            now, rq.asBatch(now, kept), rq.lookups, kept);
        total_service += d.serviceSeconds;
        hbm += d.hbmAccesses;
        uvm += d.uvmAccesses;
        cache_hits += d.cacheHits;
        admission->observeDispatch(n, now,
                                   now - rq.query.arrival,
                                   d.serviceSeconds);
        // Feed the feedback loop at dispatch: the sketch sees the
        // lookups actually executed (degraded prefix included), the
        // detector the dispatch's tier split.
        rs[n].profiler.observeQuery(rq, kept);
        rs[n].detector.observe(d.hbmAccesses, d.uvmAccesses,
                               d.cacheHits);

        Event e;
        e.time = d.finishTime;
        e.seq = seq++;
        e.kind = EventKind::Completion;
        e.query = qid;
        e.node = n;
        events.push(e);
    };

    // Epoch-boundary drift check for one node; launches at most one
    // migration per node at a time.
    const auto maybeReplan = [&](std::uint32_t n, double now) {
        if (!cfg.replanEnabled ||
            r.replansTriggered >= cfg.maxReplans)
            return;
        NodeReplan &nr = rs[n];
        if (nr.migration || !nr.detector.drifted())
            return;
        const std::vector<std::uint32_t> &slice =
            cluster.planSet.slices[n];
        if (slice.empty())
            return;

        // Confirm with the planner: price the incumbent against a
        // fresh solve of the node's slice under the live sketch
        // profiles — the same sub-model shape solveNodePlans() used.
        std::vector<EmbProfile> live_profiles =
            nr.profiler.exportProfiles();
        ModelSpec sub;
        sub.name = model.name + "/replan" + std::to_string(n);
        std::vector<EmbProfile> sub_profiles;
        std::vector<TierResolver> sub_resolvers;
        ShardingPlan sub_incumbent;
        sub_incumbent.strategy = plans[n].strategy;
        sub.features.reserve(slice.size());
        sub_profiles.reserve(slice.size());
        sub_resolvers.reserve(slice.size());
        sub_incumbent.tables.reserve(slice.size());
        for (const std::uint32_t j : slice) {
            sub.features.push_back(model.features[j]);
            sub_profiles.push_back(std::move(live_profiles[j]));
            sub_resolvers.push_back(resolvers[n][j]);
            sub_incumbent.tables.push_back(plans[n].tables[j]);
        }
        ++r.assessmentsRun;
        const ReshardAssessment a = assessReshard(
            sub, sub_profiles, cluster.nodeSystem(n),
            sub_incumbent, sub_resolvers, cfg.solver,
            cfg.plannerName);
        if (a.speedup < cfg.drift.minSpeedup) {
            // Not worth moving rows for: accept the current hit
            // fraction as the new normal so the (expensive)
            // assessment does not rerun every epoch.
            nr.detector.rebaseline();
            return;
        }

        // Lift the fresh slice plan onto the full model, KEEPING
        // the incumbent GPU assignment: each server's table list is
        // fixed at construction, so only pin counts may move.
        ShardingPlan target = plans[n];
        std::vector<FrequencyCdf> cdfs(J);
        for (std::size_t i = 0; i < slice.size(); ++i) {
            const std::uint32_t j = slice[i];
            target.tables[j].hbmRows =
                a.freshPlan.tables[i].hbmRows;
            cdfs[j] = std::move(sub_profiles[i].cdf);
            target.tables[j].hbmAccessFraction =
                cdfs[j].accessFraction(target.tables[j].hbmRows);
        }
        // The fresh solve packed rows under its own GPU layout;
        // pinning them under the incumbent layout can overflow a
        // GPU. Trim deterministically: shrink the biggest pinned
        // slice table on the overflowing GPU until it fits.
        const SystemSpec &sys = cluster.nodeSystem(n);
        for (std::uint32_t g = 0; g < sys.numGpus; ++g) {
            for (;;) {
                const std::uint64_t bytes =
                    target.hbmBytesOnGpu(model, g);
                if (bytes <= sys.hbm.capacityBytes)
                    break;
                std::uint32_t victim = kNoNode;
                for (const std::uint32_t j : slice)
                    if (target.tables[j].gpu == g &&
                        target.tables[j].hbmRows > 0 &&
                        (victim == kNoNode ||
                         target.tables[j].hbmRows >
                             target.tables[victim].hbmRows))
                        victim = j;
                panic_if(victim == kNoNode,
                         "GPU ", g, " over HBM budget with no "
                         "pinned slice table to trim");
                const std::uint64_t row_bytes =
                    model.features[victim].rowBytes();
                const std::uint64_t overflow =
                    bytes - sys.hbm.capacityBytes;
                const std::uint64_t cut = std::min(
                    target.tables[victim].hbmRows,
                    (overflow + row_bytes - 1) / row_bytes);
                target.tables[victim].hbmRows -= cut;
                target.tables[victim].hbmAccessFraction =
                    cdfs[victim].accessFraction(
                        target.tables[victim].hbmRows);
            }
        }
        target.validate(model, sys);

        auto migration = std::make_unique<PlanMigration>(
            model, target, cdfs, slice, resolvers[n],
            cfg.migration);
        if (migration->done()) {
            // Membership unchanged (only fractions moved): adopt
            // the plan outright, no migration to run.
            plans[n] = std::move(target);
            index = LocalityIndex(planPtrs());
            nr.detector.rebaseline();
            nr.profiler.decay();
            return;
        }
        nr.target = std::move(target);
        nr.migration = std::move(migration);
        ++r.replansTriggered;
        if (r.firstReplanTime < 0.0)
            r.firstReplanTime = now;
        scheduleKick(n, now);
    };

    while (!events.empty()) {
        const Event e = events.top();
        events.pop();
        switch (e.kind) {
          case EventKind::Arrival: {
              const RoutedQuery &rq = trace.queries[e.query];
              const std::uint32_t n = picker.pick(rq, nodes);
              QueryState &st = state[e.query];
              st.node = n;
              const AdmissionVerdict verdict = admission->decide(
                  e.time, n, nodes[n].outstanding());
              if ((!verdict.admit && !degrade.enabled()) ||
                  (degrade.enabled() &&
                   degrade.shouldShed(verdict))) {
                  st.shed = true;
                  ++shed;
                  ++epoch_shed;
                  if (rs[n].migration)
                      ++shed_during_mig;
              } else {
                  st.tier = degrade.enabled()
                      ? degrade.tierFor(verdict) : 0;
                  st.keptSamples = st.tier == 0
                      ? rq.query.samples
                      : degrade.degradedSamples(rq.query.samples,
                                                st.tier);
                  nodes[n].enqueue(e.query);
                  tryDispatch(n, e.time);
              }
              if (++epoch_arrivals == cfg.epochQueries) {
                  closeEpoch(e.time);
                  for (std::uint32_t m = 0; m < N; ++m)
                      maybeReplan(m, e.time);
              }
              break;
          }

          case EventKind::Completion: {
              nodes[e.node].completeRunning();
              const double latency = e.time -
                  trace.queries[e.query].query.arrival;
              latencies.push_back(latency);
              last_finish = std::max(last_finish, e.time);
              epoch_window.push(latency);
              ++epoch_served;
              epoch_good += latency <= cfg.slaSeconds;
              tryDispatch(e.node, e.time);
              maybeStartStep(e.node, e.time);
              break;
          }

          case EventKind::MigrationFinish: {
              NodeReplan &nr = rs[e.node];
              panic_if(!nr.stepInFlight || !nr.migration,
                       "migration step finished on node ", e.node,
                       " with no step in flight");
              nr.migration->commitFront();
              nr.stepInFlight = false;
              nr.nextStepOk = e.time +
                  nr.migration->minStepGapSeconds();
              if (nr.migration->done()) {
                  r.migrationSteps += nr.migration->totalSteps();
                  r.migratedRows += nr.migration->rowsPinned() +
                      nr.migration->rowsUnpinned();
                  plans[e.node] = std::move(nr.target);
                  index = LocalityIndex(planPtrs());
                  nr.migration.reset();
                  nr.detector.rebaseline();
                  nr.profiler.decay();
                  ++r.replansCompleted;
              }
              tryDispatch(e.node, e.time);
              maybeStartStep(e.node, e.time);
              break;
          }

          case EventKind::MigrationKick: {
              maybeStartStep(e.node, e.time);
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
    for (std::uint32_t n = 0; n < N; ++n)
        panic_if(rs[n].migration != nullptr, "node ", n,
                 " finished with an unfinished migration");
    if (epoch_arrivals || epoch_served || epoch_shed)
        closeEpoch(last_finish);

    const std::uint64_t served = latencies.size();
    r.servedQueries = served;
    r.shedQueries = shed;
    r.shedDuringMigration = shed_during_mig;

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

    r.hbmAccesses = hbm;
    r.uvmAccesses = uvm;
    r.cacheHits = cache_hits;
    const std::uint64_t accesses = hbm + uvm + cache_hits;
    r.uvmAccessFraction = accesses
        ? static_cast<double>(uvm) / static_cast<double>(accesses)
        : 0.0;

    r.durationSeconds = last_finish - first_arrival;
    if (r.durationSeconds > 0.0) {
        r.qps = static_cast<double>(served) / r.durationSeconds;
        r.goodput = static_cast<double>(r.goodQueries) /
            r.durationSeconds;
    }
    (void)total_service;
    return r;
}

} // namespace recshard
