/**
 * @file
 * Materialized per-query traffic trace for the routing tier.
 *
 * The single-node serving path batches queries *before* execution,
 * so its trace is batch-granular; the router makes a placement
 * decision per query, so its trace is query-granular: every query
 * carries its own per-feature embedding lookups, materialized once
 * from the seeded dataset. All routing policies (and both hedging
 * settings) are evaluated against the *same* RoutedTrace object, so
 * measured differences are attributable to the routing decision
 * alone — the routing-tier analogue of serveTrafficComparison()'s
 * shared-trace discipline.
 */

#ifndef RECSHARD_ROUTING_TRACE_HH
#define RECSHARD_ROUTING_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/serving/load_generator.hh"
#include "recshard/serving/scheduler.hh"

namespace recshard {

/** One query plus everything needed to execute it on any node. */
struct RoutedQuery
{
    Query query;
    /** lookups[j]: row ids feature j reads for this query. */
    std::vector<std::vector<std::uint64_t>> lookups;
    /**
     * sampleOffsets[j]: CSR candidate boundaries into lookups[j]
     * (query.samples + 1 entries) — candidate s of feature j owns
     * lookups[j][sampleOffsets[j][s] .. sampleOffsets[j][s+1]).
     * Preserved from the dataset's FeatureBatch layout so
     * degraded-mode serving (overload/degradation.hh) can trim a
     * query to its first `kept` ranking candidates at exact
     * candidate boundaries.
     */
    std::vector<std::vector<std::uint32_t>> sampleOffsets;
    /** Total row reads across features (locality denominator). */
    std::uint64_t totalLookups = 0;

    /** The query wrapped as a singleton micro-batch dispatched at
     *  virtual time `ready` (used by ServingNode::dispatchNext). */
    MicroBatch asBatch(double ready) const
    {
        MicroBatch b;
        b.id = query.id;
        b.closeTime = ready;
        b.queries = {query};
        return b;
    }

    /**
     * The query degraded to its first `kept` candidates, wrapped as
     * a singleton micro-batch: identical to asBatch() except the
     * carried query's sample count is the kept count, so downstream
     * accounting sees the degraded size.
     */
    MicroBatch asDegradedBatch(double ready,
                               std::uint32_t kept) const;

    /**
     * Per-feature lookup counts of the first `kept` candidates —
     * the CSR prefix lengths a degraded dispatch limits execution
     * to (ShardServer reads `lookups[j][0 .. out[j])` in place;
     * nothing is copied on the dispatch path). `kept` must be in
     * [1, query.samples]; `out` is overwritten.
     */
    void degradedPrefix(std::uint32_t kept,
                        std::vector<std::uint32_t> &out) const;
};

/** A shared, immutable arrival stream with materialized lookups. */
struct RoutedTrace
{
    std::vector<RoutedQuery> queries; //!< by query id, in arrival
                                      //!< order
};

/**
 * Generate `num_queries` arrivals under `load` and materialize each
 * query's embedding lookups from the dataset at its current month.
 * Query ids are dense [0, num_queries) in arrival order. Lookups are
 * generated on up to parallelWorkers() threads (base/parallel.hh);
 * the trace does not depend on the worker count, and every lookup
 * list is stored at exact size (capacity == size).
 */
RoutedTrace materializeRoutedTrace(const SyntheticDataset &data,
                                   const LoadConfig &load,
                                   std::uint64_t num_queries);

/** How a drifting trace sweeps the dataset's synthetic months. */
struct DriftTraceSchedule
{
    /** Month of the first query (0 = the planning-time month). */
    std::uint32_t startMonth = 0;
    /** Months spanned by the trace: query i is drawn at month
     *  startMonth + i * months / num_queries, so popularity (under
     *  a nonzero DriftModel::hotChurnPerMonth) churns gradually
     *  across the stream. Must be >= 1. */
    std::uint32_t months = 12;
};

/**
 * Like materializeRoutedTrace(), but the synthetic month advances
 * across the stream per `schedule` — the drift model the replan
 * bench and bench_fig09_drift --emit-trace share. One continuous
 * LoadGenerator produces the arrivals, so the arrival process is
 * identical to the static trace's; only the lookups drift. Each
 * query's month is passed to the dataset explicitly, so the
 * dataset's own month is never touched.
 */
RoutedTrace materializeDriftingRoutedTrace(
    const SyntheticDataset &data, const LoadConfig &load,
    std::uint64_t num_queries, const DriftTraceSchedule &schedule);

/**
 * Serialize a trace in the Router's binary trace format ("RSRT1"):
 * a host-endian snapshot for handing the *same* drifting stream
 * from one tool to another on one machine (bench_fig09_drift
 * --emit-trace -> bench_replan_drift / tests). Not an interchange
 * format: no endianness or word-size translation is attempted.
 */
void writeRoutedTrace(std::ostream &out, const RoutedTrace &trace);

/**
 * Read a trace written by writeRoutedTrace(). fatal() on a bad
 * magic, truncation, query ids that are not dense [0, Q) in
 * arrival order, CSR offsets that do not start at 0, decrease, or
 * end off the lookup count, and a totalLookups that is not the sum
 * of the query's lookup lists.
 */
RoutedTrace readRoutedTrace(std::istream &in);

} // namespace recshard

#endif // RECSHARD_ROUTING_TRACE_HH
