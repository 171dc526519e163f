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
 *
 * Each query's lookups are one LookupBlock (serving/lookup_block.hh):
 * 4-byte row ids for every feature in one array, plus per-feature
 * starts and per-candidate offsets. Row ids must fit 32 bits, and
 * the limit is enforced at both ways in: materializeRoutedTrace()
 * and materializeDriftingRoutedTrace() fatal() before generating
 * anything if a table has more than 2^32 rows, and readRoutedTrace()
 * fatal()s on a stored row id >= 2^32.
 */

#ifndef RECSHARD_ROUTING_TRACE_HH
#define RECSHARD_ROUTING_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "recshard/datagen/dataset.hh"
#include "recshard/serving/load_generator.hh"
#include "recshard/serving/lookup_block.hh"
#include "recshard/serving/scheduler.hh"

namespace recshard {

/** One query plus everything needed to execute it on any node. */
struct RoutedQuery
{
    Query query;
    /**
     * Every row the query reads, per feature and per ranking
     * candidate (lookups.samples == query.samples), in one compact
     * 32-bit block (serving/lookup_block.hh). The per-candidate
     * offsets let degraded-mode serving (overload/degradation.hh)
     * execute only the first `kept` candidates, in place. The block
     * is the query's own, so a query is self-contained: the live
     * profiler (replan/sketch.hh) observes one with nothing else.
     */
    LookupBlock lookups;
    /** Total row reads across features (locality denominator). */
    std::uint64_t totalLookups = 0;

    /**
     * The query degraded to its first `kept` candidates (kept ==
     * query.samples serves it whole), wrapped as a singleton
     * micro-batch dispatched at virtual time `ready` (used by
     * ServingNode::dispatchNext): the carried query's sample count
     * is the kept count, so downstream accounting sees the served
     * size. `kept` must be in [1, query.samples].
     */
    MicroBatch asBatch(double ready, std::uint32_t kept) const;
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
 * block is stored at exact size (capacity == size). fatal() before
 * any generation if a table has more than kMaxCompactRows rows.
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
 * The format predates the 32-bit lookup blocks and is unchanged:
 * per feature, the row count, the rows as 64-bit ids, the offset
 * count and the samples + 1 candidate offsets (32-bit).
 */
void writeRoutedTrace(std::ostream &out, const RoutedTrace &trace);

/**
 * Read a trace written by writeRoutedTrace(). fatal() on a bad
 * magic, truncation, query ids that are not dense [0, Q) in
 * arrival order, a row id >= kMaxCompactRows, CSR offsets that do
 * not start at 0, decrease, or end off the lookup count, and a
 * totalLookups that is not the sum of the query's lookups. Memory
 * grows with the data actually read, so a corrupt length field
 * runs into the end of the stream instead of a huge allocation.
 */
RoutedTrace readRoutedTrace(std::istream &in);

} // namespace recshard

#endif // RECSHARD_ROUTING_TRACE_HH
