#include "recshard/routing/trace.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

MicroBatch
RoutedQuery::asBatch(double ready, std::uint32_t kept) const
{
    fatal_if(kept == 0 || kept > query.samples,
             "query ", query.id, " offers ", query.samples,
             " candidates; cannot keep ", kept);
    MicroBatch b;
    b.id = query.id;
    b.closeTime = ready;
    b.queries = {query};
    b.queries.front().samples = kept;
    return b;
}

namespace {

/** Queries per parallel work item: enough that claiming an item
 *  costs nothing, few enough that a 20 000-query trace splits into
 *  ~150 items for the workers to balance. */
constexpr std::uint64_t kQueriesPerChunk = 128;

/**
 * Draw `num_queries` arrivals from one LoadGenerator, in order, then
 * materialize every query's lookups at synthetic month month_of(i).
 * Each query's lookups are a pure function of (seed, feature, month,
 * batch index), so chunks of queries are generated in parallel and
 * the trace is identical for every worker count. The features' Zipf
 * tables are built once per call and shared read-only by the workers.
 * Each worker draws a query's features into its own scratch batches
 * first, so the query's block is allocated once at exact size and the
 * rows are narrowed into it in one pass.
 */
template <typename MonthOf>
RoutedTrace
materialize(const SyntheticDataset &data, const LoadConfig &load,
            std::uint64_t num_queries, MonthOf month_of)
{
    fatal_if(num_queries == 0, "need at least one query to route");
    requireCompactRows(data.spec());
    LoadGenerator generator(load);
    RoutedTrace trace;
    trace.queries.resize(num_queries);
    for (std::uint64_t i = 0; i < num_queries; ++i) {
        trace.queries[i].query = generator.next();
        trace.queries[i].query.id = i; // dense ids in arrival order
    }

    const std::uint32_t J = data.spec().numFeatures();
    const std::vector<ZipfTable> zipf = data.zipfTables();
    const std::uint64_t chunks =
        (num_queries + kQueriesPerChunk - 1) / kQueriesPerChunk;
    std::vector<std::vector<FeatureBatch>> scratch(
        parallelWorkers(chunks), std::vector<FeatureBatch>(J));
    parallelFor(chunks, [&](unsigned worker, std::size_t chunk) {
        std::vector<FeatureBatch> &fbs = scratch[worker];
        const std::uint64_t end = std::min<std::uint64_t>(
            num_queries, (chunk + 1) * kQueriesPerChunk);
        for (std::uint64_t i = chunk * kQueriesPerChunk; i < end; ++i) {
            RoutedQuery &rq = trace.queries[i];
            for (std::uint32_t j = 0; j < J; ++j) {
                data.featureBatch(fbs[j], zipf[j], j, rq.query.samples,
                                  rq.query.batchIndex, month_of(i));
                rq.totalLookups += fbs[j].indices.size();
            }
            rq.lookups.reset(rq.query.samples, J, rq.totalLookups);
            for (const FeatureBatch &fb : fbs) {
                rq.lookups.addFeature();
                rq.lookups.appendSamples(fb);
            }
        }
    });
    return trace;
}

} // namespace

RoutedTrace
materializeRoutedTrace(const SyntheticDataset &data,
                       const LoadConfig &load,
                       std::uint64_t num_queries)
{
    const std::uint32_t month = data.month();
    return materialize(data, load, num_queries,
                       [month](std::uint64_t) { return month; });
}

RoutedTrace
materializeDriftingRoutedTrace(const SyntheticDataset &data,
                               const LoadConfig &load,
                               std::uint64_t num_queries,
                               const DriftTraceSchedule &schedule)
{
    fatal_if(schedule.months == 0,
             "a drifting trace must span >= 1 month");
    return materialize(
        data, load, num_queries, [&](std::uint64_t i) {
            return schedule.startMonth +
                static_cast<std::uint32_t>(i * schedule.months /
                                           num_queries);
        });
}

namespace {

constexpr char kTraceMagic[5] = {'R', 'S', 'R', 'T', '1'};

template <typename T>
void
writePod(std::ostream &out, const T &value)
{
    out.write(reinterpret_cast<const char *>(&value),
              sizeof(value));
}

template <typename T>
T
readPod(std::istream &in)
{
    T value{};
    in.read(reinterpret_cast<char *>(&value), sizeof(value));
    fatal_if(!in, "truncated routed-trace stream");
    return value;
}

/** Values per chunk when streaming arrays: bounds the stack
 *  buffer, and how far a corrupt length can run ahead of the data. */
constexpr std::uint64_t kChunk = 4096;

/**
 * Read `n` values of type T in chunks of kChunk, passing each to
 * `sink`: nothing is sized from `n` up front, so a corrupt length
 * hits the end of the stream before it can allocate much.
 */
template <typename T, typename Sink>
void
readArray(std::istream &in, std::uint64_t n, Sink sink)
{
    T buf[kChunk];
    while (n > 0) {
        const std::uint64_t c = std::min(n, kChunk);
        in.read(reinterpret_cast<char *>(buf),
                static_cast<std::streamsize>(c * sizeof(T)));
        fatal_if(!in, "truncated routed-trace stream");
        for (std::uint64_t k = 0; k < c; ++k)
            sink(buf[k]);
        n -= c;
    }
}

} // namespace

void
writeRoutedTrace(std::ostream &out, const RoutedTrace &trace)
{
    out.write(kTraceMagic, sizeof(kTraceMagic));
    writePod(out, static_cast<std::uint64_t>(trace.queries.size()));
    std::uint64_t wide[kChunk];
    for (const RoutedQuery &rq : trace.queries) {
        const LookupBlock &block = rq.lookups;
        writePod(out, rq.query.id);
        writePod(out, rq.query.arrival);
        writePod(out, rq.query.samples);
        writePod(out, rq.query.batchIndex);
        writePod(out, rq.totalLookups);
        writePod(out, static_cast<std::uint64_t>(block.numFeatures()));
        for (std::uint32_t j = 0; j < block.numFeatures(); ++j) {
            // Rows are stored as 64-bit ids, as RSRT1 always has.
            const std::uint32_t *rows = block.featureRows(j);
            const std::uint64_t n = block.featureLookups(j);
            writePod(out, n);
            for (std::uint64_t at = 0; at < n; at += kChunk) {
                const std::uint64_t c = std::min(n - at, kChunk);
                std::copy(rows + at, rows + at + c, wide);
                out.write(reinterpret_cast<const char *>(wide),
                          static_cast<std::streamsize>(
                              c * sizeof(std::uint64_t)));
            }
            const std::uint64_t m = std::uint64_t{block.samples} + 1;
            writePod(out, m);
            out.write(reinterpret_cast<const char *>(
                          block.featureOffsets(j)),
                      static_cast<std::streamsize>(
                          m * sizeof(std::uint32_t)));
        }
    }
    fatal_if(!out, "routed-trace write failed");
}

RoutedTrace
readRoutedTrace(std::istream &in)
{
    char magic[sizeof(kTraceMagic)];
    in.read(magic, sizeof(magic));
    fatal_if(!in ||
                 !std::equal(magic, magic + sizeof(magic),
                             kTraceMagic),
             "not a routed-trace stream (bad magic)");
    const auto Q = readPod<std::uint64_t>(in);
    RoutedTrace trace;
    trace.queries.reserve(std::min(Q, kChunk));
    for (std::uint64_t i = 0; i < Q; ++i) {
        RoutedQuery &rq = trace.queries.emplace_back();
        rq.query.id = readPod<std::uint64_t>(in);
        fatal_if(rq.query.id != i, "routed-trace query ", i,
                 " has id ", rq.query.id,
                 "; ids must be dense in arrival order");
        rq.query.arrival = readPod<double>(in);
        rq.query.samples = readPod<std::uint32_t>(in);
        rq.query.batchIndex = readPod<std::uint64_t>(in);
        rq.totalLookups = readPod<std::uint64_t>(in);
        const auto J = readPod<std::uint64_t>(in);
        LookupBlock &block = rq.lookups;
        block.samples = rq.query.samples;
        for (std::uint64_t j = 0; j < J; ++j) {
            const std::size_t first = block.rows.size();
            block.featureStart.push_back(
                static_cast<std::uint32_t>(first));
            const auto n = readPod<std::uint64_t>(in);
            fatal_if(n > std::numeric_limits<std::uint32_t>::max() -
                             first,
                     "routed-trace query ", i, " holds more than "
                     "2^32 - 1 lookups");
            readArray<std::uint64_t>(in, n, [&](std::uint64_t row) {
                fatal_if(row >= kMaxCompactRows, "routed-trace query ",
                         i, " feature ", j, " reads row ", row,
                         "; row ids must fit 32 bits");
                block.rows.push_back(static_cast<std::uint32_t>(row));
            });
            const std::size_t off_at = block.sampleOffsets.size();
            const auto m = readPod<std::uint64_t>(in);
            fatal_if(m != rq.query.samples + 1ull,
                     "routed-trace query ", i, " feature ", j,
                     " has inconsistent CSR geometry");
            readArray<std::uint32_t>(in, m, [&](std::uint32_t o) {
                block.sampleOffsets.push_back(o);
            });
            const auto off = block.sampleOffsets.begin() +
                static_cast<std::ptrdiff_t>(off_at);
            fatal_if(*off != 0 ||
                         !std::is_sorted(off,
                                         block.sampleOffsets.end()) ||
                         block.sampleOffsets.back() != n,
                     "routed-trace query ", i, " feature ", j,
                     " has inconsistent CSR geometry");
        }
        fatal_if(rq.totalLookups != block.rows.size(),
                 "routed-trace query ", i, " claims ",
                 rq.totalLookups, " lookups but carries ",
                 block.rows.size());
    }
    return trace;
}

} // namespace recshard
