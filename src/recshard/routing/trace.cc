#include "recshard/routing/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>

#include "recshard/base/logging.hh"
#include "recshard/base/parallel.hh"

namespace recshard {

MicroBatch
RoutedQuery::asDegradedBatch(double ready, std::uint32_t kept) const
{
    fatal_if(kept == 0 || kept > query.samples,
             "query ", query.id, " offers ", query.samples,
             " candidates; cannot keep ", kept);
    MicroBatch b = asBatch(ready);
    b.queries.front().samples = kept;
    return b;
}

void
RoutedQuery::degradedPrefix(std::uint32_t kept,
                            std::vector<std::uint32_t> &out) const
{
    fatal_if(kept == 0 || kept > query.samples,
             "query ", query.id, " offers ", query.samples,
             " candidates; cannot keep ", kept);
    fatal_if(sampleOffsets.size() != lookups.size(),
             "query ", query.id, " has ", sampleOffsets.size(),
             " offset lists for ", lookups.size(), " features");
    out.resize(lookups.size());
    for (std::size_t j = 0; j < lookups.size(); ++j)
        out[j] = sampleOffsets[j][kept];
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
 * the trace is identical for every worker count. Lookup lists are
 * stored at exact size (copied out of a per-worker scratch batch).
 */
template <typename MonthOf>
RoutedTrace
materialize(const SyntheticDataset &data, const LoadConfig &load,
            std::uint64_t num_queries, MonthOf month_of)
{
    fatal_if(num_queries == 0, "need at least one query to route");
    LoadGenerator generator(load);
    RoutedTrace trace;
    trace.queries.resize(num_queries);
    for (std::uint64_t i = 0; i < num_queries; ++i) {
        trace.queries[i].query = generator.next();
        trace.queries[i].query.id = i; // dense ids in arrival order
    }

    const std::uint32_t J = data.spec().numFeatures();
    const std::uint64_t chunks =
        (num_queries + kQueriesPerChunk - 1) / kQueriesPerChunk;
    std::vector<FeatureBatch> scratch(parallelWorkers(chunks));
    parallelFor(chunks, [&](unsigned worker, std::size_t chunk) {
        FeatureBatch &fb = scratch[worker];
        const std::uint64_t end = std::min<std::uint64_t>(
            num_queries, (chunk + 1) * kQueriesPerChunk);
        for (std::uint64_t i = chunk * kQueriesPerChunk; i < end; ++i) {
            RoutedQuery &rq = trace.queries[i];
            rq.lookups.reserve(J);
            rq.sampleOffsets.reserve(J);
            for (std::uint32_t j = 0; j < J; ++j) {
                data.featureBatch(fb, j, rq.query.samples,
                                  rq.query.batchIndex, month_of(i));
                rq.totalLookups += fb.indices.size();
                rq.lookups.emplace_back(fb.indices.begin(),
                                        fb.indices.end());
                rq.sampleOffsets.emplace_back(fb.offsets.begin(),
                                              fb.offsets.end());
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

template <typename T>
void
writeVec(std::ostream &out, const std::vector<T> &v)
{
    writePod(out, static_cast<std::uint64_t>(v.size()));
    if (!v.empty())
        out.write(reinterpret_cast<const char *>(v.data()),
                  static_cast<std::streamsize>(
                      v.size() * sizeof(T)));
}

template <typename T>
std::vector<T>
readVec(std::istream &in)
{
    const auto n = readPod<std::uint64_t>(in);
    std::vector<T> v(n);
    if (n) {
        in.read(reinterpret_cast<char *>(v.data()),
                static_cast<std::streamsize>(n * sizeof(T)));
        fatal_if(!in, "truncated routed-trace stream");
    }
    return v;
}

} // namespace

void
writeRoutedTrace(std::ostream &out, const RoutedTrace &trace)
{
    out.write(kTraceMagic, sizeof(kTraceMagic));
    writePod(out, static_cast<std::uint64_t>(trace.queries.size()));
    for (const RoutedQuery &rq : trace.queries) {
        writePod(out, rq.query.id);
        writePod(out, rq.query.arrival);
        writePod(out, rq.query.samples);
        writePod(out, rq.query.batchIndex);
        writePod(out, rq.totalLookups);
        writePod(out,
                 static_cast<std::uint64_t>(rq.lookups.size()));
        for (std::size_t j = 0; j < rq.lookups.size(); ++j) {
            writeVec(out, rq.lookups[j]);
            writeVec(out, rq.sampleOffsets[j]);
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
    trace.queries.resize(Q);
    for (std::uint64_t i = 0; i < Q; ++i) {
        RoutedQuery &rq = trace.queries[i];
        rq.query.id = readPod<std::uint64_t>(in);
        fatal_if(rq.query.id != i, "routed-trace query ", i,
                 " has id ", rq.query.id,
                 "; ids must be dense in arrival order");
        rq.query.arrival = readPod<double>(in);
        rq.query.samples = readPod<std::uint32_t>(in);
        rq.query.batchIndex = readPod<std::uint64_t>(in);
        rq.totalLookups = readPod<std::uint64_t>(in);
        const auto J = readPod<std::uint64_t>(in);
        rq.lookups.resize(J);
        rq.sampleOffsets.resize(J);
        std::uint64_t lookups = 0;
        for (std::uint64_t j = 0; j < J; ++j) {
            rq.lookups[j] = readVec<std::uint64_t>(in);
            rq.sampleOffsets[j] = readVec<std::uint32_t>(in);
            const std::vector<std::uint32_t> &off = rq.sampleOffsets[j];
            fatal_if(off.size() != rq.query.samples + 1ull ||
                         off.front() != 0 ||
                         !std::is_sorted(off.begin(), off.end()) ||
                         off.back() != rq.lookups[j].size(),
                     "routed-trace query ", i, " feature ", j,
                     " has inconsistent CSR geometry");
            lookups += rq.lookups[j].size();
        }
        fatal_if(rq.totalLookups != lookups, "routed-trace query ", i,
                 " claims ", rq.totalLookups, " lookups but carries ",
                 lookups);
    }
    return trace;
}

} // namespace recshard
