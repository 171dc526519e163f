#include "recshard/serving/shard_server.hh"

#include <algorithm>
#include <thread>

#include "recshard/base/logging.hh"

namespace recshard {

ShardServer::ShardServer(std::uint32_t gpu, const ModelSpec &model_,
                         const ShardingPlan &plan,
                         const std::vector<TierResolver> &resolvers_,
                         const EmbCostModel &cost_,
                         ShardServerConfig config)
    : gpuV(gpu), model(model_), resolvers(resolvers_),
      cost(cost_), cfg(config),
      admission(config.cacheRows
                    ? makeCacheAdmission(config.admission,
                                         config.cacheRows)
                    : nullptr),
      lru(config.cacheRows, admission.get()),
      tierTotals(cost_.numTiers(), 0)
{
    fatal_if(resolvers.size() != plan.tables.size(),
             "plan has ", plan.tables.size(), " tables but ",
             resolvers.size(), " resolvers");
    for (std::uint32_t j = 0; j < plan.tables.size(); ++j)
        if (plan.tables[j].gpu == gpuV)
            features.push_back(j);
}

BatchExecution
ShardServer::execute(const MicroBatch &batch,
                     const LookupBlock &lookups, std::uint32_t kept)
{
    panic_if(lookups.numFeatures() != model.features.size(),
             "batch carries lookups of ", lookups.numFeatures(),
             " features for ", model.features.size());
    panic_if(kept > lookups.samples, "batch serves ", kept,
             " of its ", lookups.samples, " candidates");
    BatchExecution exec;
    exec.batchId = batch.id;
    exec.readyTime = batch.closeTime;

    const std::size_t T = cost.numTiers();
    if (T <= 2) {
        // The paper's two-tier path, kept bit-identical: the DES /
        // realtime differential tests assert byte-equal ledgers.
        std::uint64_t hbm_bytes = 0;
        std::uint64_t uvm_bytes = 0;
        for (const std::uint32_t j : features) {
            const TierResolver &res = resolvers[j];
            const std::uint64_t row_bytes =
                model.features[j].rowBytes();
            std::uint64_t fast = 0; // HBM-speed: pins + cache hits
            std::uint64_t slow = 0;
            const std::uint32_t *rows = lookups.featureRows(j);
            const std::uint32_t end = lookups.prefixEnd(j, kept);
            for (std::uint32_t i = 0; i < end; ++i) {
                const std::uint64_t idx = rows[i];
                if (res.inHbm(idx)) {
                    ++fast;
                    ++exec.hbmAccesses;
                } else if (lru.touch(LruRowCache::rowKey(j, idx))) {
                    ++fast;
                    ++exec.cacheHits;
                } else {
                    ++slow;
                    ++exec.uvmAccesses;
                }
            }
            hbm_bytes += fast * row_bytes;
            uvm_bytes += slow * row_bytes;
            tierTotals[0] += fast;
            tierTotals[1] += slow;
        }
        exec.serviceSeconds = cost.time(hbm_bytes, uvm_bytes) +
            cfg.batchOverheadSeconds;
    } else {
        // N-tier pricing: each lookup is charged to the tier its
        // resolver pins it to; the LRU absorbs cold misses at HBM
        // speed exactly as in the two-tier path. A near-data tier
        // ships one reduced vector per pooled bag instead of every
        // row (RecSSD/RecNMP in-situ pooling).
        std::vector<std::uint64_t> tier_bytes(T, 0);
        std::vector<std::uint64_t> counts(T, 0);
        for (const std::uint32_t j : features) {
            const TierResolver &res = resolvers[j];
            const std::uint64_t row_bytes =
                model.features[j].rowBytes();
            std::fill(counts.begin(), counts.end(), 0);
            const std::uint32_t *rows = lookups.featureRows(j);
            const std::uint32_t end = lookups.prefixEnd(j, kept);
            for (std::uint32_t i = 0; i < end; ++i) {
                const std::uint64_t idx = rows[i];
                const std::uint8_t tier = res.tierOf(idx);
                panic_if(tier >= T, "EMB ", j, " row ", idx,
                         " resolves to tier ",
                         static_cast<unsigned>(tier), " but the "
                         "system has ", T);
                if (tier == 0) {
                    ++counts[0];
                    ++exec.hbmAccesses;
                } else if (lru.touch(LruRowCache::rowKey(j, idx))) {
                    ++counts[0];
                    ++exec.cacheHits;
                } else {
                    ++counts[tier];
                    ++exec.uvmAccesses;
                }
            }
            tier_bytes[0] += counts[0] * row_bytes;
            for (std::size_t t = 1; t < T; ++t) {
                const std::uint64_t moved = cost.tierNearData(t)
                    ? std::min<std::uint64_t>(counts[t],
                                              batch.totalSamples())
                    : counts[t];
                tier_bytes[t] += moved * row_bytes;
            }
            for (std::size_t t = 0; t < T; ++t)
                tierTotals[t] += counts[t];
        }
        exec.serviceSeconds = cost.timeTiered(tier_bytes) +
            cfg.batchOverheadSeconds;
    }
    exec.startTime = std::max(exec.readyTime, freeTime);
    exec.finishTime = exec.startTime + exec.serviceSeconds;
    freeTime = exec.finishTime;
    busy += exec.serviceSeconds;
    return exec;
}

ShardServerPool::ShardServerPool(
    const ModelSpec &model, const ShardingPlan &plan,
    const std::vector<TierResolver> &resolvers,
    const SystemSpec &system, ShardServerConfig config)
    : cost(system)
{
    plan.validate(model, system);
    fleet.reserve(system.numGpus);
    for (std::uint32_t m = 0; m < system.numGpus; ++m)
        fleet.emplace_back(m, model, plan, resolvers, cost, config);
}

BatchCompletion
ShardServerPool::executeOne(const MicroBatch &batch,
                            const LookupBlock &lookups,
                            std::uint32_t kept)
{
    BatchCompletion c;
    c.batchId = batch.id;
    for (ShardServer &server : fleet) {
        const BatchExecution e = server.execute(batch, lookups, kept);
        c.finishTime = std::max(c.finishTime, e.finishTime);
        c.hbmAccesses += e.hbmAccesses;
        c.uvmAccesses += e.uvmAccesses;
        c.cacheHits += e.cacheHits;
    }
    return c;
}

double
ShardServerPool::busySeconds() const
{
    double busy = 0.0;
    for (const ShardServer &server : fleet)
        busy += server.busySeconds();
    return busy;
}

std::vector<BatchCompletion>
ShardServerPool::run(const ServingTrace &trace)
{
    const std::vector<MicroBatch> &batches = trace.batches;
    fatal_if(trace.lookups.size() != batches.size(),
             "trace has ", trace.lookups.size(),
             " lookup sets for ", batches.size(), " batches");
    const std::size_t M = fleet.size();
    // Per-GPU execution records, indexed [gpu][batch position].
    std::vector<std::vector<BatchExecution>> execs(M);
    std::vector<WorkQueue<std::size_t>> queues(M);

    std::vector<std::thread> threads;
    threads.reserve(M);
    for (std::size_t m = 0; m < M; ++m) {
        execs[m].reserve(batches.size());
        threads.emplace_back([this, m, &execs, &queues, &trace] {
            std::size_t b = 0;
            while (queues[m].pop(b))
                execs[m].push_back(fleet[m].execute(
                    trace.batches[b], trace.lookups[b],
                    trace.lookups[b].samples));
        });
    }

    // Dispatch every sealed batch to every shard (model-parallel
    // inference touches all GPUs), then drain.
    for (std::size_t b = 0; b < batches.size(); ++b)
        for (auto &queue : queues)
            queue.push(b);
    for (auto &queue : queues)
        queue.close();
    for (auto &thread : threads)
        thread.join();

    std::vector<BatchCompletion> out(batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
        BatchCompletion &c = out[b];
        c.batchId = batches[b].id;
        for (std::size_t m = 0; m < M; ++m) {
            const BatchExecution &e = execs[m][b];
            panic_if(e.batchId != c.batchId,
                     "server ", m, " processed batches out of order");
            c.finishTime = std::max(c.finishTime, e.finishTime);
            c.hbmAccesses += e.hbmAccesses;
            c.uvmAccesses += e.uvmAccesses;
            c.cacheHits += e.cacheHits;
        }
    }
    return out;
}

} // namespace recshard
