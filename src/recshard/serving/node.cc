#include "recshard/serving/node.hh"

#include <algorithm>

#include "recshard/base/logging.hh"

namespace recshard {

ServingNode::ServingNode(std::uint32_t id, const ModelSpec &model,
                         const ShardingPlan &plan,
                         const std::vector<TierResolver> &resolvers,
                         const SystemSpec &system,
                         const ShardServerConfig &config)
    : idV(id), planV(plan),
      poolV(model, plan, resolvers, system, config)
{
}

void
ServingNode::enqueue(std::uint64_t query_id)
{
    pending.push_back(query_id);
}

bool
ServingNode::cancelPending(std::uint64_t query_id)
{
    const auto it =
        std::find(pending.begin(), pending.end(), query_id);
    if (it == pending.end())
        return false;
    pending.erase(it);
    return true;
}

std::uint64_t
ServingNode::frontPending() const
{
    fatal_if(pending.empty(), "node ", idV, " has no pending query");
    return pending.front();
}

NodeDispatch
ServingNode::dispatchNext(double now, const MicroBatch &batch,
                          const LookupBlock &lookups,
                          std::uint32_t kept)
{
    fatal_if(running, "node ", idV,
             " asked to dispatch while query ", runningId,
             " is still running");
    fatal_if(pending.empty(), "node ", idV,
             " asked to dispatch with an empty queue");
    fatal_if(batch.id != pending.front(),
             "node ", idV, " dispatching query ", batch.id,
             " but head-of-line is ", pending.front());
    pending.pop_front();

    const BatchCompletion done =
        poolV.executeOne(batch, lookups, kept);
    NodeDispatch d;
    d.queryId = batch.id;
    d.startTime = now;
    d.finishTime = done.finishTime;
    d.serviceSeconds = done.finishTime - now;
    d.hbmAccesses = done.hbmAccesses;
    d.uvmAccesses = done.uvmAccesses;
    d.cacheHits = done.cacheHits;

    running = true;
    runningId = batch.id;
    ++dispatchedV;
    return d;
}

void
ServingNode::completeRunning()
{
    fatal_if(!running, "node ", idV,
             " completed with nothing running");
    running = false;
}

} // namespace recshard
