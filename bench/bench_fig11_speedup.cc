/**
 * @file
 * Fig. 11 reproduction: EMB training-iteration speedup of each
 * sharding strategy, normalized to the slowest strategy per model
 * (training is bound by the slowest GPU, so the metric is the mean
 * bottleneck iteration time). "RecShard vs next-best" compares
 * against the best of the paper's three greedy baselines only; the
 * other registered planners (lp-rounding, anneal, recshard-tuned)
 * are RecShard variants, not baselines.
 */

#include <algorithm>
#include <iostream>

#include "recshard/base/table.hh"
#include "recshard/report/experiment.hh"
#include "recshard/sharding/baselines.hh"

using namespace recshard;

int
main(int argc, char **argv)
{
    FlagSet flags("bench_fig11_speedup");
    ExperimentConfig::addFlags(flags);
    flags.parse(argc, argv);
    const ExperimentConfig cfg = ExperimentConfig::fromFlags(flags);

    TextTable t({"Model", "Strategy", "Bottleneck iter (ms)",
                 "Speedup vs slowest", "RecShard vs next-best"});
    const double paper_gain[] = {2.58, 5.26, 7.41};
    const BaselineCost kBaselines[] = {BaselineCost::Size,
                                       BaselineCost::Lookup,
                                       BaselineCost::SizeLookup};
    int model_idx = 0;
    for (const char *name : {"rm1", "rm2", "rm3"}) {
        const ModelEvaluation eval = evaluateModel(cfg, name);
        double slowest = 0.0, best_baseline = 1e300;
        for (const auto &s : eval.strategies) {
            slowest = std::max(slowest, s.meanBottleneckTime);
            for (const BaselineCost b : kBaselines)
                if (s.name == baselineCostName(b))
                    best_baseline = std::min(best_baseline,
                                             s.meanBottleneckTime);
        }
        const double recshard =
            eval.byName("RecShard").meanBottleneckTime;
        for (const auto &s : eval.strategies) {
            const bool is_rs = s.name == "RecShard";
            t.addRow({eval.modelName, s.name,
                      fmtDouble(s.meanBottleneckTime * 1e3, 2),
                      fmtDouble(slowest / s.meanBottleneckTime, 2),
                      is_rs ? fmtDouble(best_baseline / recshard, 2)
                                  + "x (paper: " +
                                  fmtDouble(paper_gain[model_idx],
                                            2) + "x)"
                            : ""});
        }
        ++model_idx;
    }
    t.print(std::cout,
            "Fig. 11: EMB training speedup, 16 GPUs");
    return 0;
}
