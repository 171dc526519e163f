/**
 * @file
 * Repository benchmark entry point.
 *
 *   perfbench --workload <offline-rm3|serve-threads|serve-drift>
 *             --seed <n> --seconds <s> --trace <0|1> --state-dir <dir>
 *
 * Prints, as the last line of stdout, one JSON object
 * {"correct", "attempted", "failed", "metrics"}: every end-to-end
 * metric with --trace 0, every per-layer metric with --trace 1.
 * Progress and failed checks go to stderr. The traced run also
 * writes its spans to <state-dir>/spans-<workload>-<seed>.json.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "common.hh"

namespace perfbench {
namespace {

/** End-to-end metrics every untraced run reports, with units. */
const std::map<std::string, std::string> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"bottleneck_ms", "ms"},
    {"gpu_imbalance", "ratio"},
    {"uvm_access_frac", "fraction"},
    {"goodput_qps", "1/s"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"served_lookup_frac", "fraction"},
    {"served_frac", "fraction"},
};

/**
 * Per-layer metrics every traced run reports. A workload leaves the
 * layers it never calls unset; they are reported as 0 (no work).
 */
const std::map<std::string, std::string> kPerLayer = {
    {"datagen.profile_gen_s", "s"},
    {"datagen.samples", "count"},
    {"profiler.accumulate_s", "s"},
    {"profiler.lookups", "count"},
    {"profiler.self_check", "bool"},
    {"dist.cdf_build_s", "s"},
    {"dist.touched_rows", "count"},
    {"sharding.solve_s", "s"},
    {"sharding.constructive_s", "s"},
    {"sharding.local_search_s", "s"},
    {"sharding.moves", "count"},
    {"sharding.swaps", "count"},
    {"remap.build_s", "s"},
    {"planner.est_over_replay", "ratio"},
    {"planner.est_bottleneck_ms", "ms"},
    {"planner.replay_bottleneck_ms", "ms"},
    {"datagen.replay_gen_s", "s"},
    {"engine.replay_s", "s"},
    {"engine.hbm_accesses_per_gpu_iter", "count"},
    {"engine.uvm_accesses_per_gpu_iter", "count"},
    {"datagen.trace_s", "s"},
    {"routing.cluster_build_s", "s"},
    {"routing.des_s", "s"},
    {"routing.realtime_s", "s"},
    {"routing.lookups", "count"},
    {"routing.lookups_per_s", "1/s"},
    {"routing.max_node_outstanding", "count"},
    {"routing.wall_p50_ms", "ms"},
    {"serving.cache_hit_frac", "fraction"},
    {"serving.uvm_access_frac", "fraction"},
    {"serving.lookups", "count"},
    {"datagen.drift_trace_s", "s"},
    {"replan.serve_s", "s"},
    {"replan.queries_per_s", "1/s"},
    {"replan.sketch_observe_s", "s"},
    {"replan.sketch_export_s", "s"},
    {"replan.assessments", "count"},
    {"replan.replans_completed", "count"},
    {"replan.migration_steps", "count"},
    {"replan.replan_yield", "ratio"},
    {"overload.offered", "count"},
    {"overload.shed", "count"},
    {"overload.trimmed_lookups", "count"},
    {"trace.traced_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
};

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "perfbench: " << msg
              << "\nusage: perfbench --workload <offline-rm3|"
                 "serve-threads|serve-drift> --seed <n> --seconds <s> "
                 "--trace <0|1> --state-dir <dir>\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = value;
        } else if (key == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end && *end == '\0';
        } else if (key == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (!end || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (key == "--state-dir") {
            o.stateDir = value;
        } else {
            usage(("unknown flag " + key).c_str());
        }
    }
    if (!have_seed)
        usage("--seed <non-negative integer> is required");
    if (o.stateDir.empty())
        usage("--state-dir is required");
    return o;
}

std::string
hexDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/**
 * Compare this run's modeled values with the first run of the same
 * (workload, seed) in this checkout, recording them if none exists.
 * Any difference is a determinism bug and fails the run.
 */
void
checkDeterminism(const Options &opts, Report &report)
{
    const std::string path = opts.stateDir + "/determinism-" +
        opts.workload + "-" + std::to_string(opts.seed) + ".txt";
    std::ifstream in(path);
    if (!in) {
        std::ofstream out(path);
        for (const auto &[name, value] : report.modeled)
            out << name << " " << hexDouble(value) << "\n";
        return;
    }
    std::map<std::string, std::string> recorded;
    std::string name, value;
    while (in >> name >> value)
        recorded[name] = value;
    for (const auto &[key, v] : report.modeled) {
        const auto it = recorded.find(key);
        const std::string now = hexDouble(v);
        report.check(it != recorded.end() && it->second == now,
                     "modeled " + key + " = " + now +
                         " differs from the recorded " +
                         (it == recorded.end() ? "(none)"
                                               : it->second),
                     report.attempted);
    }
}

void
printResult(const Options &opts, Report &report)
{
    const auto &expected = opts.trace ? kPerLayer : kEndToEnd;
    for (const auto &[name, unit] : expected)
        if (report.metrics.count(name) == 0) {
            report.check(opts.trace || !report.errors.empty(),
                         "metric " + name + " was not measured",
                         report.attempted);
            report.metrics[name] = 0.0;
        }
    for (const auto &[name, value] : report.metrics)
        report.check(expected.count(name) == 1 && std::isfinite(value),
                     "metric " + name + " is unexpected or not finite",
                     report.attempted);
    for (const std::string &e : report.errors)
        std::cerr << "perfbench: CHECK FAILED: " << e << "\n";

    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (report.errors.empty() ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": "
       << std::min(report.failed, report.attempted)
       << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[name, unit] : expected) {
        const double v = report.metrics[name];
        os << sep << "\"" << name << "\": {\"value\": "
           << (std::isfinite(v) ? v : -1.0) << ", \"unit\": \"" << unit
           << "\"}";
        sep = ", ";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opts = parseArgs(argc, argv);
    Tracer tracer(opts.trace);
    Report report;
    if (opts.workload == "offline-rm3")
        runOfflineRm3(opts, tracer, report);
    else if (opts.workload == "serve-threads")
        runServeThreads(opts, tracer, report);
    else if (opts.workload == "serve-drift")
        runServeDrift(opts, tracer, report);
    else
        usage(("unknown workload '" + opts.workload + "'").c_str());

    if (report.attempted == 0) {
        report.attempted = 1;
        report.check(false, "the run attempted nothing", 1);
    }
    checkDeterminism(opts, report);
    if (opts.trace) {
        std::ofstream spans(opts.stateDir + "/spans-" + opts.workload +
                            "-" + std::to_string(opts.seed) + ".json");
        tracer.write(spans);
    } else {
        const auto failed = std::min(report.failed, report.attempted);
        report.metric("served_frac",
                      1.0 - static_cast<double>(failed) /
                          static_cast<double>(report.attempted));
    }
    printResult(opts, report);
    return 0;
}
