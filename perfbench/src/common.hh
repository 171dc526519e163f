/**
 * @file
 * Shared pieces of the repository benchmark: command-line options,
 * the span tracer of the traced run, the metric/check report every
 * workload fills, and small statistics helpers.
 *
 * The benchmark drives the recshard library only through its public
 * headers; nothing under src/ is instrumented. Spans are recorded
 * here, around each call into a layer, kept in memory, and written
 * once at exit.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** What one benchmark invocation runs. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    /** Wall-clock budget of the measured phase. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Directory for span dumps and the per-seed determinism record. */
    std::string stateDir;
};

/** One traced interval; parent is an index into the span list or -1. */
struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the tracer was created
    double end = 0.0;
    std::int64_t parent = -1;
};

/**
 * In-memory span recorder. Disabled tracers record nothing, so the
 * untraced run pays one branch per scope.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return on; }

    /** Open a span under the innermost open one; -1 when disabled. */
    std::int64_t open(const std::string &name);
    void close(std::int64_t id);

    /** Summed duration of every span with this name. */
    double total(const std::string &name) const;

    /** JSON array of {name, start, end, parent}. */
    void write(std::ostream &out) const;

  private:
    bool on;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<std::int64_t> stack;
};

/** RAII span. */
class Scope
{
  public:
    Scope(Tracer &tracer, const std::string &name)
        : t(tracer), id(tracer.open(name))
    {
    }
    ~Scope() { t.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t;
    std::int64_t id;
};

/** Metrics and output checks of one run. */
struct Report
{
    /** Operations the run attempted (queries, replayed iterations). */
    std::uint64_t attempted = 0;
    /** Attempted operations that failed or were refused. */
    std::uint64_t failed = 0;
    /** Failed output checks, for humans (stderr). */
    std::vector<std::string> errors;
    /** Measured metrics by name; units live with the metric lists
     *  in main.cc. */
    std::map<std::string, double> metrics;
    /**
     * Modeled values that must be bit-identical on every run of one
     * seed; compared against the record of earlier runs.
     */
    std::map<std::string, double> modeled;

    void metric(const std::string &name, double value)
    {
        metrics[name] = value;
    }

    /** Record a check; a failure marks `units` operations failed. */
    void check(bool ok, const std::string &what, std::uint64_t units);
};

/** Median of a non-empty sample. */
double median(std::vector<double> values);
/** Linear-interpolated quantile q in [0,1] of a non-empty sample. */
double quantile(std::vector<double> values, double q);
/** Peak resident set size of this process, MB. */
double peakRssMb();

void runOfflineRm3(const Options &opts, Tracer &tracer, Report &report);
void runServeThreads(const Options &opts, Tracer &tracer,
                     Report &report);
void runServeDrift(const Options &opts, Tracer &tracer, Report &report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
