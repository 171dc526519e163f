#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iomanip>

namespace perfbench {

Tracer::Tracer(bool enabled) : on(enabled), origin(Clock::now())
{
    if (on)
        spans.reserve(1 << 16);
}

std::int64_t
Tracer::open(const std::string &name)
{
    if (!on)
        return -1;
    Span s;
    s.name = name;
    s.start = secondsSince(origin);
    s.parent = stack.empty() ? -1 : stack.back();
    spans.push_back(std::move(s));
    const auto id = static_cast<std::int64_t>(spans.size() - 1);
    stack.push_back(id);
    return id;
}

void
Tracer::close(std::int64_t id)
{
    if (id < 0)
        return;
    spans[static_cast<std::size_t>(id)].end = secondsSince(origin);
    // Scopes nest, so the span being closed is the innermost one.
    stack.pop_back();
}

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

void
Tracer::write(std::ostream &out) const
{
    out << "[\n" << std::setprecision(9);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"start\": " << s.start << ", \"end\": " << s.end
            << ", \"parent\": " << s.parent << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

void
Report::check(bool ok, const std::string &what, std::uint64_t units)
{
    if (ok)
        return;
    errors.push_back(what);
    failed += std::max<std::uint64_t>(units, 1);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
