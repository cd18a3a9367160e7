/**
 * @file
 * Workloads of the repository benchmark and the measurements they
 * share. Each workload runs one or more deterministic passes of its
 * scenario, times every public library call through the Tracer, checks
 * the simulated outputs, and fills a Measurement; main.cc turns that
 * into the metric set named in BENCHMARK.json.
 */

#ifndef REPOBENCH_WORKLOADS_HH
#define REPOBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace vspec
{
class ExperimentPool;
}

namespace repobench
{

/** One metric of the result line: name and unit. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, reported by every workload in a metric run. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Per-layer metrics, reported by every workload in a traced run; a
 *  layer the workload never reaches reports 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Output checks; failures are logged to stderr. */
class Checks
{
  public:
    void expect(bool ok, const std::string &what);
    /** Add another set's counts (a lane's checks). */
    void merge(const Checks &other);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** FNV-1a over the simulated statistics of a pass. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(double v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct RunContext
{
    std::uint64_t seed = 0;
    /** Host seconds the timed phase should cover. */
    double seconds = 10.0;
    vspec::ExperimentPool *pool = nullptr;
    Tracer *tracer = nullptr;
};

struct Measurement
{
    /** Host seconds of each setup (one per policy or chip). */
    std::vector<double> setupSeconds;
    /** Setups one pass performs; setup_s = this x fastest setup. */
    unsigned setupsPerPass = 1;
    /** Host milliseconds of every timed call (slice or chunk). */
    std::vector<double> callMs;
    /** Simulated chip-seconds covered by the timed calls. */
    double chipSeconds = 0.0;
    /** Per pass: callMs.size() and chipSeconds at the pass's end. */
    std::vector<std::size_t> passCallsEnd;
    std::vector<double> passChipSecondsEnd;

    Checks checks;
    /** Per-layer values (traced run); unset entries report 0. */
    std::map<std::string, double> layer;
    /** Modelled outcomes and accuracy figures, printed by name on
     *  every run and reported as per-layer metrics when traced. */
    std::map<std::string, double> outcomes;
    /** Extra human-readable lines for the traced run's report. */
    std::vector<std::string> notes;
    std::uint64_t digest = 0;
};

void runScaleChaos(const RunContext &ctx, Measurement &m);
void runChipSpeculation(const RunContext &ctx, Measurement &m);

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 if empty. */
double quantile(std::vector<double> v, double q);
inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace repobench

#endif // REPOBENCH_WORKLOADS_HH
