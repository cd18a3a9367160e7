#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_util.hh"
#include "vspec/vspec.hh"
#include "fleet/shard.hh"
#include "fleet/traffic.hh"
#include "resilience/fleet_chaos.hh"

using namespace vspec;

namespace repobench
{

namespace
{

// ---------------------------------------------------------------- sizes

constexpr unsigned kScaleChips = 100000;
constexpr Seconds kScaleSlice = 0.1;
constexpr Seconds kSteadyHorizon = 16.0; // fleet_capacity --duration default
constexpr Seconds kChaosHorizon = 40.0;
/** Traffic opens here on both scale configs (warmup before it). */
constexpr Seconds kScaleFirstArrival = 5.0;
/** Prefix of the thread-scaling lane: warmup plus 5 s of traffic. */
constexpr Seconds kScalePrefix = 10.0;

constexpr Seconds kChipTick = 0.002;
constexpr std::uint64_t kTicksPerChunk = 50; // 100 ms of chip time
constexpr Seconds kSuiteDuration = 60.0;
/** The paper's headline figures and its per-core Vdd band (%). */
constexpr double kPaperVddReductionPct = 18.0;
constexpr double kPaperPowerReductionPct = 33.0;
constexpr double kPaperVddBandLowPct = 13.0;
constexpr double kPaperVddBandHighPct = 23.0;

constexpr Seconds kColdDuration = 16.0;
constexpr Seconds kColdFirstArrival = 6.0;

/** Setups a run times at least, so setup_s is the median of several.
 *  A scale fleet constructs in milliseconds; a chip calibrates in a
 *  second. */
constexpr std::size_t kMinScaleSetups = 16;
constexpr std::size_t kMinChipSetups = 3;

const std::vector<SchedulerPolicy> &
allPolicies()
{
    static const std::vector<SchedulerPolicy> p = {
        SchedulerPolicy::roundRobin, SchedulerPolicy::leastLoaded,
        SchedulerPolicy::marginAware, SchedulerPolicy::riskAware};
    return p;
}

// ------------------------------------------------------- input configs
//
// Every input that varies with the run seed derives from it through
// one mix64 stream per purpose; the library sees only the resulting
// configs. The seed varies the input with the largest population, so
// that the cost of a run does not hinge on a handful of draws:
//
//  - scale fleets: the seed draws all 100k dies (and the chaos event
//    script, one stream per domain); traffic keeps fleet_capacity's
//    stream, whose one or two flash crowds per horizon would otherwise
//    swing slice cost by 50% from seed to seed;
//  - chip_speculation and the cold row run the repo's evaluation dies
//    (vspec_bench::evalSeed, the dies behind EXPERIMENTS.md) and
//    the seed varies their workload: one die's simulation cost depends
//    on where its weak lines sit, and seeded dies range over 8x in
//    cost per simulated second.

/** fleet_capacity's and fig_blast_radius's traffic stream. */
constexpr std::uint64_t kScaleTrafficSeed = 0xCAFE;

enum SeedStream : std::uint64_t
{
    scaleFleetSeed = 1,
    chipScheduleSeed = 2,
    coldJobSeed = 3,
    laneSeed = 4,
};

/** fleet_capacity --chips N: the steady-state scale configuration
 *  (bench/fleet_capacity.cc scaleConfig(), which lives beside that
 *  binary's main() and so cannot be linked here). */
ScaleFleetConfig
steadyConfig(std::uint64_t seed, SchedulerPolicy policy)
{
    const double chips = kScaleChips;
    ScaleFleetConfig cfg;
    cfg.numChips = kScaleChips;
    cfg.seed = mix64(seed, scaleFleetSeed);
    cfg.policy = policy;
    cfg.slice = kScaleSlice;
    cfg.horizon = kSteadyHorizon;
    cfg.sampling = SamplingMode::chipBatched;

    cfg.traffic.baseArrivalsPerSecond = 1.85 * chips;
    cfg.traffic.users = std::uint64_t(chips) * 20;
    cfg.traffic.hotSessionFraction = 0.1;
    cfg.traffic.hotSessions = kScaleChips / 2;
    cfg.traffic.diurnalAmplitude = 0.25;
    cfg.traffic.diurnalPeriod = 20.0;
    cfg.traffic.flashesPerHour = 240.0;
    cfg.traffic.flashMagnitude = 1.5;
    cfg.traffic.flashDecayTau = 5.0;
    cfg.traffic.closedUsers = 0.3 * chips;
    cfg.traffic.thinkTime = 2.0;
    cfg.traffic.firstArrival = kScaleFirstArrival;
    cfg.traffic.seed = kScaleTrafficSeed;

    cfg.governor.fleetBudget = 9.5 * chips;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;
    return cfg;
}

/** fig_blast_radius's guarded fleet (bench/fig_blast_radius.cc
 *  blastConfig() with guarded = true), scaled to kScaleChips. */
ScaleFleetConfig
chaosConfig(std::uint64_t seed, SchedulerPolicy policy)
{
    const double chips = kScaleChips;
    ScaleFleetConfig cfg;
    cfg.numChips = kScaleChips;
    cfg.seed = mix64(seed, scaleFleetSeed);
    cfg.policy = policy;
    cfg.slice = kScaleSlice;
    cfg.horizon = kChaosHorizon;
    cfg.sampling = SamplingMode::exact;

    cfg.traffic.baseArrivalsPerSecond = 1.55 * chips;
    cfg.traffic.users = std::uint64_t(chips) * 20;
    cfg.traffic.hotSessionFraction = 0.02;
    cfg.traffic.hotSessions = kScaleChips / 2;
    cfg.traffic.closedUsers = 0.3 * chips;
    cfg.traffic.thinkTime = 2.0;
    cfg.traffic.firstArrival = kScaleFirstArrival;
    cfg.traffic.seed = kScaleTrafficSeed;

    JobClass interactive;
    interactive.name = "interactive";
    interactive.arrivalWeight = 3.0;
    interactive.meanServiceTime = 0.6;
    interactive.minServiceTime = 0.1;
    interactive.deadline = 3.0;
    interactive.latencyCritical = true;
    interactive.suite = Suite::coreMark;
    interactive.maxRetries = 2;
    interactive.retryBackoff = 0.2;
    interactive.hedge = true;
    JobClass batch;
    batch.name = "batch";
    batch.arrivalWeight = 1.0;
    batch.meanServiceTime = 2.5;
    batch.minServiceTime = 0.25;
    batch.deadline = 20.0;
    batch.suite = Suite::specFp2000;
    batch.maxRetries = 1;
    batch.retryBackoff = 0.4;
    cfg.traffic.classes = {interactive, batch};

    cfg.chip.recoveryPenalty = 4.0;
    cfg.governor.fleetBudget = 20.0 * chips;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 2.0;

    cfg.chaos.railGroupSize = 32;
    cfg.chaos.railDroopsPerHour = 20.0;
    cfg.chaos.railDroopMagnitudeMv = 45.0;
    cfg.chaos.railDroopDuration = 3.0;
    cfg.chaos.rackSize = 64;
    cfg.chaos.dueStormsPerHour = 24.0;
    cfg.chaos.dueStormRate = 2.5;
    cfg.chaos.dueStormDuration = 5.0;
    cfg.chaos.thermalZoneSize = 128;
    cfg.chaos.thermalEventsPerHour = 10.0;
    cfg.chaos.thermalMarginPenaltyMv = 25.0;
    cfg.chaos.thermalDuration = 6.0;

    cfg.health.enabled = true;
    cfg.health.windowTau = 3.0;
    cfg.health.degradeRate = 0.3;
    cfg.health.quarantineRate = 1.0;
    cfg.health.healthyRate = 0.1;
    cfg.health.quarantineHold = 1.0;
    cfg.health.selfTestDuration = 4.0;
    cfg.health.selfTestBoostMv = 50.0;
    cfg.health.probationDuration = 5.0;
    cfg.retryWatchdog = 2.0;
    cfg.hedgeLoserFraction = 0.25;
    cfg.auditEverySlices = 50;
    return cfg;
}

/** fleet_capacity's 4-chip cold row (bench/fleet_capacity.cc
 *  capacityConfig()), chip-batched, margin-aware. */
FleetConfig
coldConfig(std::uint64_t seed)
{
    FleetConfig cfg;
    cfg.numChips = 4;
    cfg.seed = vspec_bench::evalSeed;
    cfg.chip = vspec_bench::makeLowConfig();
    cfg.policy = SchedulerPolicy::marginAware;
    cfg.sampling = SamplingMode::chipBatched;
    cfg.jobs.arrivalsPerSecond = 8.0;
    cfg.jobs.firstArrival = kColdFirstArrival;
    cfg.jobs.seed = mix64(seed, coldJobSeed);
    cfg.governor.fleetBudget = 88.0;
    cfg.governor.interval = 0.5;
    cfg.governor.minChipCap = 5.0;
    cfg.recovery.checkpointInterval = 1.0;
    cfg.recovery.recoveryLatency = 0.25;
    return cfg;
}

/** The seeded part of chip_speculation: suite order and how long each
 *  benchmark of a suite's loop runs before the next one starts. */
struct SuiteSchedule
{
    std::vector<Suite> order;
    Seconds perBenchmark = 10.0;
};

SuiteSchedule
suiteSchedule(std::uint64_t seed)
{
    SuiteSchedule s;
    s.order = vspec_bench::evalSuites();
    Rng rng(mix64(seed, chipScheduleSeed));
    for (std::size_t i = s.order.size() - 1; i > 0; --i)
        std::swap(s.order[i], s.order[rng.next() % (i + 1)]);
    s.perBenchmark = 8.0 + 4.0 * rng.uniform();
    return s;
}

// ------------------------------------------------------------- helpers

void
digestReport(Digest &d, const FleetReport &r)
{
    for (std::uint64_t v :
         {r.submitted, r.completed, r.completedCritical, r.requeued,
          r.pendingAtEnd, r.runningAtEnd, r.slaViolations, r.recoveries,
          std::uint64_t(r.abandonedCores), r.throttleEpisodes,
          r.injectedBitFlips, r.injectedDues, r.memRecoveries,
          r.memCorrectable, r.quarantines, r.readmissions,
          std::uint64_t(r.offlineChipsAtEnd), r.retries, r.hedgedJobs,
          r.watchdogForced, r.inRetryAtEnd})
        d.add(v);
    for (double v :
         {r.simulated, r.throughputPerSec, r.meanLatency, r.p50Latency,
          r.p99Latency, r.fleetEnergy, r.energyPerJob, r.meanFleetPower,
          r.availability, r.memEnergy, r.drainedCoreSeconds})
        d.add(v);
    for (const FleetReport::DomainImpact &row : r.domainImpact) {
        d.add(std::uint64_t(row.kind));
        d.add(std::uint64_t(row.domain));
        d.add(row.events);
        d.add(row.dues);
        d.add(row.quarantines);
        d.add(row.slaMisses);
        d.add(row.offlineCoreSeconds);
    }
}

/** The modelled fleet outcomes of one report. */
void
fleetOutcomes(const FleetReport &r, Watt budget,
              std::map<std::string, double> &out)
{
    out["energy_per_job_j"] = r.energyPerJob;
    out["job_p99_s"] = r.p99Latency;
    out["sla_miss_rate"] =
        r.submitted ? double(r.slaViolations) / double(r.submitted) : 0.0;
    out["power_over_budget_pct"] = 100.0 * (r.meanFleetPower / budget - 1.0);
}

void
policyMetrics(SchedulerPolicy policy, const FleetReport &r,
              std::map<std::string, double> &layer)
{
    const std::string key = std::string("policy.") + policyName(policy);
    layer[key + ".energy_per_job_j"] = r.energyPerJob;
    layer[key + ".job_p99_s"] = r.p99Latency;
    layer[key + ".sla_miss_rate"] =
        r.submitted ? double(r.slaViolations) / double(r.submitted) : 0.0;
}

/**
 * Run whole passes until the measured phase covers about ctx.seconds:
 * another pass starts only while it would end nearer to the target
 * than stopping now (at least one pass; a traced run makes exactly
 * one). Every later pass must reproduce the first pass's digest. Then
 * @p extra_setup runs until @p min_setups setups were timed, so that
 * setup_s is always the median of several.
 */
void
runPasses(const RunContext &ctx, Measurement &m,
          const std::function<std::uint64_t()> &pass,
          std::size_t min_setups,
          const std::function<void()> &extra_setup)
{
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
        const std::uint64_t d = pass();
        if (m.passCallsEnd.empty())
            m.digest = d;
        else
            m.checks.expect(d == m.digest,
                            "pass " + std::to_string(m.passCallsEnd.size()) +
                                " reproduces the first pass's digest");
        m.passCallsEnd.push_back(m.callMs.size());
        m.passChipSecondsEnd.push_back(m.chipSeconds);
        elapsed = secondsSince(t0);
    } while (!ctx.tracer->enabled() &&
             elapsed + 0.5 * elapsed / double(m.passCallsEnd.size()) <=
                 ctx.seconds);
    while (m.setupSeconds.size() < min_setups)
        extra_setup();
}

/** p50 of @p ms over the samples from index @p from on. */
double
windowMedian(const std::vector<double> &ms, std::size_t from)
{
    if (from >= ms.size())
        return median(ms);
    return median(std::vector<double>(ms.begin() + long(from), ms.end()));
}

// ------------------------------------------------- chip probe lanes

/** Lane results land here so the timed loops cannot be elided. */
volatile double laneSink = 0.0;

/**
 * Per-call timings of the chip's probe layers on a twin chip (a fresh
 * Chip from the run's config, so the run's own chip is untouched) at
 * the run's settled rail voltage @p v. Calls are timed in batches:
 * one call is tens of nanoseconds, below the clock's useful grain.
 */
void
probeLanes(const RunContext &ctx, Chip &twin, Millivolt v,
           Measurement &m)
{
    Tracer &tr = *ctx.tracer;
    Tracer::Phase phase(tr, "lane.twin_probes");
    auto [array, weakest] = experiments::weakestL2Line(twin.core(0));
    std::vector<WeakLineInfo> lines = array->weakLines();
    if (lines.size() > 64)
        lines.resize(64);
    // The run's rail wanders a few tenths of a mV around its setpoint;
    // cycle through such offsets instead of hammering one voltage. The
    // aggregate path sees the same wander as a handful of adjacent
    // probability buckets, which its bucket cache holds, as in a run.
    auto voltage = [v](std::size_t i) {
        return v + 0.37 * double(int(i % 16) - 8);
    };

    constexpr std::size_t kBatch = 4096;
    constexpr int kBatches = 24;
    double sink = 0.0;
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        const double s = tr.time(
            "CacheArray::lineEventProbabilities (x4096)", [&] {
                for (std::size_t i = 0; i < kBatch; ++i) {
                    const WeakLineInfo &l = lines[i % lines.size()];
                    double pc = 0.0, pu = 0.0;
                    array->lineEventProbabilities(l.set, l.way,
                                                  voltage(i / 3), pc, pu);
                    sink += pc + pu;
                }
            });
        ns.push_back(1e9 * s / double(kBatch));
    }
    m.layer["cache.line_probe_ns"] = median(ns);

    ns.clear();
    for (int b = 0; b < kBatches; ++b) {
        const double s =
            tr.time("CacheArray::aggregateEventRates (x4096)", [&] {
                for (std::size_t i = 0; i < kBatch; ++i) {
                    double sc = 0.0, su = 0.0;
                    array->aggregateEventRates(
                        v + CacheArray::probQuantMv * double(int(i % 9) - 4),
                        sc, su);
                    sink += sc + su;
                }
            });
        ns.push_back(1e9 * s / double(kBatch));
    }
    m.layer["cache.aggregate_rates_ns"] = median(ns);

    EccMonitor &mon = twin.monitorFor(*array);
    mon.activate(*array, weakest.set, weakest.way);
    Rng rng(mix64(ctx.seed, laneSeed));
    constexpr std::size_t kBursts = 64;
    std::vector<double> us;
    for (int b = 0; b < kBatches; ++b) {
        const double s = tr.time("EccMonitor::runProbes (x64)", [&] {
            for (std::size_t i = 0; i < kBursts; ++i)
                sink += double(
                    mon.runProbes(kChipTick, voltage(i), rng).accesses);
        });
        us.push_back(1e6 * s / double(kBursts));
    }
    m.layer["monitor.probe_burst_us"] = median(us);

    // Codewords as the arrays see them near the floor: mostly clean,
    // some single flips, a few double flips.
    const EccCodec &codec = array->codec();
    std::vector<Codeword> words(1024);
    for (Codeword &w : words) {
        w = codec.encode(rng.next());
        const double u = rng.uniform();
        const unsigned flips = u < 0.8 ? 0 : (u < 0.95 ? 1 : 2);
        for (unsigned f = 0; f < flips; ++f)
            w.flipBit(unsigned(rng.next() % codec.codewordBits()));
    }
    ns.clear();
    std::uint64_t acc = 0;
    for (int b = 0; b < kBatches; ++b) {
        const double s = tr.time("EccCodec::decode (x1024)", [&] {
            for (const Codeword &w : words)
                acc += codec.decode(w).data;
        });
        ns.push_back(1e9 * s / double(words.size()));
    }
    m.layer["ecc.decode_ns"] = median(ns);
    laneSink = sink + double(acc);
}

/** Build one chip and arm the hardware speculation system on it. */
struct ArmedChip
{
    std::unique_ptr<Chip> chip;
    HardwareSpeculationSetup setup;
    double ctorSeconds = 0.0;
    double armSeconds = 0.0;
};

ArmedChip
buildArmedChip(Tracer &tr, const ChipConfig &cfg)
{
    ArmedChip a;
    a.ctorSeconds = tr.time("Chip::Chip",
                            [&] { a.chip = std::make_unique<Chip>(cfg); });
    a.armSeconds = tr.time("harness::armHardware", [&] {
        a.setup = harness::armHardware(*a.chip);
    });
    return a;
}

// ------------------------------------------------------- scale fleets

struct ScaleSpec
{
    std::vector<SchedulerPolicy> policies;
    /** The run whose outcomes and slice breakdown are reported. */
    SchedulerPolicy layered;
    std::function<ScaleFleetConfig(SchedulerPolicy)> config;
};

struct ScaleRun
{
    SchedulerPolicy policy;
    FleetReport report;
    std::vector<double> sliceMs;
    double reportMs = 0.0;
    std::size_t auditViolations = 0;
    std::uint64_t chaosEvents = 0;
};

std::vector<ScaleRun>
scalePass(const RunContext &ctx, const ScaleSpec &spec, Measurement &m,
          Digest &digest)
{
    Tracer &tr = *ctx.tracer;
    std::vector<ScaleRun> runs;
    for (SchedulerPolicy policy : spec.policies) {
        Tracer::Phase phase(tr, "phase.policy");
        const ScaleFleetConfig cfg = spec.config(policy);
        std::unique_ptr<ShardedFleet> fleet;
        {
            Tracer::Phase setup(tr, "phase.setup");
            m.setupSeconds.push_back(
                tr.time("ShardedFleet::ShardedFleet", [&] {
                    fleet = std::make_unique<ShardedFleet>(cfg);
                }));
        }
        ScaleRun run;
        run.policy = policy;
        const long slices = std::lround(cfg.horizon / cfg.slice);
        {
            Tracer::Phase timed(tr, "phase.timed");
            for (long s = 0; s < slices; ++s) {
                const double sec = tr.time("ShardedFleet::run", [&] {
                    fleet->run(cfg.slice, *ctx.pool);
                });
                run.sliceMs.push_back(1e3 * sec);
                m.callMs.push_back(1e3 * sec);
            }
        }
        m.chipSeconds += double(cfg.numChips) * cfg.horizon;
        run.reportMs = 1e3 * tr.time("ShardedFleet::report",
                                     [&] { run.report = fleet->report(); });
        fleet->audit();
        run.auditViolations = fleet->auditViolations().size();
        if (const FleetFaultInjector *chaos = fleet->chaosInjector())
            for (unsigned k = 0; k < kNumFailureDomainKinds; ++k)
                run.chaosEvents +=
                    chaos->eventsStarted(FailureDomainKind(k));

        const FleetReport &r = run.report;
        const std::string who = policyName(policy);
        m.checks.expect(r.submitted == r.completed + r.pendingAtEnd,
                        who + ": submitted == completed + pending "
                              "(pending includes in-retry)");
        m.checks.expect(r.completed > 0, who + ": jobs complete");
        m.checks.expect(run.auditViolations == 0,
                        who + ": no audit violations");
        for (const std::string &v : fleet->auditViolations())
            std::fprintf(stderr, "audit (%s): %s\n", who.c_str(),
                         v.c_str());
        digestReport(digest, r);
        for (unsigned i = 0; i < fleet->numChips(); ++i) {
            digest.add(fleet->railMv(i));
            digest.add(fleet->earnedFloorMv(i));
            digest.add(fleet->queueDepth(i));
        }
        digest.add(run.chaosEvents);
        runs.push_back(std::move(run));
    }
    return runs;
}

/** Sketch-vs-exact p50/p99 agreement, fleet_capacity's bound. */
bool
sketchAgrees(const FleetMetrics &merged, double q)
{
    const Seconds sketch_q = merged.latencyQuantile(q);
    const Seconds exact_q = merged.exactLatencyQuantile(q);
    const Histogram &hist = merged.latencyHistogram();
    const Seconds half_bin = 0.5 * (hist.binHigh(0) - hist.binLow(0));
    if (exact_q + half_bin >= hist.binHigh(hist.numBins() - 1))
        return true; // the exact histogram saturated its range
    const double bound =
        merged.latencySketch().relativeErrorBound() * (exact_q + half_bin) +
        half_bin;
    return std::abs(sketch_q - exact_q) <= bound;
}

/** Host seconds of the first @p slices slices of a fresh fleet, each
 *  slice timed through @p tr. */
double
prefixSeconds(const ScaleFleetConfig &cfg, long slices,
              ExperimentPool &pool, Tracer &tr)
{
    ShardedFleet fleet(cfg);
    double total = 0.0;
    for (long s = 0; s < slices; ++s)
        total += tr.time("ShardedFleet::run",
                         [&] { fleet.run(cfg.slice, pool); });
    return total;
}

/** The traced run's layer lanes for a scale workload. */
void
scaleLanes(const RunContext &ctx, const ScaleSpec &spec,
           const std::vector<ScaleRun> &runs, Measurement &m)
{
    Tracer &tr = *ctx.tracer;
    const ScaleRun *layered = nullptr;
    for (const ScaleRun &r : runs)
        if (r.policy == spec.layered)
            layered = &r;
    const ScaleFleetConfig cfg = spec.config(spec.layered);
    const std::size_t window =
        std::size_t(std::lround(cfg.traffic.firstArrival / cfg.slice));
    const long slices = std::lround(cfg.horizon / cfg.slice);

    // Idle twin: the same fleet with no traffic (advance, chaos,
    // health, governor and fold only).
    std::vector<double> idle_ms;
    {
        Tracer::Phase phase(tr, "lane.idle_twin");
        ScaleFleetConfig idle = cfg;
        idle.traffic.baseArrivalsPerSecond = 0.0;
        idle.traffic.closedUsers = 0.0;
        std::unique_ptr<ShardedFleet> fleet;
        tr.time("ShardedFleet::ShardedFleet",
                [&] { fleet = std::make_unique<ShardedFleet>(idle); });
        for (long s = 0; s < slices; ++s)
            idle_ms.push_back(1e3 * tr.time("ShardedFleet::run", [&] {
                                  fleet->run(idle.slice, *ctx.pool);
                              }));
    }

    // Standalone traffic: the same stream, fed the run's mean latency
    // as closed-loop feedback.
    std::vector<double> traffic_ms;
    std::uint64_t arrivals = 0;
    {
        Tracer::Phase phase(tr, "lane.traffic");
        TrafficGenerator gen(cfg.traffic);
        std::vector<TrafficArrival> buf;
        for (long s = 0; s < slices; ++s) {
            const Seconds t0 = double(s) * cfg.slice;
            const double sec =
                tr.time("TrafficGenerator::generateSlice", [&] {
                    gen.generateSlice(t0, t0 + cfg.slice,
                                      layered->report.meanLatency, buf);
                });
            traffic_ms.push_back(1e3 * sec);
            arrivals += buf.size();
            buf.clear();
        }
    }

    // Thread scaling over a fixed prefix on fresh fleets, at 1 thread
    // and at the pool's thread count. The second run goes through an
    // overhead probe (half its slices recorded into a scratch tracer)
    // and so also gives the trace overhead.
    const long prefix = std::lround(kScalePrefix / cfg.slice);
    double t1 = 0.0, tn = 0.0;
    Tracer probe(true, tr.runId());
    probe.setHalfRecording(true);
    {
        Tracer::Phase phase(tr, "lane.thread_scaling");
        Tracer quiet(false, 0);
        ExperimentPool one(1);
        t1 = prefixSeconds(cfg, prefix, one, quiet);
        tn = prefixSeconds(cfg, prefix, *ctx.pool, probe);
    }

    // Sketch-vs-exact latency validation on the layered run's config,
    // run one governor interval at a time. After each interval a
    // standalone governor gets the fleet's own input: every chip's
    // demand as the fleet's governor estimated it, with the chips the
    // health FSM holds offline marked absent (quarantines and storm-
    // shaped draws on scale_chaos).
    std::vector<double> gov_us;
    {
        Tracer::Phase phase(tr, "lane.latency_exact_governor");
        ScaleFleetConfig exact = cfg;
        exact.exactLatencyValidation = true;
        ShardedFleet fleet(exact);
        PowerCapGovernor gov(cfg.governor, cfg.numChips);
        std::vector<PowerCapGovernor::Measurement> power(cfg.numChips);
        const Seconds interval = cfg.governor.interval;
        const long updates = std::lround(cfg.horizon / interval);
        for (long u = 0; u < updates; ++u) {
            tr.time("ShardedFleet::run",
                    [&] { fleet.run(interval, *ctx.pool); });
            for (unsigned i = 0; i < cfg.numChips; ++i) {
                gov.setAbsent(i, !healthSchedulable(fleet.chipHealth(i)));
                power[i].power = fleet.governor().demand(i);
                power[i].elapsed = interval;
            }
            gov_us.push_back(1e6 * tr.time("PowerCapGovernor::update",
                                           [&] { gov.update(power); }));
        }
        const FleetMetrics merged = fleet.mergedMetrics();
        m.checks.expect(sketchAgrees(merged, 0.50),
                        "sketch p50 within bound of exact p50");
        m.checks.expect(sketchAgrees(merged, 0.99),
                        "sketch p99 within bound of exact p99");
    }

    const FleetReport &r = layered->report;
    const double slice_p50 = windowMedian(layered->sliceMs, window);
    const double idle_p50 = windowMedian(idle_ms, window);
    const double traffic_p50 = windowMedian(traffic_ms, window);
    std::vector<double> setup_ms, report_ms;
    for (double s : m.setupSeconds)
        setup_ms.push_back(1e3 * s);
    for (const ScaleRun &run : runs)
        report_ms.push_back(run.reportMs);

    char note[160];
    std::snprintf(note, sizeof note,
                  "slice breakdown (p50 over the traffic window): traffic "
                  "%.4g + placement %.4g + idle %.4g = slice %.4g ms",
                  traffic_p50, slice_p50 - idle_p50 - traffic_p50, idle_p50,
                  slice_p50);
    m.notes.push_back(note);

    auto &L = m.layer;
    L["fleet.ctor_ms"] = median(setup_ms);
    L["fleet.slice_ms.p50"] = slice_p50;
    L["fleet.idle_slice_ms.p50"] = idle_p50;
    L["fleet.serial_ms.p50"] = slice_p50 - idle_p50;
    L["traffic.generate_ms.p50"] = traffic_p50;
    L["placement.ms.p50"] = slice_p50 - idle_p50 - traffic_p50;
    L["traffic.arrivals"] = double(arrivals);
    L["fleet.parallel_speedup"] = t1 / tn;
    L["trace.overhead_pct"] = probe.overheadPct();
    L["fleet.report_ms"] = median(report_ms);
    L["governor.update_us"] = median(gov_us);
    L["fleet.submitted"] = double(r.submitted);
    L["fleet.completed_ratio"] =
        r.submitted ? double(r.completed) / double(r.submitted) : 0.0;
    L["fleet.retry_ratio"] =
        r.submitted ? double(r.retries) / double(r.submitted) : 0.0;
    L["fleet.hedged"] = double(r.hedgedJobs);
    L["fleet.watchdog_forced"] = double(r.watchdogForced);
    L["fleet.pending_at_end"] = double(r.pendingAtEnd);
    L["governor.throttle_episodes"] = double(r.throttleEpisodes);
    L["health.quarantines"] = double(r.quarantines);
    L["health.readmissions"] = double(r.readmissions);
    L["health.offline_at_end"] = double(r.offlineChipsAtEnd);
    L["chaos.events"] = double(layered->chaosEvents);
    std::size_t violations = 0;
    for (const ScaleRun &run : runs)
        violations += run.auditViolations;
    L["audit.violations"] = double(violations);
}

void
runScale(const RunContext &ctx, const ScaleSpec &spec, Measurement &m)
{
    m.setupsPerPass = unsigned(spec.policies.size());
    std::vector<ScaleRun> first;
    runPasses(
        ctx, m,
        [&] {
            Digest d;
            std::vector<ScaleRun> runs = scalePass(ctx, spec, m, d);
            if (first.empty())
                first = std::move(runs);
            return d.value();
        },
        kMinScaleSetups,
        [&] {
            Tracer::Phase setup(*ctx.tracer, "phase.setup");
            const ScaleFleetConfig cfg = spec.config(spec.layered);
            m.setupSeconds.push_back(ctx.tracer->time(
                "ShardedFleet::ShardedFleet", [&] { ShardedFleet f(cfg); }));
        });
    for (const ScaleRun &run : first)
        if (run.policy == spec.layered)
            fleetOutcomes(run.report,
                          spec.config(run.policy).governor.fleetBudget,
                          m.outcomes);
    if (ctx.tracer->enabled())
        scaleLanes(ctx, spec, first, m);
}

/** The layer metrics the steady-fleet lane reports, as "steady.<name>". */
constexpr const char *kSteadyLaneMetrics[] = {
    "fleet.ctor_ms",           "fleet.slice_ms.p50",
    "fleet.idle_slice_ms.p50", "fleet.serial_ms.p50",
    "fleet.parallel_speedup",  "fleet.report_ms",
    "fleet.submitted",         "fleet.completed_ratio",
    "fleet.pending_at_end",    "traffic.generate_ms.p50",
    "traffic.arrivals",        "placement.ms.p50",
    "governor.update_us",      "governor.throttle_episodes",
};

/**
 * The steady fleet as a lane of the scale_chaos traced run: one pass
 * of the fleet_capacity --chips configuration (chip-batched, all four
 * policies, chaos and health off) with the same layer lanes as a scale
 * workload, reported under "steady.", plus policy.<name>.* for the
 * four policies. Its outputs are checked like a workload's, but it
 * has no end-to-end metric (README.md says why).
 */
void
steadyLane(const RunContext &ctx, Measurement &m)
{
    Tracer::Phase phase(*ctx.tracer, "lane.steady_fleet");
    ScaleSpec spec;
    spec.policies = allPolicies();
    spec.layered = SchedulerPolicy::marginAware;
    spec.config = [&ctx](SchedulerPolicy p) {
        return steadyConfig(ctx.seed, p);
    };
    Measurement lane;
    Digest digest;
    const std::vector<ScaleRun> runs = scalePass(ctx, spec, lane, digest);
    scaleLanes(ctx, spec, runs, lane);
    for (const char *name : kSteadyLaneMetrics)
        m.layer[std::string("steady.") + name] = lane.layer[name];
    for (const ScaleRun &run : runs) {
        policyMetrics(run.policy, run.report, m.layer);
        if (run.policy == spec.layered)
            fleetOutcomes(run.report,
                          spec.config(run.policy).governor.fleetBudget,
                          lane.outcomes);
    }
    m.layer["steady.power_over_budget_pct"] =
        lane.outcomes["power_over_budget_pct"];
    m.layer["steady.sim_digest"] = double(digest.value() >> 11);
    m.checks.merge(lane.checks);
    for (const std::string &note : lane.notes)
        m.notes.push_back("steady lane " + note);
}

// ---------------------------------------------------- chip speculation

struct SuiteResult
{
    double vddReductionPct = 0.0;
    double powerRatio = 0.0;
    double errorRate = 0.0;
    Millivolt settledVdd = 0.0;
};

Watt
coreRailPower(const Chip &chip, Seconds t)
{
    Watt total = 0.0;
    for (unsigned c = 0; c < chip.numCores(); ++c)
        total += chip.corePower(c, t);
    return total;
}

/**
 * Monitor probes issued during a run, counted from a per-tick hook.
 * Controllers read-and-reset the counters inside the tick, so a drop
 * marks a reset; the reset tick's own burst is taken to equal the
 * monitor's previous burst (bursts are a fixed probe budget per tick).
 */
struct ProbeCounter
{
    std::vector<EccMonitor *> monitors;
    std::vector<std::uint64_t> prev, last;
    std::uint64_t total = 0;

    explicit ProbeCounter(Chip &chip)
    {
        for (unsigned c = 0; c < chip.numCores(); ++c)
            for (EccMonitor *mon : {&chip.l2iMonitor(c), &chip.l2dMonitor(c)})
                if (mon->active())
                    monitors.push_back(mon);
        for (EccMonitor *mon : monitors)
            prev.push_back(mon->accessCount());
        last.assign(monitors.size(), 0);
    }

    void tick()
    {
        for (std::size_t i = 0; i < monitors.size(); ++i) {
            const std::uint64_t c = monitors[i]->accessCount();
            const std::uint64_t delta = c >= prev[i] ? c - prev[i]
                                                     : c + last[i];
            if (c >= prev[i])
                last[i] = delta;
            total += delta;
            prev[i] = c;
        }
    }
};

/**
 * Mean core-rail power over one whole loop of the suite's benchmarks,
 * sampled at fixed times of the loop. The samples see the same
 * benchmark activity whenever they are taken, so the ratio of this
 * mean after a run to the mean before it is the effect of the rails'
 * voltage alone, whatever the seed's suite schedule.
 */
Watt
loopMeanPower(const Chip &chip, Suite suite, Seconds per_benchmark)
{
    constexpr int kSamples = 48;
    const Seconds loop =
        double(benchmarks::ofSuite(suite).size()) * per_benchmark;
    Watt sum = 0.0;
    for (int i = 0; i < kSamples; ++i)
        sum += coreRailPower(chip, (double(i) + 0.5) * loop / kSamples);
    return sum / kSamples;
}

SuiteResult
runSuite(const RunContext &ctx, ArmedChip &a, Suite suite,
         Seconds per_benchmark, Measurement &m, Digest &digest,
         ProbeCounter *probes)
{
    Tracer &tr = *ctx.tracer;
    Chip &chip = *a.chip;
    const Millivolt nominal = chip.config().operatingPoint.nominalVdd;
    for (unsigned d = 0; d < chip.numDomains(); ++d) {
        chip.domain(d).regulator().request(nominal);
        chip.domain(d).regulator().advance(1.0);
    }
    harness::assignSuite(chip, suite, per_benchmark);
    const Watt ref = loopMeanPower(chip, suite, per_benchmark);

    Simulator sim(chip, kChipTick);
    sim.attachControlSystem(a.setup.control.get());
    sim.enableTrace(1.0);
    if (probes) {
        *probes = ProbeCounter(chip);
        sim.addHook([probes](Seconds, Seconds) { probes->tick(); });
    }
    const long chunks =
        std::lround(kSuiteDuration / (kChipTick * double(kTicksPerChunk)));
    {
        Tracer::Phase timed(tr, "phase.timed");
        for (long k = 0; k < chunks; ++k)
            m.callMs.push_back(
                1e3 * tr.time("Simulator::runTicks",
                              [&] { sim.runTicks(kTicksPerChunk); }));
    }
    m.chipSeconds += kSuiteDuration;
    m.layer["sim.ticks"] += double(chunks) * double(kTicksPerChunk);
    if (probes)
        m.layer["monitor.probes"] += double(probes->total);
    const bool crashed = sim.anyCrashed();
    m.layer["sim.crashes"] += crashed ? 1.0 : 0.0;
    m.checks.expect(!crashed, std::string("no crash on ") +
                                  suiteName(suite));

    // Setpoints and monitor error rate over the settled second half.
    SuiteResult res;
    const auto &samples = sim.trace().samples();
    double reduction = 0.0, settled = 0.0, err = 0.0;
    std::size_t err_n = 0;
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        const unsigned d = chip.domainIndexOf(c);
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t i = samples.size() / 2; i < samples.size(); ++i) {
            sum += samples[i].domainSetpoint[d];
            ++n;
        }
        const double mean = n ? sum / double(n) : nominal;
        digest.add(mean);
        reduction += 100.0 * (nominal - mean) / nominal;
        if (c == 0)
            settled = mean;
    }
    for (std::size_t i = samples.size() / 2; i < samples.size(); ++i)
        for (double rate : samples[i].domainErrorRate) {
            err += rate;
            ++err_n;
        }
    res.vddReductionPct = reduction / double(chip.numCores());
    res.settledVdd = settled;
    res.errorRate = err_n ? err / double(err_n) : 0.0;

    const Watt spec = loopMeanPower(chip, suite, per_benchmark);
    res.powerRatio = ref > 0.0 ? spec / ref : 0.0;

    digest.add(ref);
    digest.add(spec);
    digest.add(sim.chipEnergy().energy());
    for (unsigned c = 0; c < chip.numCores(); ++c)
        digest.add(sim.coreCorrectableEvents(c));
    return res;
}

/**
 * fleet_capacity's 4-chip cold row as a lane of the chip_speculation
 * traced run. It keeps the cold Fleet, Scheduler and JobQueue, the
 * pooled node calibration in the first Fleet::run and the Simulator's
 * chip-aggregate path measured. It is not a workload of its own: its
 * 0.4 ms slices are mostly pool hand-offs, and over ten seeds on a
 * shared 4-core host their p50 spread by 0.25-0.38 of the median.
 */
void
coldRowLane(const RunContext &ctx, Measurement &m)
{
    Tracer &tr = *ctx.tracer;
    Tracer::Phase phase(tr, "lane.cold_row");
    const FleetConfig cfg = coldConfig(ctx.seed);
    std::unique_ptr<Fleet> fleet;
    tr.time("Fleet::Fleet", [&] { fleet = std::make_unique<Fleet>(cfg); });
    // The first run() builds and calibrates every node on the pool; a
    // zero duration advances nothing.
    const double build =
        tr.time("Fleet::run", [&] { fleet->run(0.0, *ctx.pool); });
    std::vector<double> slice_ms;
    const long slices = std::lround(kColdDuration / cfg.slice);
    for (long s = 0; s < slices; ++s)
        slice_ms.push_back(1e3 * tr.time("Fleet::run", [&] {
                               fleet->run(cfg.slice, *ctx.pool);
                           }));
    FleetReport r;
    tr.time("Fleet::report", [&] { r = fleet->report(); });

    m.checks.expect(r.submitted ==
                        r.completed + r.pendingAtEnd + r.runningAtEnd,
                    "cold row: submitted == completed + pending + running");
    m.checks.expect(r.completed > 0, "cold row: jobs complete");
    bool crashed = false;
    for (unsigned i = 0; i < fleet->numChips(); ++i)
        crashed = crashed || fleet->node(i).simulator().anyCrashed();
    m.checks.expect(!crashed, "cold row: no node crashed");

    auto &L = m.layer;
    L["coldfleet.build_ms"] = 1e3 * build;
    L["coldfleet.slice_ms.p50"] = windowMedian(
        slice_ms, std::size_t(std::lround(kColdFirstArrival / cfg.slice)));
    L["coldfleet.requeued"] = double(r.requeued);
    L["coldfleet.recoveries"] = double(r.recoveries);
    L["governor.throttle_episodes"] = double(r.throttleEpisodes);
}

} // namespace

// ---------------------------------------------------------------- API

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"setup_s", "s"},           {"chip_sim_s_per_s", "chip-s/s"},
        {"slice_p50_ms", "ms"},     {"slice_tail_ms", "ms"},
        {"peak_rss_mb", "MB"},
    };
    return m;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> m = {
        {"fleet.ctor_ms", "ms"},
        {"fleet.slice_ms.p50", "ms"},
        {"fleet.idle_slice_ms.p50", "ms"},
        {"fleet.serial_ms.p50", "ms"},
        {"fleet.parallel_speedup", "x"},
        {"fleet.report_ms", "ms"},
        {"fleet.submitted", "count"},
        {"fleet.completed_ratio", "ratio"},
        {"fleet.retry_ratio", "ratio"},
        {"fleet.hedged", "count"},
        {"fleet.watchdog_forced", "count"},
        {"fleet.pending_at_end", "count"},
        {"traffic.generate_ms.p50", "ms"},
        {"traffic.arrivals", "count"},
        {"placement.ms.p50", "ms"},
        {"governor.update_us", "us"},
        {"governor.throttle_episodes", "count"},
        {"health.quarantines", "count"},
        {"health.readmissions", "count"},
        {"health.offline_at_end", "count"},
        {"chaos.events", "count"},
        {"audit.violations", "count"},
        {"coldfleet.build_ms", "ms"},
        {"coldfleet.slice_ms.p50", "ms"},
        {"coldfleet.requeued", "count"},
        {"coldfleet.recoveries", "count"},
        {"chip.ctor_ms", "ms"},
        {"calibrator.arm_ms", "ms"},
        {"sim.chunk_ms.p50", "ms"},
        {"sim.ticks", "count"},
        {"sim.crashes", "count"},
        {"cache.line_probe_ns", "ns"},
        {"cache.aggregate_rates_ns", "ns"},
        {"monitor.probe_burst_us", "us"},
        {"monitor.probes", "count"},
        {"monitor.error_rate", "ratio"},
        {"controller.setpoint_changes", "count"},
        {"ecc.decode_ns", "ns"},
        {"steady.fleet.ctor_ms", "ms"},
        {"steady.fleet.slice_ms.p50", "ms"},
        {"steady.fleet.idle_slice_ms.p50", "ms"},
        {"steady.fleet.serial_ms.p50", "ms"},
        {"steady.fleet.parallel_speedup", "x"},
        {"steady.fleet.report_ms", "ms"},
        {"steady.fleet.submitted", "count"},
        {"steady.fleet.completed_ratio", "ratio"},
        {"steady.fleet.pending_at_end", "count"},
        {"steady.traffic.generate_ms.p50", "ms"},
        {"steady.traffic.arrivals", "count"},
        {"steady.placement.ms.p50", "ms"},
        {"steady.governor.update_us", "us"},
        {"steady.governor.throttle_episodes", "count"},
        {"steady.power_over_budget_pct", "%"},
        {"steady.sim_digest", "hash"},
        {"policy.round-robin.energy_per_job_j", "J"},
        {"policy.round-robin.job_p99_s", "s"},
        {"policy.round-robin.sla_miss_rate", "ratio"},
        {"policy.least-loaded.energy_per_job_j", "J"},
        {"policy.least-loaded.job_p99_s", "s"},
        {"policy.least-loaded.sla_miss_rate", "ratio"},
        {"policy.margin-aware.energy_per_job_j", "J"},
        {"policy.margin-aware.job_p99_s", "s"},
        {"policy.margin-aware.sla_miss_rate", "ratio"},
        {"policy.risk-aware.energy_per_job_j", "J"},
        {"policy.risk-aware.job_p99_s", "s"},
        {"policy.risk-aware.sla_miss_rate", "ratio"},
        {"energy_per_job_j", "J"},
        {"job_p99_s", "s"},
        {"sla_miss_rate", "ratio"},
        {"power_over_budget_pct", "%"},
        {"vdd_reduction_pct", "%"},
        {"power_reduction_pct", "%"},
        {"vdd_reduction_err_pp", "pp"},
        {"power_reduction_err_pp", "pp"},
        {"check_fail_rate", "ratio"},
        {"sim_digest", "hash"},
        {"trace.overhead_pct", "%"},
    };
    return m;
}

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
}

void
Checks::merge(const Checks &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

void
runScaleChaos(const RunContext &ctx, Measurement &m)
{
    ScaleSpec spec;
    spec.policies = {SchedulerPolicy::roundRobin};
    spec.layered = SchedulerPolicy::roundRobin;
    spec.config = [&ctx](SchedulerPolicy p) {
        return chaosConfig(ctx.seed, p);
    };
    runScale(ctx, spec, m);
    if (ctx.tracer->enabled())
        steadyLane(ctx, m);
}

void
runChipSpeculation(const RunContext &ctx, Measurement &m)
{
    Tracer &tr = *ctx.tracer;
    const ChipConfig cfg = vspec_bench::makeLowConfig();
    const SuiteSchedule schedule = suiteSchedule(ctx.seed);
    std::vector<SuiteResult> first;
    std::vector<double> ctor_ms, arm_ms;
    std::uint64_t setpoint_changes = 0;
    m.setupsPerPass = 1;

    auto armed = [&] {
        Tracer::Phase setup(tr, "phase.setup");
        ArmedChip a = buildArmedChip(tr, cfg);
        m.setupSeconds.push_back(a.ctorSeconds + a.armSeconds);
        ctor_ms.push_back(1e3 * a.ctorSeconds);
        arm_ms.push_back(1e3 * a.armSeconds);
        return a;
    };

    // Setups beyond the passes' own keep setup_s a median. In the
    // traced run the first one also carries the trace overhead: the
    // first suite on the fresh chip through an overhead probe.
    Tracer probe(true, tr.runId());
    probe.setHalfRecording(true);
    auto extra_setup = [&] {
        ArmedChip a = armed();
        if (!tr.enabled() || probe.numSpans() > 0)
            return;
        Tracer::Phase phase(tr, "lane.trace_overhead");
        RunContext q = ctx;
        q.tracer = &probe;
        Measurement lane;
        Digest d;
        runSuite(q, a, schedule.order.front(), schedule.perBenchmark,
                 lane, d, nullptr);
    };

    runPasses(
        ctx, m,
        [&] {
            Digest d;
            ArmedChip a = armed();
            ProbeCounter probes(*a.chip);
            std::vector<SuiteResult> results;
            for (Suite suite : schedule.order)
                results.push_back(runSuite(ctx, a, suite,
                                           schedule.perBenchmark, m, d,
                                           tr.enabled() ? &probes
                                                        : nullptr));
            std::uint64_t changes = 0;
            for (std::size_t i = 0; i < a.setup.control->numDomains();
                 ++i) {
                const DomainController &c = a.setup.control->domain(i);
                changes += c.stepsUp() + c.stepsDown() + c.emergencies();
            }
            d.add(changes);
            if (first.empty()) {
                first = results;
                setpoint_changes = changes;
            }
            return d.value();
        },
        kMinChipSetups, extra_setup);

    double vdd = 0.0, ratio = 0.0, err = 0.0;
    for (const SuiteResult &r : first) {
        vdd += r.vddReductionPct / double(first.size());
        ratio += r.powerRatio / double(first.size());
        err += r.errorRate / double(first.size());
    }
    const double power = 100.0 * (1.0 - ratio);
    m.checks.expect(vdd >= kPaperVddBandLowPct && vdd <= kPaperVddBandHighPct,
                    "Vdd reduction inside the paper's 13-23% band");
    m.checks.expect(power > 0.0, "speculation saves power");
    m.outcomes["vdd_reduction_pct"] = vdd;
    m.outcomes["power_reduction_pct"] = power;
    m.outcomes["vdd_reduction_err_pp"] = std::abs(vdd - kPaperVddReductionPct);
    m.outcomes["power_reduction_err_pp"] =
        std::abs(power - kPaperPowerReductionPct);

    if (!tr.enabled())
        return;
    auto &L = m.layer;
    L["chip.ctor_ms"] = median(ctor_ms);
    L["calibrator.arm_ms"] = median(arm_ms);
    L["sim.chunk_ms.p50"] = median(m.callMs);
    L["monitor.error_rate"] = err;
    L["controller.setpoint_changes"] = double(setpoint_changes);
    L["trace.overhead_pct"] = probe.overheadPct();
    Chip twin(cfg);
    probeLanes(ctx, twin, first.back().settledVdd, m);
    coldRowLane(ctx, m);
}

} // namespace repobench
