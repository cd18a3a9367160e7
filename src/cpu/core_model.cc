#include "cpu/core_model.hh"

#include "common/logging.hh"
#include "common/mathutil.hh"
#include "snapshot/state_io.hh"

namespace vspec
{

namespace
{

/** Build one ECC-protected cache level for this core. */
std::unique_ptr<Cache>
buildCache(CacheGeometry geo, const Core::Config &cfg,
           const VariationModel &variation, Rng &rng)
{
    geo.eccScheme = cfg.eccScheme;
    const VcDistribution dist = variation.cellDistribution(
        geo.cellClass, cfg.operatingPoint.frequency, cfg.coreId,
        cfg.temperature);
    const Millivolt floor =
        dist.mean + cfg.materializeZ * dist.sigmaRandom;
    return std::make_unique<Cache>(geo, dist, floor, rng);
}

} // namespace

CacheGeometry
Core::registerFileGeometry(std::uint64_t bytes)
{
    CacheGeometry geo;
    geo.name = "RF";
    // Model the register file as a direct-mapped array of 32-bit
    // ECC-protected words ((39,32) SECDED).
    geo.lineBytes = 4;
    geo.sizeBytes = (bytes / 4) * 4;
    geo.associativity = 1;
    geo.eccDataBits = 32;
    geo.latencyCycles = 1;
    geo.cellClass = CellClass::registerFile;
    geo.validate();
    return geo;
}

Core::Core(const Config &config, const VariationModel &variation, Rng &rng)
    : cfg(config)
{
    logicFloorMv = variation.logicFloor(cfg.coreId,
                                        cfg.operatingPoint.frequency);

    instructionSide = std::make_unique<CacheHierarchy>(
        buildCache(itanium9560::l1Instruction(), cfg, variation, rng),
        buildCache(itanium9560::l2Instruction(), cfg, variation, rng));
    dataSide = std::make_unique<CacheHierarchy>(
        buildCache(itanium9560::l1Data(), cfg, variation, rng),
        buildCache(itanium9560::l2Data(), cfg, variation, rng));

    CacheGeometry rf_geo = registerFileGeometry(cfg.registerFileBytes);
    rf_geo.eccScheme = cfg.eccScheme;
    rf_geo.validate();
    const VcDistribution rf_dist = variation.cellDistribution(
        rf_geo.cellClass, cfg.operatingPoint.frequency, cfg.coreId,
        cfg.temperature);
    registerFile = std::make_unique<CacheArray>(
        rf_geo, rf_dist,
        rf_dist.mean + cfg.materializeZ * rf_dist.sigmaRandom, rng);

    refreshWeakLines();
}

void
Core::refreshWeakLines()
{
    weakLines[0] = l2iArray().weakLines();
    weakLines[1] = l2dArray().weakLines();
    weakLines[2] = rfArray().weakLines();
    // Aging (or a restore) may have moved the population under the
    // cached aggregate rates; generations usually catch this, but a
    // restored generation can alias a pre-restore one.
    for (auto &rc : rateCache)
        rc.valid = false;
}

unsigned
Core::arraySlot(const CacheArray &array) const
{
    if (&array == &l2iArray())
        return 0;
    if (&array == &l2dArray())
        return 1;
    if (&array == &rfArray())
        return 2;
    panic("array does not belong to core ", cfg.coreId);
}

const std::vector<WeakLineInfo> &
Core::weakLinesOf(const CacheArray &array) const
{
    return weakLines[arraySlot(array)];
}

void
Core::setWorkload(std::shared_ptr<Workload> workload, Seconds start_time)
{
    appWorkload = std::move(workload);
    workloadStart = start_time;
    for (auto &cache : touchWeightCache)
        cache.clear();
    // The aggregate rates fold in the workload's touch weights.
    for (auto &rc : rateCache)
        rc.valid = false;
}

const Workload &
Core::workload() const
{
    if (!appWorkload)
        panic("core ", cfg.coreId, " has no workload assigned");
    return *appWorkload;
}

WorkloadSample
Core::workloadSampleAt(Seconds t) const
{
    static const IdleWorkload idle;
    if (!appWorkload)
        return idle.sampleAt(t);
    return appWorkload->sampleAt(t - workloadStart);
}

double
Core::touchWeight(const CacheArray &array, unsigned slot,
                  const WeakLineInfo &line) const
{
    const std::uint64_t line_key =
        line.set * array.geometry().associativity + line.way;
    auto &weight_cache = touchWeightCache[slot];
    auto cached = weight_cache.find(line_key);
    if (cached == weight_cache.end()) {
        cached = weight_cache
                     .emplace(line_key,
                              appWorkload->lineTouchWeight(
                                  array.geometry().name, line.set,
                                  line.way, array.geometry().numLines()))
                     .first;
    }
    return cached->second;
}

std::uint64_t
Core::sampleTraffic(CacheArray &array,
                    const std::vector<WeakLineInfo> &lines,
                    double accesses, Millivolt v_eff, Seconds t, Rng &rng,
                    EccEventLog *log, bool &uncorrectable)
{
    if (accesses <= 0.0 || lines.empty() || !appWorkload)
        return 0;

    const Millivolt sigma_dyn = array.sram().distribution().sigmaDynamic;
    // Lines whose weakest cell sits more than ~6 sigma below the
    // effective supply cannot produce observable events.
    const Millivolt cutoff = v_eff - 6.0 * sigma_dyn;
    const unsigned slot = arraySlot(array);

    std::uint64_t correctable = 0;
    for (const auto &line : lines) {
        if (line.weakestVc < cutoff)
            break;  // Sorted weakest-first.
        if (array.isDeconfigured(line.set, line.way))
            continue;

        const double line_accesses =
            accesses * touchWeight(array, slot, line);
        if (line_accesses <= 0.0)
            continue;

        double p_corr = 0.0, p_uncorr = 0.0;
        array.lineEventProbabilities(line.set, line.way, v_eff, p_corr,
                                     p_uncorr);

        const std::uint64_t events =
            rng.poisson(line_accesses * p_corr);
        if (events > 0) {
            correctable += events;
            if (log) {
                EccEvent event;
                event.cacheName = array.geometry().name;
                event.set = line.set;
                event.way = line.way;
                event.status = EccStatus::correctedSingle;
                event.time = t;
                for (std::uint64_t e = 0; e < events; ++e)
                    log->record(event);
            }
        }
        if (p_uncorr > 0.0 &&
            rng.poisson(line_accesses * p_uncorr) > 0) {
            uncorrectable = true;
            if (log) {
                EccEvent event;
                event.cacheName = array.geometry().name;
                event.set = line.set;
                event.way = line.way;
                event.status = EccStatus::uncorrectable;
                event.time = t;
                log->record(event);
            }
        }
    }
    return correctable;
}

const Core::ArrayRateCache &
Core::cachedRates(CacheArray &array,
                  const std::vector<WeakLineInfo> &lines,
                  Millivolt v_eff) const
{
    const unsigned slot = arraySlot(array);
    ArrayRateCache &rc = rateCache[slot];
    const std::int64_t bucket = CacheArray::probBucketIndex(v_eff);
    const std::uint64_t generation = array.sram().generation();
    const std::uint64_t deconf = array.deconfGeneration();
    if (rc.valid && rc.bucket == bucket &&
        rc.generation == generation && rc.deconfGeneration == deconf)
        return rc;

    rc.bucket = bucket;
    rc.generation = generation;
    rc.deconfGeneration = deconf;
    rc.corrPerAccess = 0.0;
    rc.uncorrPerAccess = 0.0;
    rc.valid = true;
    if (!appWorkload || lines.empty())
        return rc;

    const Millivolt sigma_dyn = array.sram().distribution().sigmaDynamic;
    // Same ~6 sigma line cutoff as sampleTraffic, but anchored at the
    // bucket center so every voltage in the bucket derives the same
    // line set (a cache hit must not depend on where in the bucket the
    // rail sits).
    const Millivolt v_eval = Millivolt(bucket) * CacheArray::probQuantMv;
    const Millivolt cutoff = v_eval - 6.0 * sigma_dyn;

    for (const auto &line : lines) {
        if (line.weakestVc < cutoff)
            break;  // Sorted weakest-first.
        if (array.isDeconfigured(line.set, line.way))
            continue;

        const double weight = touchWeight(array, slot, line);
        if (weight <= 0.0)
            continue;

        double p_corr = 0.0, p_uncorr = 0.0;
        array.lineEventProbabilitiesQuantized(line.set, line.way, v_eff,
                                              p_corr, p_uncorr);
        rc.corrPerAccess += weight * p_corr;
        rc.uncorrPerAccess += weight * p_uncorr;
    }
    return rc;
}

CoreTickResult
Core::tickRates(Seconds t, Seconds dt, Millivolt v_eff,
                double &lambda_corr, double &lambda_uncorr)
{
    CoreTickResult result;

    const WorkloadSample sample = workloadSampleAt(t);
    result.activity = sample.activity;

    if (crashed())
        return result;

    if (v_eff < logicFloorMv) {
        crashReason = CrashReason::logicFailure;
        result.crash = crashReason;
        return result;
    }
    if (!appWorkload)
        return result;

    const double instr_per_sec =
        sample.ipc * cfg.operatingPoint.frequency * 1e6;
    const std::array<double, 3> accesses = {
        sample.l2iAccessesPerSec * dt,
        sample.l2dAccessesPerSec * dt,
        instr_per_sec * 2.0 * cfg.rfAccessSensitization * dt,
    };
    const std::array<CacheArray *, 3> arrays = {&l2iArray(), &l2dArray(),
                                                &rfArray()};
    for (unsigned i = 0; i < 3; ++i) {
        if (accesses[i] <= 0.0 || weakLines[i].empty())
            continue;
        const ArrayRateCache &rc =
            cachedRates(*arrays[i], weakLines[i], v_eff);
        lambda_corr += accesses[i] * rc.corrPerAccess;
        lambda_uncorr += accesses[i] * rc.uncorrPerAccess;
    }
    return result;
}

CoreTickResult
Core::tick(Seconds t, Seconds dt, Millivolt v_eff, Rng &rng,
           EccEventLog *log)
{
    CoreTickResult result;

    const WorkloadSample sample = workloadSampleAt(t);
    result.activity = sample.activity;

    if (crashed())
        return result;

    if (v_eff < logicFloorMv) {
        crashReason = CrashReason::logicFailure;
        result.crash = crashReason;
        return result;
    }

    bool uncorrectable = false;

    result.correctableEvents += sampleTraffic(
        l2iArray(), weakLines[0], sample.l2iAccessesPerSec * dt, v_eff, t,
        rng, log, uncorrectable);
    result.correctableEvents += sampleTraffic(
        l2dArray(), weakLines[1], sample.l2dAccessesPerSec * dt, v_eff, t,
        rng, log, uncorrectable);

    // Register-file traffic: ~2 operand reads per instruction, scaled
    // by the fraction that can actually sensitize a weak bit.
    const double instr_per_sec =
        sample.ipc * cfg.operatingPoint.frequency * 1e6;
    result.correctableEvents += sampleTraffic(
        rfArray(), weakLines[2],
        instr_per_sec * 2.0 * cfg.rfAccessSensitization * dt, v_eff, t,
        rng, log, uncorrectable);

    if (uncorrectable) {
        crashReason = CrashReason::uncorrectableError;
        result.crash = crashReason;
    }
    return result;
}

void
Core::saveState(StateWriter &w) const
{
    w.putU8(std::uint8_t(crashReason));
    w.putDouble(workloadStart);
    l2iArray().saveState(w);
    l2dArray().saveState(w);
    registerFile->saveState(w);
}

void
Core::loadState(StateReader &r)
{
    const std::uint8_t reason = r.getU8();
    if (reason > std::uint8_t(CrashReason::logicFailure))
        throw SnapshotError("invalid crash reason " +
                            std::to_string(unsigned(reason)));
    crashReason = CrashReason(reason);
    workloadStart = r.getDouble();
    l2iArray().loadState(r);
    l2dArray().loadState(r);
    registerFile->loadState(r);
    // Aged voltages may differ from the freshly constructed ones.
    refreshWeakLines();
}

} // namespace vspec
