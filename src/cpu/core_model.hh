/**
 * @file
 * In-order core model.
 *
 * A Core owns the per-core structures of the Itanium 9560: split L1
 * instruction/data caches over private L2 instruction/data caches, an
 * ECC-protected register file, and two hardware threads (the paper's
 * firmware framework claims thread 1 of each core for the self-test
 * while the OS schedules applications on thread 0).
 *
 * The core is not cycle-accurate. Per simulation tick it converts the
 * assigned workload's demands into (a) rail activity and (b) Poisson-
 * sampled ECC events on the weak lines its traffic touches, and it
 * detects the two crash conditions: an uncorrectable (double-bit) cache
 * error, or the effective supply dropping below the core logic's
 * critical voltage.
 */

#ifndef VSPEC_CPU_CORE_MODEL_HH
#define VSPEC_CPU_CORE_MODEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/operating_point.hh"
#include "variation/process_variation.hh"
#include "workload/workload.hh"

namespace vspec
{

/** Why a core stopped operating correctly. */
enum class CrashReason
{
    none,
    /** Double-bit ECC error (data corruption). */
    uncorrectableError,
    /** Core logic below its critical voltage. */
    logicFailure,
};

/** Result of advancing one core by one tick. */
struct CoreTickResult
{
    std::uint64_t correctableEvents = 0;
    CrashReason crash = CrashReason::none;
    /** Rail demand this tick. */
    ActivityProfile activity;
};

class Core
{
  public:
    struct Config
    {
        unsigned coreId = 0;
        OperatingPoint operatingPoint = OperatingPoint::low();
        Celsius temperature = 60.0;
        /**
         * Materialization floor in sigmas above each array's mean Vc;
         * lower values model deeper sweeps at higher memory cost.
         */
        double materializeZ = 3.25;
        /** Register file capacity (Table I: 1.38 KB int + 1.25 KB fp). */
        std::uint64_t registerFileBytes = 2692;
        /**
         * Fraction of register reads that can sensitize a weak RF bit:
         * an RF correctable error needs the read to target the weak
         * register while it holds a sensitizing data pattern, so the
         * effective event rate is far below the raw operand-read rate.
         */
        double rfAccessSensitization = 3e-5;
        /**
         * Protection tier of every ECC-protected array on this core
         * (caches and register file). Must be a word-level scheme.
         */
        EccScheme eccScheme = EccScheme::hamming;
    };

    Core(const Config &config, const VariationModel &variation, Rng &rng);

    unsigned id() const { return cfg.coreId; }
    const Config &config() const { return cfg; }
    const OperatingPoint &operatingPoint() const
    {
        return cfg.operatingPoint;
    }

    /** Instruction-side L1+L2 pair. */
    CacheHierarchy &iSide() { return *instructionSide; }
    /** Data-side L1+L2 pair. */
    CacheHierarchy &dSide() { return *dataSide; }
    const CacheHierarchy &iSide() const { return *instructionSide; }
    const CacheHierarchy &dSide() const { return *dataSide; }

    CacheArray &l2iArray() { return instructionSide->l2().dataArray(); }
    CacheArray &l2dArray() { return dataSide->l2().dataArray(); }
    CacheArray &rfArray() { return *registerFile; }
    const CacheArray &l2iArray() const
    {
        return instructionSide->l2().dataArray();
    }
    const CacheArray &l2dArray() const
    {
        return dataSide->l2().dataArray();
    }
    const CacheArray &rfArray() const { return *registerFile; }

    /** Crash floor of this core's logic at its operating point (mV). */
    Millivolt logicFloor() const { return logicFloorMv; }

    /** Assign the application running on hardware thread 0. */
    void setWorkload(std::shared_ptr<Workload> workload,
                     Seconds start_time = 0.0);
    const Workload &workload() const;
    bool hasWorkload() const { return bool(appWorkload); }

    /** Workload demands at absolute simulation time t. */
    WorkloadSample workloadSampleAt(Seconds t) const;

    /**
     * Advance the core by one tick at effective supply v_eff:
     * Poisson-samples correctable/uncorrectable ECC events from the
     * workload's L2 and register-file traffic and checks the logic
     * floor. Events are appended to @p log if non-null.
     */
    CoreTickResult tick(Seconds t, Seconds dt, Millivolt v_eff, Rng &rng,
                        EccEventLog *log = nullptr);

    /**
     * Rate-only flavor of tick for the chip-batched sampling mode: the
     * crash-floor check and activity accounting run exactly as in
     * tick(), but instead of drawing events the core adds this tick's
     * aggregate correctable rate and uncorrectable hazard (at the
     * center of v_eff's quantization bucket) to the two accumulators.
     * The Simulator calls it every chip-batched tick, each core at its
     * own domain's v_eff, then performs one superposed Poisson draw
     * and one survival draw for the whole chip and attributes events
     * back by thinning. Backed by a per-array rate cache keyed on the
     * voltage bucket, the SRAM generation and the deconfiguration
     * generation, so steady-rail ticks cost three cache hits instead
     * of a weak-line walk.
     */
    CoreTickResult tickRates(Seconds t, Seconds dt, Millivolt v_eff,
                             double &lambda_corr, double &lambda_uncorr);

    bool crashed() const { return crashReason != CrashReason::none; }
    CrashReason crashReason_() const { return crashReason; }
    /** Clear the crash latch (used between sweep steps). */
    void clearCrash() { crashReason = CrashReason::none; }

    /**
     * Latch an externally raised machine check (fault injection): the
     * core behaves exactly as if its own traffic had hit the fault.
     */
    void injectCrash(CrashReason reason) { crashReason = reason; }

    /**
     * Refresh the cached weak-line lists (call after aging shifts the
     * arrays under the model's feet).
     */
    void refreshWeakLines();

    /** Sorted (weakest-first) weak lines of each monitored array. */
    const std::vector<WeakLineInfo> &weakLinesOf(
        const CacheArray &array) const;

    /**
     * Serialize the crash latch, workload start time and all three
     * ECC-protected arrays (L2I, L2D, RF). The workload object itself
     * is reconstruction state (re-assigned by the owner before
     * loadState overlays the start time); loadState refreshes the
     * cached weak-line lists afterwards.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    Config cfg;
    Millivolt logicFloorMv;

    std::unique_ptr<CacheHierarchy> instructionSide;
    std::unique_ptr<CacheHierarchy> dataSide;
    std::unique_ptr<CacheArray> registerFile;

    std::shared_ptr<Workload> appWorkload;
    Seconds workloadStart = 0.0;

    CrashReason crashReason = CrashReason::none;

    /** Cached weak lines, parallel to {l2i, l2d, rf}. */
    std::array<std::vector<WeakLineInfo>, 3> weakLines;

    /**
     * Per-array memo of the workload's line touch weights (the weight
     * is deterministic per workload x line but costs a string hash to
     * compute); cleared when the workload changes.
     */
    mutable std::array<std::unordered_map<std::uint64_t, double>, 3>
        touchWeightCache;

    /**
     * Per-array aggregate rate memo for tickRates: the traffic-weighted
     * per-access correctable rate and uncorrectable hazard at one
     * voltage bucket's center. Invalidated by rail movement across a
     * bucket edge, aging (SRAM generation), deconfiguration changes
     * and workload reassignment (cleared in setWorkload).
     */
    struct ArrayRateCache
    {
        std::int64_t bucket = 0;
        std::uint64_t generation = 0;
        std::uint64_t deconfGeneration = 0;
        double corrPerAccess = 0.0;
        double uncorrPerAccess = 0.0;
        bool valid = false;
    };
    mutable std::array<ArrayRateCache, 3> rateCache;

    /** Fill (or reuse) an array's rate cache entry for v_eff's bucket. */
    const ArrayRateCache &cachedRates(CacheArray &array,
                                      const std::vector<WeakLineInfo> &lines,
                                      Millivolt v_eff) const;

    unsigned arraySlot(const CacheArray &array) const;

    /** Memoized touch weight of @p line in the array at @p slot. */
    double touchWeight(const CacheArray &array, unsigned slot,
                       const WeakLineInfo &line) const;

    /**
     * Sample ECC events from traffic on one array: one Poisson draw per
     * touched weak line, each recorded in @p log if non-null.
     * @return number of correctable events; sets uncorrectable flag.
     */
    std::uint64_t sampleTraffic(CacheArray &array,
                                const std::vector<WeakLineInfo> &lines,
                                double accesses, Millivolt v_eff,
                                Seconds t, Rng &rng, EccEventLog *log,
                                bool &uncorrectable);

    static CacheGeometry registerFileGeometry(std::uint64_t bytes);
};

} // namespace vspec

#endif // VSPEC_CPU_CORE_MODEL_HH
