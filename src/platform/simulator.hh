/**
 * @file
 * Discrete-tick whole-chip simulator.
 *
 * Per tick:
 *  1. sample every core's workload -> per-domain rail activity,
 *  2. compute each domain's effective voltage (regulator - droop),
 *  3. advance every core (workload-induced ECC events, crash checks),
 *  4. run the active ECC monitors' probe bursts,
 *  5. recover crashed cores (if a RecoveryManager is attached) and
 *     fire the controllers' post-recovery backoff hooks, then run the
 *     attached controllers (hardware control system and/or the
 *     software speculators) and user hooks,
 *  6. slew the regulators, advance the PDN transient clock, account
 *     energy (including recovery stalls and energy), sample telemetry.
 *
 * An attached FaultInjector runs before phase 2 so injected droop
 * transients and machine checks are visible within the same tick.
 */

#ifndef VSPEC_PLATFORM_SIMULATOR_HH
#define VSPEC_PLATFORM_SIMULATOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "cache/ecc_event.hh"
#include "common/sampling.hh"
#include "core/software_speculator.hh"
#include "core/voltage_controller.hh"
#include "platform/chip.hh"
#include "platform/trace.hh"
#include "power/energy.hh"
#include "resilience/fault_injector.hh"
#include "resilience/recovery_manager.hh"

namespace vspec
{

class Simulator
{
  public:
    explicit Simulator(Chip &chip, Seconds tick = 1e-3);

    Chip &chip() { return *chip_; }
    Seconds now() const { return currentTime; }
    Seconds tickSize() const { return tick_; }

    /** Attach the hardware voltage control system (owned elsewhere). */
    void attachControlSystem(VoltageControlSystem *system);

    /**
     * Attach a software speculator for one domain (the firmware
     * baseline); it receives that domain's workload error counts and
     * charges its handling overhead to the domain's cores' energy.
     */
    void attachSoftwareSpeculator(unsigned domain,
                                  SoftwareSpeculator *speculator);

    /**
     * Attach a recovery manager (owned elsewhere): crashed managed
     * cores are serviced each tick, their lost work and recovery
     * energy are charged to the energy accounts, and the attached
     * controllers' notifyRecovery() hooks fire for the affected
     * domains.
     */
    void attachRecoveryManager(RecoveryManager *manager);

    /** Attach a fault injector (owned elsewhere); runs every tick. */
    void attachFaultInjector(FaultInjector *injector);

    /** Arbitrary per-tick hook, run after controllers. */
    using Hook = std::function<void(Seconds t, Seconds dt)>;
    void addHook(Hook hook) { hooks.push_back(std::move(hook)); }

    /** Start recording telemetry every @p interval seconds. */
    void enableTrace(Seconds interval);
    const Trace &trace() const { return trace_; }

    /**
     * Traffic-sampling fidelity (default exact). Chip-batched mode:
     * every tick, all cores' rates, each at its own domain's effective
     * voltage, superpose into ONE whole-chip Poisson draw plus one
     * survival draw, with events apportioned back to cores by largest
     * remainder. Same event-count distribution, different RNG draw
     * sequence (see common/sampling.hh), so it is opt-in for
     * sweep/fleet drivers that only consume aggregate statistics.
     */
    void setSamplingMode(SamplingMode mode) { samplingMode_ = mode; }
    SamplingMode samplingMode() const { return samplingMode_; }

    /** Advance the simulation. */
    void run(Seconds duration);

    /**
     * Advance exactly @p n ticks with no end-of-run telemetry flush.
     * run() flushes a final partial trace sample, so run(a); run(b)
     * and run(a + b) differ when a trace is enabled; runTicks composes
     * exactly, which is what checkpoint/replay drivers need.
     */
    void runTicks(std::uint64_t n);

    /** Workload-induced ECC events (monitor probes not included). */
    const EccEventLog &eventLog() const { return log; }
    EccEventLog &eventLog() { return log; }

    /** Per-core accumulated energy. */
    const EnergyAccount &coreEnergy(unsigned core) const
    {
        return coreEnergy_.at(core);
    }
    /** Whole-chip accumulated energy (includes uncore). */
    const EnergyAccount &chipEnergy() const { return chipEnergy_; }

    /** True if any core has crashed. */
    bool anyCrashed() const;

    /** Cumulative correctable events per core from workload traffic. */
    std::uint64_t coreCorrectableEvents(unsigned core) const
    {
        return coreEvents.at(core);
    }

    /**
     * Per-mem-domain accumulated energy (refresh + check-cell leakage
     * under EnergyCategory::memRefresh, the demand access stream under
     * EnergyCategory::memAccess).
     */
    const EnergyAccount &memEnergy(unsigned mem_domain) const
    {
        return memEnergy_.at(mem_domain);
    }
    /** Cumulative monitor probe traffic for one mem domain. */
    const ProbeStats &memProbeStats(unsigned mem_domain) const
    {
        return memProbeAccum.at(mem_domain);
    }
    /** Cumulative correctable events from mem-domain traffic. */
    std::uint64_t memCorrectableEvents(unsigned mem_domain) const
    {
        return memEvents_.at(mem_domain);
    }

    /**
     * Serialize the full dynamic state of the simulation into named,
     * checksummed sections: the chip (RNGs, PDN transient, regulators,
     * cores, monitors), the simulator's own clock/energy/telemetry and
     * every attached component. Hooks are code, not state — the owner
     * re-adds them on reconstruction.
     *
     * restore() expects a simulator freshly reconstructed from the same
     * configuration with the same components attached (it verifies tick
     * size, attachment presence and all structural counts). After
     * restore, running N more ticks is bit-identical to the
     * uninterrupted run — including RNG streams and trace emission.
     */
    void snapshot(StateWriter &w) const;
    void restore(StateReader &r);

  private:
    Chip *chip_;
    Seconds tick_;
    Seconds currentTime = 0.0;

    VoltageControlSystem *controlSystem = nullptr;
    std::vector<SoftwareSpeculator *> softwareSpecs;
    RecoveryManager *recovery = nullptr;
    FaultInjector *injector = nullptr;
    std::vector<Hook> hooks;

    EccEventLog log;
    std::vector<EnergyAccount> coreEnergy_;
    EnergyAccount chipEnergy_;
    std::vector<std::uint64_t> coreEvents;

    /** Monitor probe stats per domain, accumulated per trace interval. */
    std::vector<ProbeStats> traceProbeAccum;
    /** Mem-domain monitor probe stats, accumulated since start. */
    std::vector<ProbeStats> memProbeAccum;
    /** Cumulative mem-domain workload correctable events. */
    std::vector<std::uint64_t> memEvents_;
    /** Per-mem-domain energy accounts. */
    std::vector<EnergyAccount> memEnergy_;
    std::uint64_t traceWorkloadErrors = 0;
    Seconds traceInterval = 0.0;
    Seconds sinceTraceSample = 0.0;
    Trace trace_;

    Rng simRng;
    SamplingMode samplingMode_ = SamplingMode::exact;

    /**
     * Per-tick scratch, reused across steps so the hot loop performs no
     * heap allocation in steady state.
     */
    std::vector<FaultInjector::CorrectableInjection> injectedScratch;
    std::vector<std::uint64_t> domainEventsScratch;

    /** Chip-batched scratch: per-domain voltages, per-core rates and
     *  the largest-remainder event split (reused across ticks). */
    std::vector<Millivolt> domainVeffScratch;
    std::vector<double> coreLambdaCorr;
    std::vector<double> coreLambdaUnc;
    std::vector<std::uint64_t> coreEventSplit;
    std::vector<std::pair<double, std::uint32_t>> remainderScratch;

    void step(Seconds dt);

    /**
     * Phases 3-4 of one tick in whole-chip aggregate form (see
     * setSamplingMode): per-core rate accumulation, one chip-level
     * Poisson + survival draw, then the monitor bursts in the same
     * per-domain order as the exact path.
     */
    void stepChipAggregate(Seconds t, Seconds dt,
                           std::vector<std::uint64_t> &domainEvents);

    /**
     * Largest-remainder apportionment of @p total correctable events
     * over coreLambdaCorr into coreEventSplit — deterministic given the
     * aggregate draw, so the split costs no extra randomness.
     */
    void apportionEvents(std::uint64_t total, double weight_sum);

    void recordTraceSample();
};

} // namespace vspec

#endif // VSPEC_PLATFORM_SIMULATOR_HH
