/**
 * @file
 * Correlated fleet-scale fault injection over declared failure domains.
 *
 * The per-chip FaultInjector models faults as independent per-chip
 * Poisson processes. At datacenter scale that is the wrong null
 * hypothesis: the availability events that matter are *correlated* —
 * a droop on a shared PDN rail hits every chip fed by that rail at
 * once, a failed CRAC unit heats a whole thermal zone, and a marginal
 * firmware rollout turns an entire rack into a DUE storm. The
 * FleetFaultInjector groups the fleet's chips into declared failure
 * domains of three kinds (rail group, rack, thermal zone — each a
 * contiguous block of chip indices, matching how racks are cabled) and
 * schedules correlated events per domain:
 *
 *   - rail-group droop: a shared-rail transient that subtracts
 *     magnitude mV from every member chip's effective margin for the
 *     event duration (the cold path fans it out to each member chip's
 *     PdnModel::injectTransient);
 *   - rack DUE storm: an additive detected-uncorrectable rate on every
 *     member chip for the duration — the aggregate signature of a bad
 *     batch, a cosmic shower, or a rolled-out marginal setting;
 *   - thermal excursion: the zone runs delta degrees hot (the cold
 *     path drives setTemperature on member mem domains; the scale
 *     path maps the excursion to a margin penalty, hot cells being
 *     weak cells).
 *
 * Determinism contract: event schedules are drawn from one private RNG
 * per domain kind, forked off mix64(fleet seed, kind tag), with
 * exactly one Poisson draw per domain per slice regardless of
 * outcomes — so the stream position is a pure function of the slice
 * count and a campaign is byte-identical for every worker-thread
 * count. beginSlice runs in the fleet's serial phase; the effect
 * queries (marginPenaltyMv, dueStormRate, thermalDeltaC) are read-only
 * and safe from concurrent shard tasks.
 */

#ifndef VSPEC_RESILIENCE_FLEET_CHAOS_HH
#define VSPEC_RESILIENCE_FLEET_CHAOS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"

namespace vspec
{

class StateWriter;
class StateReader;

/** The declared failure-domain kinds, in serialization order. */
enum class FailureDomainKind : std::uint8_t
{
    railGroup = 0,
    rack = 1,
    thermalZone = 2,
};

constexpr unsigned kNumFailureDomainKinds = 3;

const char *failureDomainKindName(FailureDomainKind kind);

/** Correlated-event configuration; all kinds default to disabled. */
struct FleetChaosConfig
{
    /** Chips per shared-rail group; 0 disables rail-droop events. */
    unsigned railGroupSize = 0;
    /** Droop onsets per rail group per hour. */
    double railDroopsPerHour = 0.0;
    /** Margin each member chip loses while the droop is active. */
    Millivolt railDroopMagnitudeMv = 60.0;
    Seconds railDroopDuration = 2.0;

    /** Chips per rack; 0 disables DUE-storm events. */
    unsigned rackSize = 0;
    /** Storm onsets per rack per hour. */
    double dueStormsPerHour = 0.0;
    /** Additive DUE rate on each member chip during a storm (1/s). */
    double dueStormRate = 1.0;
    Seconds dueStormDuration = 3.0;

    /** Chips per thermal zone; 0 disables thermal excursions. */
    unsigned thermalZoneSize = 0;
    /** Excursion onsets per zone per hour. */
    double thermalEventsPerHour = 0.0;
    /** Degrees above reference while the excursion is active. */
    Celsius thermalDeltaC = 25.0;
    /** Scale-path margin penalty of a hot zone (mV). */
    Millivolt thermalMarginPenaltyMv = 20.0;
    Seconds thermalDuration = 5.0;

    /** Salted into the per-kind RNG streams alongside the fleet seed. */
    std::uint64_t streamSalt = 0xC0A5ULL;

    /** True when any event kind is live (size > 0 and rate > 0). */
    bool armed() const;
};

class FleetFaultInjector
{
  public:
    FleetFaultInjector(const FleetChaosConfig &config,
                       std::uint64_t fleet_seed, unsigned num_chips);

    const FleetChaosConfig &config() const { return cfg; }
    unsigned numChips() const { return chips; }

    /** Chips per domain of @p kind; 0 when the kind is disabled. */
    unsigned domainSize(FailureDomainKind kind) const;
    /** Domains of @p kind (0 when disabled). */
    unsigned numDomains(FailureDomainKind kind) const;
    /** The domain of @p kind that owns @p chip. */
    unsigned domainOf(FailureDomainKind kind, unsigned chip) const;

    /**
     * Advance the event clock by one fleet slice: expire events that
     * ran out during the previous slice, then draw this slice's onsets
     * (one Poisson per domain per kind, always). Serial-phase only.
     */
    void beginSlice(Seconds slice_width);

    /** Active rail-group droop on @p chip's rail (0 when quiet). */
    Millivolt railDroopMv(unsigned chip) const;
    /** Active thermal excursion over @p chip's zone (0 when cool). */
    Celsius thermalDeltaC(unsigned chip) const;
    /** Combined scale-path margin penalty: droop + thermal (mV). */
    Millivolt marginPenaltyMv(unsigned chip) const;
    /** Additive DUE rate from an active rack storm (1/s). */
    double dueStormRate(unsigned chip) const;
    /** True when a @p kind event is active over @p chip's domain. */
    bool eventActive(FailureDomainKind kind, unsigned chip) const;
    /** True when any kind's event is active over @p chip. */
    bool anyEventActive(unsigned chip) const;

    /** Events started so far for @p kind. */
    std::uint64_t eventsStarted(FailureDomainKind kind) const;
    /** Per-domain onset counts for @p kind (empty when disabled). */
    const std::vector<std::uint64_t> &
    domainEvents(FailureDomainKind kind) const;

    /** Serialize the per-kind RNGs, remaining-durations and counters. */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    struct KindState
    {
        unsigned size = 0;
        /** Onset rate per domain (1/s); 0 disables. */
        double onsetRate = 0.0;
        Seconds duration = 0.0;
        Rng rng;
        /** Seconds each domain's event has left; <= 0 when idle. */
        std::vector<double> remaining;
        std::vector<std::uint64_t> events;
        std::uint64_t started = 0;

        KindState() : rng(0) {}
        bool live() const { return size > 0 && onsetRate > 0.0; }
    };

    FleetChaosConfig cfg;
    unsigned chips = 0;
    /** Width of the previous slice, pending expiry at the next
     *  beginSlice (so events drawn this slice stay active through it). */
    Seconds pendingDecay = 0.0;
    std::array<KindState, kNumFailureDomainKinds> kinds;

    const KindState &kindState(FailureDomainKind kind) const
    {
        return kinds[std::size_t(kind)];
    }
};

/**
 * Chip-health lifecycle thresholds shared by the cold Fleet (windowed
 * recovery rate) and the hot ShardedFleet (windowed DUE rate). The FSM
 * is healthy -> degraded -> quarantined -> self-testing -> probation ->
 * healthy, with hysteresis between degradeRate and healthyRate so a
 * chip riding the threshold does not flap. stepHealth below is the one
 * implementation of its edges.
 */
struct HealthConfig
{
    bool enabled = false;
    /** Decay time constant of the windowed event-rate EWMA (s). */
    Seconds windowTau = 5.0;
    /** Enter degraded at or above this windowed rate (events/s). */
    double degradeRate = 0.05;
    /** Enter quarantine at or above this windowed rate (events/s). */
    double quarantineRate = 0.2;
    /** Hysteresis: degraded drops back to healthy below this. */
    double healthyRate = 0.02;
    /** Drain/park window after quarantine entry, before the firmware
     *  self-test begins (s). */
    Seconds quarantineHold = 0.5;
    /** Firmware self-test length at elevated Vdd (s). */
    Seconds selfTestDuration = 2.0;
    /** Self-test rail elevation above nominal (mV, scale path). */
    Millivolt selfTestBoostMv = 50.0;
    /** Probationary window after re-admission (s). */
    Seconds probationDuration = 5.0;
};

/** Per-chip health FSM states, in escalation order. */
enum class ChipHealth : std::uint8_t
{
    healthy = 0,
    degraded = 1,
    quarantined = 2,
    selfTesting = 3,
    probation = 4,
};

const char *chipHealthName(ChipHealth health);

/** Quarantined and self-testing chips take no placements. */
inline bool
healthSchedulable(ChipHealth health)
{
    return health != ChipHealth::quarantined &&
           health != ChipHealth::selfTesting;
}

/** Fatal unless an enabled config has positive window and state
 *  durations, ordered thresholds and a non-negative self-test boost. */
void validate(const HealthConfig &hc);

/** Decode a snapshot's health state; throws SnapshotError when out of
 *  range. */
ChipHealth decodeChipHealth(std::uint64_t raw);

/** The side effect a health step asks its fleet to apply. */
enum class HealthEvent : std::uint8_t
{
    none = 0,
    /** Entered quarantine: drain the chip's work. */
    quarantine = 1,
    /** Passed its self-test: back online on probation. */
    readmit = 2,
};

/** One chip's health after a slice. */
struct HealthStep
{
    ChipHealth state;
    /** Seconds left in the quarantine hold, self-test or probation. */
    Seconds timer;
    /** Windowed event-rate EWMA, this slice folded in (1/s). */
    double window;
    HealthEvent event;
};

/**
 * One slice of the chip-health FSM, shared by both fleets (the cold
 * Fleet feeds recoveries, the hot ShardedFleet DUEs). Folds
 * @p slice_rate (this slice's events / slice) into the window with
 * the precomputed @p window_decay = exp(-slice / windowTau), then
 * takes at most one edge:
 *   - healthy/degraded: quarantine at window >= quarantineRate;
 *     healthy degrades at >= degradeRate; degraded heals below
 *     healthyRate;
 *   - quarantined: self-test when the hold runs out;
 *   - self-testing: when the test ends, re-run it while the window is
 *     still >= degradeRate, else readmit on probation;
 *   - probation: any event this slice sends the chip back to
 *     quarantine; otherwise healthy when the probation runs out.
 * A timer that lands exactly on 0 fires. Pure and inline: the hot
 * fleet calls it once per chip per slice.
 */
inline HealthStep
stepHealth(const HealthConfig &hc, ChipHealth state, Seconds timer,
           double window, double slice_rate, Seconds slice,
           double window_decay)
{
    HealthStep next{state, timer,
                    window * window_decay +
                        (1.0 - window_decay) * slice_rate,
                    HealthEvent::none};
    const auto quarantine = [&] {
        next.state = ChipHealth::quarantined;
        next.timer = hc.quarantineHold;
        next.event = HealthEvent::quarantine;
    };
    switch (state) {
      case ChipHealth::healthy:
        if (next.window >= hc.quarantineRate)
            quarantine();
        else if (next.window >= hc.degradeRate)
            next.state = ChipHealth::degraded;
        break;
      case ChipHealth::degraded:
        if (next.window >= hc.quarantineRate)
            quarantine();
        else if (next.window < hc.healthyRate)
            next.state = ChipHealth::healthy;
        break;
      case ChipHealth::quarantined:
        next.timer -= slice;
        if (next.timer <= 0.0) {
            next.state = ChipHealth::selfTesting;
            next.timer = hc.selfTestDuration;
        }
        break;
      case ChipHealth::selfTesting:
        next.timer -= slice;
        if (next.timer > 0.0)
            break;
        if (next.window >= hc.degradeRate) {
            next.timer = hc.selfTestDuration; // still noisy: re-run
        } else {
            next.state = ChipHealth::probation;
            next.timer = hc.probationDuration;
            next.event = HealthEvent::readmit;
        }
        break;
      case ChipHealth::probation:
        if (slice_rate > 0.0) {
            quarantine();
            break;
        }
        next.timer -= slice;
        if (next.timer <= 0.0)
            next.state = ChipHealth::healthy;
        break;
    }
    return next;
}

} // namespace vspec

#endif // VSPEC_RESILIENCE_FLEET_CHAOS_HH
