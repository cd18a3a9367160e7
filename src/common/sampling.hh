/**
 * @file
 * Fault-sampling fidelity knob shared by the sweep engines, the
 * Simulator and the Fleet. This header is the one place that knows the
 * mode set: its names (CLI values) and its snapshot encoding.
 *
 * The exact mode reproduces the historical draw-for-draw behaviour:
 * one Poisson/binomial draw per weak line per tick (or per pattern
 * pass per line in the calibration sweeps), so experiment outputs are
 * byte-identical across code versions. The chip-batched mode exploits
 * two closure properties of the error model — sums of independent
 * Poisson processes are Poisson, and "no uncorrectable on any line" is
 * the product of per-line survival probabilities — to replace the
 * per-line draws of an epoch at (quantized-)constant effective voltage
 * with a single draw from the aggregate. The sampled distributions are
 * unchanged (statistical regression tests pin this); the RNG draw
 * sequence is not, which is why chip-batched is opt-in.
 */

#ifndef VSPEC_COMMON_SAMPLING_HH
#define VSPEC_COMMON_SAMPLING_HH

#include <array>
#include <cstdint>
#include <string>

#include "snapshot/state_io.hh"

namespace vspec
{

/**
 * The values are the snapshot encoding. 1 belonged to a retired
 * per-array "batched" mode and stays unassigned, so a snapshot that
 * carries it is refused rather than reinterpreted.
 */
enum class SamplingMode
{
    /**
     * Per-line, per-pattern draws with exact-voltage probability
     * lookups — bit-identical to the pre-LUT implementation.
     */
    exact = 0,
    /**
     * Chip/slice-granularity batching: one aggregate correctable draw
     * and one survival draw per chip per tick over every core's rates,
     * each taken at the center of its own domain's quantization bucket
     * (per-fleet-slice bucket pooling in ShardedFleet). Events are
     * attributed back to cores by apportionment; per-line ECC
     * event-log attribution is skipped.
     */
    chipBatched = 2,
};

/** Every mode, in CLI/usage order. */
constexpr std::array<SamplingMode, 2> samplingModes = {
    SamplingMode::exact, SamplingMode::chipBatched};

/** Human-readable mode name (the --sampling value of the benches). */
inline const char *
samplingModeName(SamplingMode mode)
{
    switch (mode) {
      case SamplingMode::exact:
        return "exact";
      case SamplingMode::chipBatched:
        return "chip-batched";
    }
    return "unknown";
}

/**
 * Decode a snapshot's sampling-mode byte; throws SnapshotError for the
 * retired batched mode (1) and for any value no mode carries.
 */
inline SamplingMode
decodeSamplingMode(std::uint64_t raw)
{
    for (const SamplingMode mode : samplingModes) {
        if (raw == std::uint64_t(mode))
            return mode;
    }
    if (raw == 1)
        throw SnapshotError("sampling mode 1 (batched) was retired; "
                            "re-run under exact or chip-batched");
    throw SnapshotError("invalid sampling mode " + std::to_string(raw));
}

} // namespace vspec

#endif // VSPEC_COMMON_SAMPLING_HH
