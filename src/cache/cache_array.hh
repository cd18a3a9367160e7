/**
 * @file
 * ECC-protected cache data array.
 *
 * CacheArray owns the stored codewords and the statistical SRAM model
 * of the bit cells. Reads come in two flavors:
 *
 *  - readLine(): bit-accurate — samples individual cell failures,
 *    applies them to the stored codeword, and runs the real SECDED
 *    decoder. Used by the functional cache paths and the sweep engines.
 *
 *  - probeLine(): aggregate — computes per-word single/multi flip
 *    probabilities analytically from the line's weak cells and samples
 *    event *counts* binomially. Used by the hardware ECC monitor, which
 *    issues tens of thousands of probes per control interval.
 *
 * Both paths are driven by the same weak-cell population, so they agree
 * statistically (a property test pins this).
 */

#ifndef VSPEC_CACHE_CACHE_ARRAY_HH
#define VSPEC_CACHE_CACHE_ARRAY_HH

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cache/ecc_event.hh"
#include "cache/geometry.hh"
#include "common/rng.hh"
#include "common/sampling.hh"
#include "common/units.hh"
#include "ecc/codec.hh"
#include "sram/sram_array.hh"

namespace vspec
{

class StateWriter;
class StateReader;
class CounterRng;

/** A weak line summary: where it is and how weak. */
struct WeakLineInfo
{
    std::uint64_t set = 0;
    unsigned way = 0;
    /** Critical voltage of the line's weakest cell (mV). */
    Millivolt weakestVc = 0.0;
    /** Number of materialized weak cells in the line. */
    unsigned weakCellCount = 0;
    /**
     * Offsets of this line's weak cells into the owning array's sorted
     * weak-cell population ([cellBegin, cellEnd)) — the hoisted range
     * that makes line -> weak-cells lookup O(1) on the hot path
     * (resolve with CacheArray::weakSpanAt or lineWeakSpan).
     */
    std::uint32_t cellBegin = 0;
    std::uint32_t cellEnd = 0;
};

/** Result of a bit-accurate line read. */
struct LineReadResult
{
    std::vector<std::uint64_t> data;
    std::vector<EccEvent> events;
    bool uncorrectable = false;
};

class CacheArray
{
  public:
    /**
     * @param geometry cache shape (validated)
     * @param dist critical-voltage distribution of the data array cells
     * @param v_floor lowest supply the experiments will apply (mV)
     * @param rng generator for the weak-cell draw
     */
    CacheArray(const CacheGeometry &geometry, const VcDistribution &dist,
               Millivolt v_floor, Rng &rng);

    const CacheGeometry &geometry() const { return geo; }
    const SramArray &sram() const { return cells; }
    SramArray &sram() { return cells; }
    /** The protection codec (shared registry instance, geo.eccScheme). */
    const EccCodec &codec() const { return *eccCodec; }

    /** Store a full line of data words (encodes each word). */
    void writeLine(std::uint64_t set, unsigned way,
                   const std::vector<std::uint64_t> &words);

    /** Store a repeating test pattern into the line. */
    void writePattern(std::uint64_t set, unsigned way,
                      std::uint64_t pattern);

    /** Bit-accurate read of a full line at effective supply v_eff. */
    LineReadResult readLine(std::uint64_t set, unsigned way,
                            Millivolt v_eff, Rng &rng) const;

    /**
     * Counter-stream flavor of the bit-accurate read: the per-cell
     * survival draws run through the SIMD bernoulliMask lanes (see
     * SramArray::sampleAccessFlipsInto's CounterRng overload). Same
     * flip distribution and decode path; different draw sequence.
     */
    LineReadResult readLine(std::uint64_t set, unsigned way,
                            Millivolt v_eff, CounterRng &rng) const;

    /**
     * Aggregate probe of one line: n_accesses full-line reads. With
     * SamplingMode::chipBatched the per-access probabilities come from
     * the quantized (bucket-center) LUT instead of the exact voltage.
     */
    ProbeStats probeLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                         std::uint64_t n_accesses, Rng &rng,
                         SamplingMode mode = SamplingMode::exact) const;

    /**
     * Expected per-access probability that a read of this line raises
     * at least one correctable event (and, separately, an uncorrectable
     * one) at v_eff. Exposed for calibration and the fast probe path.
     *
     * Backed by a per-line LUT keyed on the quantized effective voltage
     * (probQuantMv grid): when the line's probabilities were already
     * computed at this exact voltage, the cached pair is returned and
     * zero normalCdf evaluations run. Only the probabilities are
     * cached — never any random draws — and a hit requires an exact
     * voltage match, so results are bit-identical to the uncached
     * computation. applyAgingShift on the SRAM invalidates the LUT via
     * the generation counter.
     */
    void lineEventProbabilities(std::uint64_t set, unsigned way,
                                Millivolt v_eff, double &p_correctable,
                                double &p_uncorrectable) const;

    /**
     * Quantized flavor for the chip-batched sampling mode: evaluates
     * the probabilities at the center of v_eff's probQuantMv bucket, so
     * every voltage in a bucket shares one cached entry (maximum hit
     * rate under a noisy rail). Introduces a bounded model error of at
     * most span-size * probQuantMv / (2 * sigmaDynamic * sqrt(2*pi))
     * per probability (the normal pdf peak times half the grid, summed
     * over the line's weak cells); a regression test pins the empirical
     * bound.
     */
    void lineEventProbabilitiesQuantized(std::uint64_t set, unsigned way,
                                         Millivolt v_eff,
                                         double &p_correctable,
                                         double &p_uncorrectable) const;

    /**
     * Whole-array aggregate event rates at the bucket center of
     * v_eff's quantization bucket: the sum over every weak line of the
     * per-access expected correctable events and of the per-access
     * uncorrectable probability (used as a hazard rate, matching
     * Core::tickRates' per-array rate memo). Backed by a small
     * per-bucket cache invalidated by the SRAM generation, so a
     * steady-rail sweep costs two loads per pass instead of a walk
     * over every weak line. The fill is a vectorized fold — one
     * normalCdfBatch over the entire weak-cell population.
     */
    void aggregateEventRates(Millivolt v_eff, double &sum_correctable,
                             double &sum_uncorrectable) const;

    /** Voltage quantization grid of the probability LUT (mV). */
    static constexpr Millivolt probQuantMv = 0.25;

    /**
     * The single bucketing convention of the probability LUT:
     * round-half-up (toward +infinity), i.e. floor(v / probQuantMv
     * + 0.5). A voltage landing exactly on a bucket edge (an odd
     * multiple of probQuantMv / 2) therefore always maps to the
     * *upper* bucket, regardless of sign — unlike llround/round,
     * whose round-half-away-from-zero breaks that symmetry for the
     * negative-offset voltages aging shifts can produce. Every
     * bucket-index computation must go through this helper so exact
     * and quantized modes can never disagree on the bucket of the
     * same v_eff.
     */
    static std::int64_t probBucketIndex(Millivolt v_eff)
    {
        return std::int64_t(std::floor(v_eff / probQuantMv + 0.5));
    }

    /** Weak cells of one line (positions relative to the line). */
    std::vector<WeakCell> lineWeakCells(std::uint64_t set,
                                        unsigned way) const;

    /**
     * Allocation-free view of one line's weak cells (flat array
     * indices, not rebased): O(1) via the per-line range index built at
     * construction.
     */
    WeakCellSpan lineWeakSpan(std::uint64_t set, unsigned way) const;

    /**
     * Resolve a WeakLineInfo's hoisted [cellBegin, cellEnd) range to a
     * span without touching the per-line index (for iteration driven
     * by Core::weakLines).
     */
    WeakCellSpan weakSpanAt(const WeakLineInfo &line) const
    {
        const WeakCell *base = cells.weakCells().data();
        return WeakCellSpan(base + line.cellBegin, base + line.cellEnd);
    }

    /** All lines containing at least one weak cell, weakest first. */
    std::vector<WeakLineInfo> weakLines() const;

    /** The single weakest line, or a default WeakLineInfo if none. */
    WeakLineInfo weakestLine() const;

    /** Flat cell index of the first cell of a line. */
    std::uint64_t lineCellBase(std::uint64_t set, unsigned way) const;

    /**
     * Flip one stored bit of the line (fault injection): corrupts the
     * codeword in place, so subsequent bit-accurate reads decode a
     * correctable error (one flip) or an uncorrectable one (two flips
     * in the same codeword). @p bit_index addresses the line's bits
     * linearly, codewordBits() per word.
     */
    void flipStoredBit(std::uint64_t set, unsigned way,
                       std::uint64_t bit_index);

    /**
     * Take a line out of normal service (the monitor's designated line
     * stores no program data, Section III-C). Deconfigured lines are
     * skipped by replacement and by the workload traffic model, but the
     * monitor can still write/probe them.
     */
    void deconfigureLine(std::uint64_t set, unsigned way);
    bool isDeconfigured(std::uint64_t set, unsigned way) const;
    void reconfigureLine(std::uint64_t set, unsigned way);

    /**
     * Bumped whenever any line's deconfiguration flag changes (and on
     * loadState): consumers caching deconfiguration-dependent
     * aggregates — e.g. Core's per-array traffic rate memo — key on
     * this alongside the SRAM generation.
     */
    std::uint64_t deconfGeneration() const { return deconfGen; }

    /**
     * Serialize the array's dynamic state: the SRAM population (aged
     * critical voltages), the stored codewords (run-length encoded —
     * the store is dominated by repeated pattern/zero encodings) and
     * the per-line deconfiguration flags. The probability/encode LUTs
     * are derived caches and are re-derived, never serialized;
     * loadState drops them so no stale pre-restore entry survives.
     */
    void saveState(StateWriter &w) const;
    void loadState(StateReader &r);

  private:
    CacheGeometry geo;
    /** Shared immutable codec from the registry (never null). */
    const EccCodec *eccCodec;
    SramArray cells;
    /** Stored codewords, wordsPerLine() per line. */
    std::vector<Codeword> store;
    /** Per-line deconfiguration flags. */
    std::vector<bool> deconfigured;
    /** See deconfGeneration(). */
    std::uint64_t deconfGen = 0;

    /**
     * Per-line [begin, end) offsets into the sorted weak-cell
     * population, one entry per line, built once at construction (cell
     * indices never change; aging only shifts voltages). Turns the
     * line -> weak-cells query from a binary search into an array load.
     */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> lineWeakIndex;

    /**
     * Encode cache: calibration sweeps rewrite the same march patterns
     * and template words millions of times; caching the encodings keeps
     * the sweep cost proportional to line count, not bit count. A
     * fixed-size two-slot open-addressing table (overwrite-on-collision
     * eviction) bounds the footprint — the old unordered_map memo
     * cleared itself wholesale at 2^16 entries, invalidating any
     * outstanding reference.
     */
    struct EncodeSlot
    {
        std::uint64_t data = 0;
        Codeword encoded;
        bool valid = false;
    };
    static constexpr std::size_t encodeCacheSlots = 4096;
    mutable std::vector<EncodeSlot> encodeCache;

    /**
     * Per-line failure-probability LUT: direct-mapped open-addressing
     * cache keyed by (line, quantized voltage bucket), lazily allocated
     * on first probability query. Entries store the exact voltage they
     * were computed at plus the generation of the SRAM population, so
     * stale or colliding entries are recomputed, never reused.
     */
    struct ProbSlot
    {
        std::uint64_t key = ~std::uint64_t(0);
        Millivolt vEval = 0.0;
        double pCorrectable = 0.0;
        double pUncorrectable = 0.0;
    };
    static constexpr std::size_t probCacheSlots = 4096;
    mutable std::vector<ProbSlot> probCache;
    mutable std::uint64_t probCacheGeneration = 0;

    /** Scratch for readLine's flip sampling (no per-call allocation). */
    mutable std::vector<std::uint64_t> flipScratch;

    /** Scratch for the vectorized probability folds: z-scores in,
     *  batched Phi values out. */
    mutable std::vector<double> zScratch;
    mutable std::vector<double> phiScratch;

    /**
     * Per-bucket aggregate event-rate cache for aggregateEventRates:
     * direct-mapped on the voltage bucket, invalidated by the SRAM
     * generation. A descending calibration sweep touches a handful of
     * buckets, so a few slots give a ~100% steady-state hit rate.
     */
    struct AggSlot
    {
        std::int64_t bucket = 0;
        std::uint64_t generation = 0;
        double sumCorrectable = 0.0;
        double sumUncorrectable = 0.0;
        bool valid = false;
    };
    static constexpr std::size_t aggCacheSlots = 16;
    mutable std::vector<AggSlot> aggCache;

    /** Memoized weakestLine() result (the chip-batched sweep path
     *  attributes its aggregate events there every pass; recomputing
     *  the full weakest-first sort each time would dominate). */
    mutable WeakLineInfo weakestMemo;
    mutable std::uint64_t weakestMemoGeneration = 0;
    mutable bool weakestMemoValid = false;

    /**
     * Largest correction radius the allocation-free probability fold
     * supports (covers every word-level codec in the zoo; the block
     * codec never reaches this path).
     */
    static constexpr unsigned maxFoldRadius = 3;

    const Codeword &encodeCached(std::uint64_t data) const;

    /** Shared LUT lookup; quantized selects the bucket-center eval. */
    void cachedProbabilities(std::uint64_t set, unsigned way,
                             Millivolt v_eff, bool quantized,
                             double &p_correctable,
                             double &p_uncorrectable) const;

    /**
     * The per-word ECC fold over one line's weak cells (no caching):
     * expected correctable events and uncorrectable probability per
     * access. @p prob_of maps a cell pointer of @p span to its failure
     * probability — evaluated inline (the LUT paths) or read from a
     * batch already evaluated by the vectorized Phi kernel (the
     * whole-array aggregate). @p base is the line's first cell index.
     */
    template <typename ProbOf>
    void foldLineProbabilities(WeakCellSpan span, std::uint64_t base,
                               ProbOf prob_of, double &p_correctable,
                               double &p_uncorrectable) const;

    /** Shared body of the two readLine overloads (defined in the .cc;
     *  only the flip-sampling RNG flavor differs). */
    template <typename RngT>
    LineReadResult readLineImpl(std::uint64_t set, unsigned way,
                                Millivolt v_eff, RngT &rng) const;

    std::uint64_t lineIndex(std::uint64_t set, unsigned way) const;
    void checkLocation(std::uint64_t set, unsigned way) const;
};

} // namespace vspec

#endif // VSPEC_CACHE_CACHE_ARRAY_HH
