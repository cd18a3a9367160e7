/**
 * @file
 * Tests for the fault-sampling hot path: weak-cell span views, the
 * per-line probability LUT (exactness, quantization error bound, aging
 * invalidation), the bounded encode cache, and the chip-batched
 * sampling mode's statistical equivalence to the exact path.
 */

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_array.hh"
#include "cache/sweep.hh"
#include "common/rng.hh"
#include "cpu/core_model.hh"
#include "platform/chip.hh"
#include "platform/harness.hh"
#include "platform/simulator.hh"
#include "variation/process_variation.hh"
#include "workload/benchmarks.hh"

namespace vspec
{
namespace
{

VcDistribution
noisyDist()
{
    VcDistribution d;
    d.mean = 300.0;
    d.sigmaRandom = 55.0;
    d.sigmaDynamic = 10.0;
    return d;
}

VcDistribution
quietDist()
{
    // Cells so strong that nothing ever fails in the tested range.
    VcDistribution d;
    d.mean = 100.0;
    d.sigmaRandom = 5.0;
    d.sigmaDynamic = 5.0;
    return d;
}

CacheGeometry
smallGeometry()
{
    CacheGeometry g;
    g.name = "small";
    g.sizeBytes = 32 * 1024;
    g.associativity = 4;
    g.lineBytes = 128;
    g.cellClass = CellClass::denseL2;
    g.validate();
    return g;
}

/**
 * Reference per-line probability fold, recomputed from scratch through
 * the copy-returning public API (no LUT, no span index). Mirrors the
 * production fold so the LUT path can be checked against it.
 */
void
referenceProbabilities(const CacheArray &array, std::uint64_t set,
                       unsigned way, Millivolt v_eff,
                       double &p_correctable, double &p_uncorrectable)
{
    const std::uint64_t base = array.lineCellBase(set, way);
    const std::vector<WeakCell> weak = array.sram().weakCellsInRange(
        base, base + array.geometry().cellsPerLine());

    const unsigned cw_bits = array.codec().codewordBits();
    double e_corr = 0.0;
    double p_no_uncorr = 1.0;
    std::uint64_t cur_word = ~std::uint64_t(0);
    double none = 1.0, exactly_one = 0.0;
    auto fold_word = [&]() {
        if (cur_word == ~std::uint64_t(0))
            return;
        const double multi = std::max(0.0, 1.0 - none - exactly_one);
        e_corr += exactly_one;
        p_no_uncorr *= (1.0 - multi);
    };
    for (const WeakCell &cell : weak) {
        const double p = array.sram().failureProbability(cell, v_eff);
        if (p <= 0.0)
            continue;
        const std::uint64_t word = (cell.cellIndex - base) / cw_bits;
        if (word != cur_word) {
            fold_word();
            cur_word = word;
            none = 1.0;
            exactly_one = 0.0;
        }
        exactly_one = exactly_one * (1.0 - p) + p * none;
        none *= (1.0 - p);
    }
    fold_word();
    p_correctable = e_corr;
    p_uncorrectable = 1.0 - p_no_uncorr;
}

class HotPathTest : public ::testing::Test
{
  protected:
    HotPathTest()
        : rng(7),
          array(smallGeometry(), noisyDist(), /*v_floor=*/250.0, rng)
    {
        for (const WeakLineInfo &line : array.weakLines())
            weakLines.push_back(line);
    }

    Rng rng;
    CacheArray array;
    std::vector<WeakLineInfo> weakLines;
};

TEST_F(HotPathTest, SpanMatchesCopyingRangeQuery)
{
    const auto &geo = array.geometry();
    ASSERT_FALSE(weakLines.empty());
    for (std::uint64_t set = 0; set < geo.numSets(); ++set) {
        for (unsigned way = 0; way < geo.associativity; ++way) {
            const std::uint64_t base = array.lineCellBase(set, way);
            const WeakCellSpan span = array.lineWeakSpan(set, way);
            const std::vector<WeakCell> copy =
                array.sram().weakCellsInRange(base,
                                              base + geo.cellsPerLine());
            ASSERT_EQ(span.size(), copy.size());
            for (std::size_t i = 0; i < copy.size(); ++i) {
                EXPECT_EQ(span[i].cellIndex, copy[i].cellIndex);
                EXPECT_EQ(span[i].vc, copy[i].vc);
            }

            // weakestVcInRange (now allocation-free) agrees with the
            // maximum over the span.
            Millivolt best = -std::numeric_limits<double>::infinity();
            for (const WeakCell &cell : span)
                best = std::max(best, cell.vc);
            EXPECT_EQ(array.sram().weakestVcInRange(
                          base, base + geo.cellsPerLine()),
                      best);
        }
    }
}

TEST_F(HotPathTest, WeakLineInfoCarriesHoistedCellRange)
{
    for (const WeakLineInfo &line : weakLines) {
        const WeakCellSpan direct = array.lineWeakSpan(line.set, line.way);
        const WeakCellSpan hoisted = array.weakSpanAt(line);
        ASSERT_EQ(direct.size(), hoisted.size());
        EXPECT_EQ(direct.begin(), hoisted.begin());
        EXPECT_EQ(line.weakCellCount, unsigned(direct.size()));
    }
}

TEST_F(HotPathTest, LutMatchesReferenceAndIsStableAcrossHits)
{
    ASSERT_FALSE(weakLines.empty());
    // Off-grid voltages exercise the exact-voltage hit requirement.
    const Millivolt v0 = weakLines.front().weakestVc;
    const std::vector<Millivolt> voltages = {v0 + 3.137, v0 - 1.0051,
                                             v0 - 7.77, v0 + 0.013};
    for (const WeakLineInfo &line : weakLines) {
        for (const Millivolt v : voltages) {
            double pc_ref = 0.0, pu_ref = 0.0;
            referenceProbabilities(array, line.set, line.way, v, pc_ref,
                                   pu_ref);

            double pc1 = 0.0, pu1 = 0.0;
            array.lineEventProbabilities(line.set, line.way, v, pc1, pu1);
            EXPECT_NEAR(pc1, pc_ref, 1e-12);
            EXPECT_NEAR(pu1, pu_ref, 1e-12);

            // A warm hit returns the identical stored pair.
            double pc2 = 0.0, pu2 = 0.0;
            array.lineEventProbabilities(line.set, line.way, v, pc2, pu2);
            EXPECT_EQ(pc1, pc2);
            EXPECT_EQ(pu1, pu2);
        }
    }
}

TEST_F(HotPathTest, QuantizedProbabilityErrorIsBounded)
{
    ASSERT_FALSE(weakLines.empty());
    const double sigma_dyn = array.sram().distribution().sigmaDynamic;
    const double pdf_peak = 1.0 / (sigma_dyn * std::sqrt(2.0 * M_PI));

    double observed_max = 0.0;
    for (const WeakLineInfo &line : weakLines) {
        // The per-probability error bound: each weak cell's failure
        // probability moves at most pdf_peak * dv for a voltage
        // perturbation dv <= probQuantMv / 2 (normalCdf is Lipschitz
        // with the pdf peak as the constant).
        const double bound = double(line.weakCellCount) *
                             CacheArray::probQuantMv * 0.5 * pdf_peak;
        for (double dv = -12.0; dv <= 12.0; dv += 0.313) {
            const Millivolt v = line.weakestVc + dv;
            double pc = 0.0, pu = 0.0;
            array.lineEventProbabilities(line.set, line.way, v, pc, pu);
            double qc = 0.0, qu = 0.0;
            array.lineEventProbabilitiesQuantized(line.set, line.way, v,
                                                  qc, qu);
            EXPECT_LE(std::abs(pc - qc), bound + 1e-12);
            EXPECT_LE(std::abs(pu - qu), bound + 1e-12);
            observed_max = std::max(observed_max, std::abs(pc - qc));
        }
    }
    // The test must have had power: some quantization error observed.
    EXPECT_GT(observed_max, 0.0);
}

TEST_F(HotPathTest, QuantizedEqualsExactOnGridVoltages)
{
    ASSERT_FALSE(weakLines.empty());
    const WeakLineInfo &line = weakLines.front();
    const Millivolt v = std::round(line.weakestVc /
                                   CacheArray::probQuantMv) *
                        CacheArray::probQuantMv;
    double pc = 0.0, pu = 0.0, qc = 0.0, qu = 0.0;
    array.lineEventProbabilities(line.set, line.way, v, pc, pu);
    array.lineEventProbabilitiesQuantized(line.set, line.way, v, qc, qu);
    EXPECT_EQ(pc, qc);
    EXPECT_EQ(pu, qu);
}

TEST_F(HotPathTest, AgingShiftInvalidatesLut)
{
    ASSERT_FALSE(weakLines.empty());
    const WeakLineInfo &line = weakLines.front();
    const Millivolt v = line.weakestVc - 2.0;

    double before_c = 0.0, before_u = 0.0;
    array.lineEventProbabilities(line.set, line.way, v, before_c,
                                 before_u);
    // Warm the LUT entry.
    array.lineEventProbabilities(line.set, line.way, v, before_c,
                                 before_u);

    Rng aging_rng(11);
    array.sram().applyAgingShift(/*mean_shift=*/6.0, /*sigma_shift=*/1.0,
                                 aging_rng);

    double after_c = 0.0, after_u = 0.0;
    array.lineEventProbabilities(line.set, line.way, v, after_c, after_u);

    // Cells only degrade, so the failure probability cannot drop, and
    // a 6 mV mean shift on a line at threshold must move it.
    EXPECT_GT(after_c, before_c);

    // Whatever comes out of the (invalidated, recomputed) LUT must
    // match a from-scratch reference fold on the aged population.
    double ref_c = 0.0, ref_u = 0.0;
    referenceProbabilities(array, line.set, line.way, v, ref_c, ref_u);
    EXPECT_NEAR(after_c, ref_c, 1e-12);
    EXPECT_NEAR(after_u, ref_u, 1e-12);
}

TEST(EncodeCache, HammerWithDistinctWordsStaysCorrect)
{
    // > 2^16 distinct words through writeLine: the old unordered_map
    // memo grew to 65536 entries and then cleared itself wholesale;
    // the fixed-size cache must stay correct (and bounded) under the
    // same load.
    Rng rng(13);
    CacheArray quiet(smallGeometry(), quietDist(), /*v_floor=*/250.0,
                     rng);
    const auto &geo = quiet.geometry();
    const unsigned words = geo.wordsPerLine();

    std::uint64_t next = 0x9E3779B97F4A7C15ULL;
    Rng read_rng(17);
    const std::uint64_t line_writes = (1u << 17) / words + 2;
    for (std::uint64_t i = 0; i < line_writes; ++i) {
        const std::uint64_t set = i % geo.numSets();
        const unsigned way = unsigned((i / geo.numSets()) %
                                      geo.associativity);
        std::vector<std::uint64_t> data(words);
        for (unsigned w = 0; w < words; ++w)
            data[w] = next += 0x9E3779B97F4A7C15ULL;
        quiet.writeLine(set, way, data);

        // Quiet cells at a high supply: the readback must decode the
        // exact words just written, whatever the cache evicted.
        const LineReadResult readback =
            quiet.readLine(set, way, /*v_eff=*/800.0, read_rng);
        ASSERT_FALSE(readback.uncorrectable);
        ASSERT_EQ(readback.data.size(), data.size());
        for (unsigned w = 0; w < words; ++w)
            ASSERT_EQ(readback.data[w], data[w]);
    }
    EXPECT_GT(line_writes * words, std::uint64_t(1) << 16);
}

TEST_F(HotPathTest, AggregateRatesMatchPerLineQuantizedSum)
{
    ASSERT_FALSE(weakLines.empty());
    const auto &geo = array.geometry();
    for (const double dv : {-6.0, -2.0, 0.0, 3.0}) {
        const Millivolt v = weakLines.front().weakestVc + dv;
        double agg_c = 0.0, agg_u = 0.0;
        array.aggregateEventRates(v, agg_c, agg_u);

        // Reference: sum the quantized per-line probabilities over the
        // whole array (both paths evaluate at the bucket center).
        double sum_c = 0.0, sum_u = 0.0;
        for (std::uint64_t set = 0; set < geo.numSets(); ++set) {
            for (unsigned way = 0; way < geo.associativity; ++way) {
                double pc = 0.0, pu = 0.0;
                array.lineEventProbabilitiesQuantized(set, way, v, pc,
                                                      pu);
                sum_c += pc;
                sum_u += pu;
            }
        }
        EXPECT_NEAR(agg_c, sum_c, 1e-7 + 1e-7 * sum_c) << "dv " << dv;
        EXPECT_NEAR(agg_u, sum_u, 1e-7 + 1e-7 * sum_u) << "dv " << dv;

        // A second call must hit the per-bucket cache and return the
        // identical stored pair.
        double again_c = 0.0, again_u = 0.0;
        array.aggregateEventRates(v, again_c, again_u);
        EXPECT_EQ(agg_c, again_c);
        EXPECT_EQ(agg_u, again_u);
    }
}

TEST_F(HotPathTest, AggregateRatesInvalidateOnAging)
{
    ASSERT_FALSE(weakLines.empty());
    const Millivolt v = weakLines.front().weakestVc;
    double before_c = 0.0, before_u = 0.0;
    array.aggregateEventRates(v, before_c, before_u);

    Rng aging_rng(19);
    array.sram().applyAgingShift(/*mean_shift=*/6.0,
                                 /*sigma_shift=*/1.0, aging_rng);

    double after_c = 0.0, after_u = 0.0;
    array.aggregateEventRates(v, after_c, after_u);
    // Cells only degrade: the aggregate correctable rate must rise.
    EXPECT_GT(after_c, before_c);
}

TEST_F(HotPathTest, ChipBatchedSweepIsStatisticallyEquivalent)
{
    ASSERT_FALSE(weakLines.empty());
    const Millivolt v = std::round((weakLines.front().weakestVc - 1.0) /
                                   CacheArray::probQuantMv) *
                        CacheArray::probQuantMv;

    constexpr unsigned reps = 30;
    constexpr std::uint64_t reads = 500;
    Rng rng_exact(101), rng_chip(101);
    std::uint64_t exact_total = 0, chip_total = 0;
    for (unsigned r = 0; r < reps; ++r) {
        exact_total += sweep::dataSweep(array, v, reads, rng_exact)
                           .totalCorrectable;
        chip_total += sweep::dataSweep(array, v, reads, rng_chip,
                                       SamplingMode::chipBatched)
                          .totalCorrectable;
    }

    ASSERT_GT(exact_total, 0u);
    ASSERT_GT(chip_total, 0u);
    const double mean = 0.5 * double(exact_total + chip_total);
    const double tolerance = 6.0 * std::sqrt(2.0 * mean);
    EXPECT_NEAR(double(exact_total), double(chip_total), tolerance);
}

TEST(BatchedCore, TickRatesMatchExactTickExpectation)
{
    VariationModel variation(42);
    Rng build_rng(1);
    Core::Config cfg;
    cfg.coreId = 0;
    Core core(cfg, variation, build_rng);
    core.setWorkload(benchmarks::suiteSequence(Suite::stress, 10.0));

    const Millivolt weakest =
        std::max(core.l2iArray().weakestLine().weakestVc,
                 core.l2dArray().weakestLine().weakestVc);
    const Millivolt v = std::round(weakest / CacheArray::probQuantMv) *
                        CacheArray::probQuantMv;

    constexpr int ticks = 4000;
    constexpr Seconds dt = 0.01;

    // Accumulate the chip-batched rate path's expected event count.
    double lambda_corr_total = 0.0, lambda_unc_total = 0.0;
    for (int i = 0; i < ticks; ++i) {
        double lc = 0.0, lu = 0.0;
        core.tickRates(i * dt, dt, v, lc, lu);
        lambda_corr_total += lc;
        lambda_unc_total += lu;
        core.clearCrash();
    }
    ASSERT_GT(lambda_corr_total, 0.0);
    EXPECT_GE(lambda_unc_total, 0.0);

    // The exact per-line path must realize that expectation within
    // Poisson noise.
    Rng draw_exact(23);
    std::uint64_t exact_total = 0;
    for (int i = 0; i < ticks; ++i) {
        exact_total +=
            core.tick(i * dt, dt, v, draw_exact).correctableEvents;
        core.clearCrash();
    }
    const double tolerance =
        6.0 * std::sqrt(std::max(lambda_corr_total, 1.0));
    EXPECT_NEAR(double(exact_total), lambda_corr_total, tolerance);
}

/** What one parked-rail chip run realized. */
struct ParkedRun
{
    std::uint64_t events = 0;
    /** Ticks whose domains' effective voltages span several buckets. */
    std::uint64_t straddleTicks = 0;
    bool crashed = false;
};

/**
 * Uncontrolled 20 s run of a seeded chip whose domain d is parked at
 * the weakest-line voltage plus @p base_mv + d * @p step_mv.
 */
ParkedRun
parkedChipRun(SamplingMode mode, Millivolt base_mv, Millivolt step_mv)
{
    ChipConfig cfg;
    cfg.seed = 77;
    Chip chip(cfg);
    harness::assignSuite(chip, Suite::stress, 10.0);

    Millivolt weakest = 0.0;
    for (unsigned c = 0; c < chip.numCores(); ++c) {
        weakest = std::max(
            weakest, chip.core(c).l2dArray().weakestLine().weakestVc);
        weakest = std::max(
            weakest, chip.core(c).l2iArray().weakestLine().weakestVc);
    }
    for (unsigned d = 0; d < chip.numDomains(); ++d)
        chip.domain(d).regulator().request(weakest + base_mv +
                                           d * step_mv);

    Simulator sim(chip, 0.005);
    sim.setSamplingMode(mode);
    ParkedRun out;
    sim.addHook([&](Seconds, Seconds) {
        const std::int64_t first = CacheArray::probBucketIndex(
            chip.domain(0).effectiveVoltage(chip.pdn()));
        for (unsigned d = 1; d < chip.numDomains(); ++d) {
            if (CacheArray::probBucketIndex(chip.domain(d).effectiveVoltage(
                    chip.pdn())) != first) {
                ++out.straddleTicks;
                return;
            }
        }
    });
    sim.run(20.0);

    for (unsigned c = 0; c < chip.numCores(); ++c)
        out.events += sim.coreCorrectableEvents(c);
    out.crashed = sim.anyCrashed();
    return out;
}

/**
 * Two identically seeded parked runs, exact and chip-batched, must see
 * @p straddle_ticks ticks whose domains span several buckets, no
 * crash, and event totals equal within Poisson-scale noise.
 */
void
expectParkedRunsAgree(Millivolt base_mv, Millivolt step_mv,
                      std::uint64_t straddle_ticks)
{
    const ParkedRun exact =
        parkedChipRun(SamplingMode::exact, base_mv, step_mv);
    const ParkedRun chip =
        parkedChipRun(SamplingMode::chipBatched, base_mv, step_mv);

    EXPECT_EQ(exact.straddleTicks, straddle_ticks);
    EXPECT_EQ(chip.straddleTicks, straddle_ticks);
    // No core stops early, and enough events for the 6 sigma band to
    // mean something.
    EXPECT_FALSE(exact.crashed);
    EXPECT_FALSE(chip.crashed);
    ASSERT_GT(exact.events, 300u);
    ASSERT_GT(chip.events, 300u);
    const double mean = 0.5 * double(exact.events + chip.events);
    const double tolerance = 6.0 * std::sqrt(2.0 * mean);
    EXPECT_NEAR(double(exact.events), double(chip.events), tolerance);
}

TEST(ChipBatchedSimulator, EventTotalsStatisticallyMatchExact)
{
    // Every rail parked at one voltage, no control feedback: all
    // domains share one bucket on every tick.
    expectParkedRunsAgree(-25.0, 0.0, 0);
}

TEST(ChipBatchedSimulator, StraddlingDomainsMatchExact)
{
    // Domains parked one regulator step (5 mV) apart, so the effective
    // voltages of every tick after the first (which runs before the
    // rails slew apart) span several buckets: the chip-wide draw
    // superposes rates taken at each domain's own bucket and must
    // still match the exact per-line stream.
    expectParkedRunsAgree(-30.0, 5.0, 3999);
}

} // namespace
} // namespace vspec
