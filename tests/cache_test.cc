/**
 * @file
 * Tests for the ECC-protected cache data array and the functional
 * cache (tags, LRU, deconfiguration).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/cache_array.hh"
#include "cache/geometry.hh"
#include "common/rng.hh"

namespace vspec
{
namespace
{

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

VcDistribution
noisyDist()
{
    VcDistribution d;
    d.mean = 300.0;
    d.sigmaRandom = 55.0;
    d.sigmaDynamic = 10.0;
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

TEST(CacheGeometry, Table1Presets)
{
    const auto l1d = itanium9560::l1Data();
    EXPECT_EQ(l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(l1d.associativity, 4u);
    EXPECT_EQ(l1d.numSets(), 64u);

    const auto l2i = itanium9560::l2Instruction();
    EXPECT_EQ(l2i.sizeBytes, 512u * 1024);
    EXPECT_EQ(l2i.associativity, 8u);
    EXPECT_EQ(l2i.numLines(), 4096u);
    EXPECT_EQ(l2i.numSets(), 512u);
    EXPECT_EQ(l2i.wordsPerLine(), 16u);
    // 16 codewords of 72 bits per 128 B line.
    EXPECT_EQ(l2i.cellsPerLine(), 16u * 72);

    const auto l2d = itanium9560::l2Data();
    EXPECT_EQ(l2d.sizeBytes, 256u * 1024);
    EXPECT_EQ(l2d.numSets(), 256u);

    const auto l3 = itanium9560::l3Unified();
    EXPECT_EQ(l3.sizeBytes, 32ull * 1024 * 1024);
    EXPECT_EQ(l3.associativity, 32u);
}

TEST(CacheArray, CleanReadAtSafeVoltage)
{
    Rng rng(1);
    CacheArray array(smallGeometry(), quietDist(), 150.0, rng);
    std::vector<std::uint64_t> words(array.geometry().wordsPerLine());
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x1111111111111111ULL * i;
    array.writeLine(3, 2, words);

    Rng draw(2);
    const LineReadResult read = array.readLine(3, 2, 800.0, draw);
    EXPECT_FALSE(read.uncorrectable);
    EXPECT_TRUE(read.events.empty());
    EXPECT_EQ(read.data, words);
}

TEST(CacheArray, WeakLineErrsAndCorrects)
{
    Rng rng(3);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    ASSERT_GT(weakest.weakCellCount, 0u);

    array.writePattern(weakest.set, weakest.way, 0xAAAAAAAAAAAAAAAAULL);

    // Far below the weakest cell's Vc: the read must report at least
    // one correctable event — and the *data* must still decode to the
    // written pattern (ECC corrected it).
    Rng draw(4);
    bool saw_event = false;
    for (int i = 0; i < 50 && !saw_event; ++i) {
        const LineReadResult read = array.readLine(
            weakest.set, weakest.way, weakest.weakestVc - 30.0, draw);
        for (const auto &event : read.events) {
            if (event.status == EccStatus::correctedSingle) {
                saw_event = true;
                EXPECT_EQ(read.data[event.word],
                          0xAAAAAAAAAAAAAAAAULL);
            }
        }
    }
    EXPECT_TRUE(saw_event);
}

TEST(CacheArray, ProbeMatchesBitAccuratePath)
{
    // The aggregate probe path and the bit-accurate read path are two
    // implementations over the same weak cells; their correctable
    // event rates must agree statistically.
    Rng rng(5);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    const Millivolt v = weakest.weakestVc + 5.0;

    Rng draw_a(6), draw_b(7);
    const std::uint64_t n = 20000;
    const ProbeStats probe =
        array.probeLine(weakest.set, weakest.way, v, n, draw_a);

    std::uint64_t events = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto read =
            array.readLine(weakest.set, weakest.way, v, draw_b);
        for (const auto &event : read.events)
            events += (event.status == EccStatus::correctedSingle);
    }

    const double rate_probe = double(probe.correctableEvents) / n;
    const double rate_read = double(events) / n;
    const double sigma =
        std::sqrt(std::max(rate_read, 1e-6) / double(n));
    EXPECT_NEAR(rate_probe, rate_read, 6.0 * sigma + 0.01);
}

TEST(CacheArray, EventProbabilitiesMonotoneInVoltage)
{
    Rng rng(8);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();

    double prev_corr = 2.0, prev_unc = 2.0;
    for (Millivolt v = weakest.weakestVc - 40.0;
         v <= weakest.weakestVc + 60.0; v += 5.0) {
        double pc = 0.0, pu = 0.0;
        array.lineEventProbabilities(weakest.set, weakest.way, v, pc, pu);
        EXPECT_LE(pu, prev_unc + 1e-12);
        prev_unc = pu;
        EXPECT_GE(pc, 0.0);
        EXPECT_GE(pu, 0.0);
        (void)prev_corr;
    }
}

TEST(CacheArray, WeakLinesSortedAndComplete)
{
    Rng rng(9);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const auto lines = array.weakLines();
    ASSERT_FALSE(lines.empty());
    std::size_t cells = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(lines[i].weakestVc, lines[i - 1].weakestVc);
        }
        cells += lines[i].weakCellCount;
        EXPECT_EQ(array.lineWeakCells(lines[i].set, lines[i].way).size(),
                  lines[i].weakCellCount);
    }
    EXPECT_EQ(cells, array.sram().weakCells().size());
}

TEST(CacheArray, DeconfigurationFlags)
{
    Rng rng(10);
    CacheArray array(smallGeometry(), quietDist(), 150.0, rng);
    EXPECT_FALSE(array.isDeconfigured(5, 1));
    array.deconfigureLine(5, 1);
    EXPECT_TRUE(array.isDeconfigured(5, 1));
    array.reconfigureLine(5, 1);
    EXPECT_FALSE(array.isDeconfigured(5, 1));
}

TEST(Cache, AddressMappingRoundTrip)
{
    Rng rng(11);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    const auto &geo = cache.geometry();
    for (std::uint64_t addr : {0ull, 128ull, 12800ull, 999936ull}) {
        const std::uint64_t line = addr / geo.lineBytes;
        EXPECT_EQ(cache.setOf(addr), line % geo.numSets());
        EXPECT_EQ(cache.tagOf(addr), line / geo.numSets());
    }
}

TEST(Cache, HitAfterFill)
{
    Rng rng(12);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(13);
    const CacheAccess miss = cache.access(0x4000, 800.0, draw);
    EXPECT_FALSE(miss.hit);
    const CacheAccess hit = cache.access(0x4000, 800.0, draw);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.set, miss.set);
    EXPECT_EQ(hit.way, miss.way);
    EXPECT_EQ(cache.hitCount(), 1u);
    EXPECT_EQ(cache.missCount(), 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Rng rng(14);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(15);
    const auto &geo = cache.geometry();
    const std::uint64_t span = geo.numSets() * geo.lineBytes;

    // Fill all 4 ways of set 0, then touch the first three again so
    // address 0 + 3*span is LRU... actually re-touch all but way of
    // address with i == 1; then a conflicting fill must evict it.
    std::vector<std::uint64_t> addrs;
    for (unsigned i = 0; i < geo.associativity; ++i)
        addrs.push_back(i * span);
    for (std::uint64_t a : addrs)
        cache.access(a, 800.0, draw);
    for (std::uint64_t a : addrs) {
        if (a != addrs[1])
            cache.access(a, 800.0, draw);
    }
    cache.access(geo.associativity * span, 800.0, draw);  // Evicts.
    EXPECT_FALSE(cache.probeTag(addrs[1]));
    for (std::uint64_t a : addrs) {
        if (a != addrs[1]) {
            EXPECT_TRUE(cache.probeTag(a));
        }
    }
}

TEST(Cache, DeconfiguredWayNeverAllocated)
{
    Rng rng(16);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(17);
    cache.deconfigureLine(0, 2);

    const auto &geo = cache.geometry();
    const std::uint64_t span = geo.numSets() * geo.lineBytes;
    for (unsigned i = 0; i < 16; ++i) {
        const CacheAccess access = cache.access(i * span, 800.0, draw);
        EXPECT_NE(access.way, 2u);
    }
}

TEST(Cache, InvalidateAllDropsResidency)
{
    Rng rng(18);
    Cache cache(smallGeometry(), quietDist(), 150.0, rng);
    Rng draw(19);
    cache.access(0x1000, 800.0, draw);
    EXPECT_TRUE(cache.probeTag(0x1000));
    cache.invalidateAll();
    EXPECT_FALSE(cache.probeTag(0x1000));
}

/**
 * The LUT bucket convention (round-half-up): a voltage landing exactly
 * on a bucket edge — an odd multiple of probQuantMv / 2 — maps to the
 * upper bucket on BOTH sides of zero, and voltages epsilon either side
 * of the edge land in adjacent buckets. Negative inputs matter: an
 * aged cell population can push (v_eff - reference) offsets below
 * zero, where llround's half-away-from-zero convention would disagree.
 */
TEST(CacheArray, ProbBucketIndexEdgeConvention)
{
    constexpr Millivolt q = CacheArray::probQuantMv;
    ASSERT_DOUBLE_EQ(q, 0.25);

    // Bucket centers map to themselves.
    EXPECT_EQ(CacheArray::probBucketIndex(0.0), 0);
    EXPECT_EQ(CacheArray::probBucketIndex(q), 1);
    EXPECT_EQ(CacheArray::probBucketIndex(-q), -1);
    EXPECT_EQ(CacheArray::probBucketIndex(600.0), 2400);

    // Exact edges go UP, on both sides of zero.
    EXPECT_EQ(CacheArray::probBucketIndex(0.125), 1);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.125), 0);
    EXPECT_EQ(CacheArray::probBucketIndex(0.375), 2);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.375), -1);
    EXPECT_EQ(CacheArray::probBucketIndex(600.125), 2401);
    EXPECT_EQ(CacheArray::probBucketIndex(-600.125), -2400);

    // Epsilon on each side of an edge lands in adjacent buckets.
    EXPECT_EQ(CacheArray::probBucketIndex(0.125 - 1e-9), 0);
    EXPECT_EQ(CacheArray::probBucketIndex(0.125 + 1e-9), 1);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.125 - 1e-9), -1);
    EXPECT_EQ(CacheArray::probBucketIndex(-0.125 + 1e-9), 0);
}

/**
 * Exact and quantized probability paths must agree on the bucket of
 * the same v_eff: a voltage just below an edge and the center of its
 * bucket produce identical quantized probabilities, while the far
 * side of the edge may differ. This is the determinism the chip-batched
 * sampling mode's byte-identical replay rests on.
 */
TEST(CacheArray, QuantizedProbabilitiesShareBucketAcrossEdge)
{
    Rng rng(23);
    CacheArray array(smallGeometry(), noisyDist(), 465.0, rng);
    const WeakLineInfo weakest = array.weakestLine();
    ASSERT_GT(weakest.weakCellCount, 0u);
    array.writePattern(weakest.set, weakest.way, 0);

    constexpr Millivolt q = CacheArray::probQuantMv;
    const Millivolt center = 480.0;  // A bucket center (multiple of q).
    const Millivolt edge = center + q / 2;

    double pc_center, pu_center, pc_below, pu_below, pc_edge, pu_edge;
    array.lineEventProbabilitiesQuantized(weakest.set, weakest.way,
                                          center, pc_center, pu_center);
    array.lineEventProbabilitiesQuantized(weakest.set, weakest.way,
                                          edge - 1e-6, pc_below, pu_below);
    array.lineEventProbabilitiesQuantized(weakest.set, weakest.way,
                                          edge, pc_edge, pu_edge);

    // Just-below-edge shares center's bucket bit-for-bit...
    EXPECT_EQ(pc_below, pc_center);
    EXPECT_EQ(pu_below, pu_center);
    // ...and the exact edge belongs to the upper bucket (center + q).
    double pc_up, pu_up;
    array.lineEventProbabilitiesQuantized(weakest.set, weakest.way,
                                          center + q, pc_up, pu_up);
    EXPECT_EQ(pc_edge, pc_up);
    EXPECT_EQ(pu_edge, pu_up);
}

/** A codec-aware array: BCH-2 geometry yields 79-bit codewords. */
TEST(CacheArray, Bch2GeometryAndDecode)
{
    CacheGeometry geo = smallGeometry();
    geo.eccScheme = EccScheme::bch2;
    geo.validate();
    EXPECT_EQ(geo.cellsPerLine(), geo.wordsPerLine() * 79u);

    Rng rng(31);
    CacheArray array(geo, quietDist(), 150.0, rng);
    EXPECT_EQ(array.codec().traits().scheme, EccScheme::bch2);
    EXPECT_EQ(array.codec().codewordBits(), 79u);

    std::vector<std::uint64_t> words(geo.wordsPerLine());
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x0123456789ABCDEFULL * (i + 1);
    array.writeLine(1, 1, words);

    // Two flips in one codeword: fatal for SECDED, corrected by BCH-2.
    array.flipStoredBit(1, 1, 5);
    array.flipStoredBit(1, 1, 41);
    Rng draw(32);
    const LineReadResult read = array.readLine(1, 1, 800.0, draw);
    EXPECT_FALSE(read.uncorrectable);
    ASSERT_EQ(read.events.size(), 1u);
    EXPECT_EQ(read.events[0].status, EccStatus::correctedSingle);
    EXPECT_EQ(read.data, words);

    // A third flip in the same codeword exceeds the radius.
    array.flipStoredBit(1, 1, 63);
    Rng draw2(33);
    const LineReadResult read2 = array.readLine(1, 1, 800.0, draw2);
    EXPECT_TRUE(read2.uncorrectable);
}

} // namespace
} // namespace vspec
