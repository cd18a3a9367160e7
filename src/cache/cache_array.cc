#include "cache/cache_array.hh"

#include "snapshot/state_io.hh"

#include <algorithm>
#include <cmath>

#include "common/counter_rng.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace vspec
{

CacheArray::CacheArray(const CacheGeometry &geometry,
                       const VcDistribution &dist, Millivolt v_floor,
                       Rng &rng)
    : geo(geometry),
      eccCodec(&wordCodec(geometry.eccScheme, geometry.eccDataBits)),
      cells(geometry.name, geometry.totalCells(), dist, v_floor,
            /*aging_headroom=*/0.5 * dist.sigmaRandom, rng),
      store(geometry.numLines() * geometry.wordsPerLine()),
      deconfigured(geometry.numLines(), false),
      lineWeakIndex(geometry.numLines(), {0, 0})
{
    geo.validate();
    // Initialize every line with an encoded zero word so reads of
    // untouched lines decode cleanly.
    const Codeword zero = eccCodec->encode(0);
    std::fill(store.begin(), store.end(), zero);

    // Hoist the per-line weak-cell ranges: the population is sorted by
    // cell index, so each line's cells form one contiguous run. Cell
    // indices never change after sampling (aging shifts only voltages),
    // so the index is built exactly once.
    const auto &weak = cells.weakCells();
    const std::uint64_t per_line = geo.cellsPerLine();
    for (std::size_t i = 0; i < weak.size();) {
        const std::uint64_t line = weak[i].cellIndex / per_line;
        std::size_t j = i + 1;
        while (j < weak.size() && weak[j].cellIndex / per_line == line)
            ++j;
        lineWeakIndex[line] = {std::uint32_t(i), std::uint32_t(j)};
        i = j;
    }
}

std::uint64_t
CacheArray::lineIndex(std::uint64_t set, unsigned way) const
{
    return set * geo.associativity + way;
}

void
CacheArray::checkLocation(std::uint64_t set, unsigned way) const
{
    if (set >= geo.numSets() || way >= geo.associativity)
        panic("cache '", geo.name, "': location (set ", set, ", way ", way,
              ") out of range");
}

std::uint64_t
CacheArray::lineCellBase(std::uint64_t set, unsigned way) const
{
    checkLocation(set, way);
    return lineIndex(set, way) * geo.cellsPerLine();
}

void
CacheArray::writeLine(std::uint64_t set, unsigned way,
                      const std::vector<std::uint64_t> &words)
{
    checkLocation(set, way);
    if (words.size() != geo.wordsPerLine())
        panic("cache '", geo.name, "': writeLine expects ",
              geo.wordsPerLine(), " words, got ", words.size());
    const std::uint64_t base = lineIndex(set, way) * geo.wordsPerLine();
    for (unsigned w = 0; w < geo.wordsPerLine(); ++w)
        store[base + w] = encodeCached(words[w]);
}

const Codeword &
CacheArray::encodeCached(std::uint64_t data) const
{
    if (encodeCache.empty())
        encodeCache.resize(encodeCacheSlots);

    // Two-slot probe; on a double miss, evict the primary slot. The
    // working set (march patterns, instruction templates, fill
    // addresses) is tiny next to the table, so eviction is rare and the
    // footprint stays fixed no matter how many distinct words pass
    // through.
    const std::size_t primary = mix64(data) & (encodeCacheSlots - 1);
    const std::size_t secondary = (primary + 1) & (encodeCacheSlots - 1);
    for (const std::size_t slot : {primary, secondary}) {
        EncodeSlot &entry = encodeCache[slot];
        if (entry.valid && entry.data == data)
            return entry.encoded;
    }

    EncodeSlot &victim = encodeCache[encodeCache[primary].valid &&
                                             !encodeCache[secondary].valid
                                         ? secondary
                                         : primary];
    victim.data = data;
    victim.encoded = eccCodec->encode(data);
    victim.valid = true;
    return victim.encoded;
}

void
CacheArray::writePattern(std::uint64_t set, unsigned way,
                         std::uint64_t pattern)
{
    writeLine(set, way,
              std::vector<std::uint64_t>(geo.wordsPerLine(), pattern));
}

WeakCellSpan
CacheArray::lineWeakSpan(std::uint64_t set, unsigned way) const
{
    checkLocation(set, way);
    const auto &[begin, end] = lineWeakIndex[lineIndex(set, way)];
    const WeakCell *base = cells.weakCells().data();
    return WeakCellSpan(base + begin, base + end);
}

std::vector<WeakCell>
CacheArray::lineWeakCells(std::uint64_t set, unsigned way) const
{
    const std::uint64_t base = lineCellBase(set, way);
    const WeakCellSpan span = lineWeakSpan(set, way);
    std::vector<WeakCell> weak(span.begin(), span.end());
    for (auto &cell : weak)
        cell.cellIndex -= base;
    return weak;
}

template <typename RngT>
LineReadResult
CacheArray::readLineImpl(std::uint64_t set, unsigned way, Millivolt v_eff,
                         RngT &rng) const
{
    checkLocation(set, way);
    LineReadResult result;
    result.data.resize(geo.wordsPerLine());

    const std::uint64_t cell_base = lineCellBase(set, way);
    cells.sampleAccessFlipsInto(lineWeakSpan(set, way), cell_base, v_eff,
                                rng, flipScratch);

    // Flips come out in ascending cell order, i.e. already grouped by
    // codeword — walk them with a single cursor while iterating words.
    const unsigned cw_bits = eccCodec->codewordBits();
    std::size_t next_flip = 0;

    const std::uint64_t word_base = lineIndex(set, way) * geo.wordsPerLine();
    for (unsigned w = 0; w < geo.wordsPerLine(); ++w) {
        Codeword observed = store[word_base + w];
        while (next_flip < flipScratch.size() &&
               flipScratch[next_flip] / cw_bits == w) {
            observed.flipBit(unsigned(flipScratch[next_flip] % cw_bits));
            ++next_flip;
        }

        const DecodeResult decoded = eccCodec->decode(observed);
        result.data[w] = decoded.data;

        if (decoded.status != EccStatus::ok) {
            EccEvent event;
            event.cacheName = geo.name;
            event.set = set;
            event.way = way;
            event.word = w;
            event.status = decoded.status;
            result.events.push_back(event);
            if (decoded.status == EccStatus::uncorrectable)
                result.uncorrectable = true;
        }
    }
    return result;
}

LineReadResult
CacheArray::readLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                     Rng &rng) const
{
    return readLineImpl(set, way, v_eff, rng);
}

LineReadResult
CacheArray::readLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                     CounterRng &rng) const
{
    return readLineImpl(set, way, v_eff, rng);
}

template <typename ProbOf>
void
CacheArray::foldLineProbabilities(WeakCellSpan span, std::uint64_t base,
                                  ProbOf prob_of, double &p_correctable,
                                  double &p_uncorrectable) const
{
    // Per-word: probability of a correctable event (1..t flips, where
    // t is the codec's correction radius) and of an uncorrectable one
    // (> t flips). Weak cells arrive in ascending index order, so cells
    // of the same codeword are adjacent — the per-word statistics fold
    // incrementally with no allocation. For t = 1 (the SECDED default)
    // the recurrence below performs operation-for-operation the same
    // arithmetic as the historical (none, exactly_one) fold, keeping
    // the default path bit-identical.
    const unsigned cw_bits = eccCodec->codewordBits();
    const unsigned t = eccCodec->correctableBits();
    if (t == 0 || t > maxFoldRadius)
        panic("cache '", geo.name, "': correction radius ", t,
              " outside the per-word fold's supported range");

    double e_corr = 0.0;        // Expected correctable events/access.
    double p_no_uncorr = 1.0;   // P(no word raises an uncorrectable).

    std::uint64_t cur_word = ~std::uint64_t(0);
    // Running per-word state: e[k] = P(exactly k of the cells folded
    // so far flipped), k = 0..t, updated cell by cell.
    double e[maxFoldRadius + 1] = {1.0, 0.0, 0.0, 0.0};

    auto fold_word = [&]() {
        if (cur_word == ~std::uint64_t(0))
            return;
        double rem = 1.0;
        for (unsigned k = 0; k <= t; ++k)
            rem -= e[k];
        double corr = 0.0;
        for (unsigned k = 1; k <= t; ++k)
            corr += e[k];
        const double multi = std::max(0.0, rem);
        e_corr += corr;
        p_no_uncorr *= (1.0 - multi);
    };

    for (const WeakCell *cell = span.begin(); cell != span.end(); ++cell) {
        const double p = prob_of(cell);
        if (p <= 0.0)
            continue;
        const std::uint64_t word = (cell->cellIndex - base) / cw_bits;
        if (word != cur_word) {
            fold_word();
            cur_word = word;
            e[0] = 1.0;
            for (unsigned k = 1; k <= t; ++k)
                e[k] = 0.0;
        }
        for (unsigned k = t; k >= 1; --k)
            e[k] = e[k] * (1.0 - p) + p * e[k - 1];
        e[0] *= (1.0 - p);
    }
    fold_word();

    // Event counters tick once per word per access; using the expected
    // per-access correctable count keeps multi-word lines exact.
    p_correctable = e_corr;
    p_uncorrectable = 1.0 - p_no_uncorr;
}

void
CacheArray::cachedProbabilities(std::uint64_t set, unsigned way,
                                Millivolt v_eff, bool quantized,
                                double &p_correctable,
                                double &p_uncorrectable) const
{
    const WeakCellSpan span = lineWeakSpan(set, way);
    if (span.empty()) {
        p_correctable = 0.0;
        p_uncorrectable = 0.0;
        return;
    }

    // Aging shifts every cell's Vc; one generation check drops the
    // whole LUT rather than tracking per-entry staleness.
    if (!probCache.empty() &&
        probCacheGeneration != cells.generation()) {
        std::fill(probCache.begin(), probCache.end(), ProbSlot{});
        probCacheGeneration = cells.generation();
    }

    const std::int64_t bucket = probBucketIndex(v_eff);
    // In quantized mode every voltage in the bucket evaluates at the
    // bucket center; in exact mode the bucket only forms the key and a
    // hit additionally requires the exact stored voltage.
    const Millivolt v_eval =
        quantized ? Millivolt(bucket) * probQuantMv : v_eff;

    const std::uint64_t key =
        (lineIndex(set, way) << 24) ^ std::uint64_t(bucket);
    if (probCache.empty()) {
        probCache.resize(probCacheSlots);
        probCacheGeneration = cells.generation();
    }
    ProbSlot &slot = probCache[mix64(key) & (probCacheSlots - 1)];
    if (slot.key == key && slot.vEval == v_eval) {
        p_correctable = slot.pCorrectable;
        p_uncorrectable = slot.pUncorrectable;
        return;
    }

    foldLineProbabilities(
        span, lineCellBase(set, way),
        [&](const WeakCell *cell) {
            return cells.failureProbability(*cell, v_eval);
        },
        p_correctable, p_uncorrectable);
    slot.key = key;
    slot.vEval = v_eval;
    slot.pCorrectable = p_correctable;
    slot.pUncorrectable = p_uncorrectable;
}

void
CacheArray::aggregateEventRates(Millivolt v_eff, double &sum_correctable,
                                double &sum_uncorrectable) const
{
    const std::int64_t bucket = probBucketIndex(v_eff);
    if (aggCache.empty())
        aggCache.resize(aggCacheSlots);
    AggSlot &slot = aggCache[std::uint64_t(bucket) & (aggCacheSlots - 1)];
    if (slot.valid && slot.bucket == bucket &&
        slot.generation == cells.generation()) {
        sum_correctable = slot.sumCorrectable;
        sum_uncorrectable = slot.sumUncorrectable;
        return;
    }

    // Miss: evaluate every weak cell of the array at the bucket center
    // with one batched Phi call, then fold line by line. The line set
    // matches the sweep engines' (every line with weak cells, whether
    // or not deconfigured — sweeps probe deconfigured lines too).
    const Millivolt v_eval = Millivolt(bucket) * probQuantMv;
    const auto &weak = cells.weakCells();
    const double sigma = cells.distribution().sigmaDynamic;
    zScratch.resize(weak.size());
    for (std::size_t i = 0; i < weak.size(); ++i)
        zScratch[i] = (weak[i].vc - v_eval) / sigma;
    phiScratch.resize(weak.size());
    simd::normalCdfBatch(zScratch.data(), zScratch.size(),
                         phiScratch.data());

    sum_correctable = 0.0;
    sum_uncorrectable = 0.0;
    const WeakCell *base_cell = weak.data();
    for (std::uint64_t line = 0; line < lineWeakIndex.size(); ++line) {
        const auto &[begin, end] = lineWeakIndex[line];
        if (begin == end)
            continue;
        const WeakCell *first = base_cell + begin;
        const double *probs = phiScratch.data() + begin;
        double p_corr = 0.0, p_uncorr = 0.0;
        foldLineProbabilities(
            WeakCellSpan(first, base_cell + end), line * geo.cellsPerLine(),
            [&](const WeakCell *cell) { return probs[cell - first]; },
            p_corr, p_uncorr);
        // Correctable: expected events add. Uncorrectable: the per-line
        // probability accumulates as a hazard rate, the same
        // approximation Core::tickRates uses.
        sum_correctable += p_corr;
        sum_uncorrectable += p_uncorr;
    }

    slot.bucket = bucket;
    slot.generation = cells.generation();
    slot.sumCorrectable = sum_correctable;
    slot.sumUncorrectable = sum_uncorrectable;
    slot.valid = true;
}

void
CacheArray::lineEventProbabilities(std::uint64_t set, unsigned way,
                                   Millivolt v_eff, double &p_correctable,
                                   double &p_uncorrectable) const
{
    cachedProbabilities(set, way, v_eff, /*quantized=*/false,
                        p_correctable, p_uncorrectable);
}

void
CacheArray::lineEventProbabilitiesQuantized(std::uint64_t set,
                                            unsigned way, Millivolt v_eff,
                                            double &p_correctable,
                                            double &p_uncorrectable) const
{
    cachedProbabilities(set, way, v_eff, /*quantized=*/true,
                        p_correctable, p_uncorrectable);
}

ProbeStats
CacheArray::probeLine(std::uint64_t set, unsigned way, Millivolt v_eff,
                      std::uint64_t n_accesses, Rng &rng,
                      SamplingMode mode) const
{
    ProbeStats stats;
    stats.accesses = n_accesses;

    double p_corr = 0.0, p_uncorr = 0.0;
    cachedProbabilities(set, way, v_eff,
                        /*quantized=*/mode != SamplingMode::exact,
                        p_corr, p_uncorr);

    // p_corr is an expected event count per access; it can slightly
    // exceed 1 for lines with several weak words. Split into whole
    // events plus a binomial remainder.
    const std::uint64_t whole = std::uint64_t(p_corr);
    const double frac = p_corr - double(whole);
    stats.correctableEvents =
        whole * n_accesses + rng.binomial(n_accesses, frac);
    stats.uncorrectableEvents = rng.binomial(n_accesses, p_uncorr);
    return stats;
}

std::vector<WeakLineInfo>
CacheArray::weakLines() const
{
    // Walk the per-line range index in ascending line order (the same
    // sequence the old per-cell map produced) so the weakest-first sort
    // below sees an identical input and ties resolve identically.
    std::vector<WeakLineInfo> result;
    const auto &weak = cells.weakCells();
    for (std::uint64_t line = 0; line < lineWeakIndex.size(); ++line) {
        const auto &[begin, end] = lineWeakIndex[line];
        if (begin == end)
            continue;
        WeakLineInfo info;
        info.set = line / geo.associativity;
        info.way = unsigned(line % geo.associativity);
        info.cellBegin = begin;
        info.cellEnd = end;
        info.weakCellCount = end - begin;
        info.weakestVc = weak[begin].vc;
        for (std::uint32_t i = begin + 1; i < end; ++i)
            info.weakestVc = std::max(info.weakestVc, weak[i].vc);
        result.push_back(info);
    }
    std::sort(result.begin(), result.end(),
              [](const WeakLineInfo &a, const WeakLineInfo &b) {
                  return a.weakestVc > b.weakestVc;
              });
    return result;
}

void
CacheArray::flipStoredBit(std::uint64_t set, unsigned way,
                          std::uint64_t bit_index)
{
    checkLocation(set, way);
    const unsigned cw_bits = eccCodec->codewordBits();
    const std::uint64_t word = bit_index / cw_bits;
    if (word >= geo.wordsPerLine())
        panic("cache '", geo.name, "': flipStoredBit bit ", bit_index,
              " beyond the ", geo.wordsPerLine(), "-word line");
    const std::uint64_t base = lineIndex(set, way) * geo.wordsPerLine();
    store[base + word].flipBit(unsigned(bit_index % cw_bits));
}

void
CacheArray::deconfigureLine(std::uint64_t set, unsigned way)
{
    checkLocation(set, way);
    deconfigured[lineIndex(set, way)] = true;
    ++deconfGen;
}

bool
CacheArray::isDeconfigured(std::uint64_t set, unsigned way) const
{
    checkLocation(set, way);
    return deconfigured[lineIndex(set, way)];
}

void
CacheArray::reconfigureLine(std::uint64_t set, unsigned way)
{
    checkLocation(set, way);
    deconfigured[lineIndex(set, way)] = false;
    ++deconfGen;
}

WeakLineInfo
CacheArray::weakestLine() const
{
    // Memoized on the SRAM generation (the ranking depends only on the
    // cell critical voltages): the full weakest-first sort runs once
    // per aging epoch instead of once per caller.
    if (!weakestMemoValid ||
        weakestMemoGeneration != cells.generation()) {
        const auto lines = weakLines();
        weakestMemo = lines.empty() ? WeakLineInfo{} : lines.front();
        weakestMemoGeneration = cells.generation();
        weakestMemoValid = true;
    }
    return weakestMemo;
}

void
CacheArray::saveState(StateWriter &w) const
{
    // Codec identity guard: the stored codewords are only meaningful
    // to the codec that produced them, so a restore into an array
    // built with a different protection tier must be refused rather
    // than decoded as garbage.
    w.putU8(std::uint8_t(geo.eccScheme));
    w.putU8(std::uint8_t(geo.eccDataBits));

    cells.saveState(w);

    // Run-length encode the codeword store: runs of identical
    // codewords (count, word0, word1). Monitor pattern rewrites and
    // injected flips perturb only a handful of lines, so the store
    // compresses from megabytes to a few runs.
    w.putU64(store.size());
    std::vector<std::uint64_t> runs;
    std::size_t i = 0;
    while (i < store.size()) {
        std::size_t j = i + 1;
        while (j < store.size() && store[j] == store[i])
            ++j;
        runs.push_back(j - i);
        runs.push_back(store[i].word(0));
        runs.push_back(store[i].word(1));
        i = j;
    }
    w.putU64Vector(runs);

    w.putU64(deconfigured.size());
    std::vector<std::uint64_t> deconf_idx;
    for (std::size_t line = 0; line < deconfigured.size(); ++line) {
        if (deconfigured[line])
            deconf_idx.push_back(line);
    }
    w.putU64Vector(deconf_idx);
}

void
CacheArray::loadState(StateReader &r)
{
    const std::uint8_t scheme = r.getU8();
    const std::uint8_t data_bits = r.getU8();
    if (scheme != std::uint8_t(geo.eccScheme) ||
        data_bits != geo.eccDataBits)
        throw SnapshotError(
            "cache '" + geo.name + "' codec mismatch: snapshot holds " +
            "scheme id " + std::to_string(scheme) + " (" +
            std::to_string(data_bits) + "-bit words), array is built " +
            "with " + schemeName(geo.eccScheme) + " (" +
            std::to_string(geo.eccDataBits) + "-bit words)");

    cells.loadState(r);

    const std::uint64_t store_size = r.getU64();
    if (store_size != store.size())
        throw SnapshotError("cache '" + geo.name +
                            "' store size mismatch");
    const std::vector<std::uint64_t> runs = r.getU64Vector();
    if (runs.size() % 3 != 0)
        throw SnapshotError("cache '" + geo.name +
                            "' malformed codeword run list");
    std::size_t pos = 0;
    for (std::size_t k = 0; k < runs.size(); k += 3) {
        const std::uint64_t count = runs[k];
        if (count == 0 || count > store.size() - pos)
            throw SnapshotError("cache '" + geo.name +
                                "' codeword runs overflow the store");
        const Codeword cw = Codeword::fromWords(runs[k + 1],
                                                runs[k + 2]);
        if (!cw.fitsWidth(eccCodec->codewordBits()))
            throw SnapshotError("cache '" + geo.name +
                                "' codeword carries bits beyond the " +
                                std::to_string(eccCodec->codewordBits()) +
                                "-bit codeword");
        for (std::uint64_t n = 0; n < count; ++n)
            store[pos++] = cw;
    }
    if (pos != store.size())
        throw SnapshotError("cache '" + geo.name +
                            "' codeword runs cover " +
                            std::to_string(pos) + " of " +
                            std::to_string(store.size()) + " words");

    const std::uint64_t num_lines = r.getU64();
    if (num_lines != deconfigured.size())
        throw SnapshotError("cache '" + geo.name +
                            "' line count mismatch");
    std::fill(deconfigured.begin(), deconfigured.end(), false);
    for (std::uint64_t line : r.getU64Vector()) {
        if (line >= deconfigured.size())
            throw SnapshotError("cache '" + geo.name +
                                "' deconfigured line out of range");
        deconfigured[line] = true;
    }
    ++deconfGen;

    // The probability LUT keys on the SRAM generation, but entries
    // computed against the pre-restore population could alias a
    // restored generation value; drop them outright. The encode cache
    // is a pure function of the data word and stays valid. The
    // aggregate-rate and weakest-line memos have the same aliasing
    // exposure, so they drop too.
    if (!probCache.empty())
        std::fill(probCache.begin(), probCache.end(), ProbSlot{});
    probCacheGeneration = cells.generation();
    if (!aggCache.empty())
        std::fill(aggCache.begin(), aggCache.end(), AggSlot{});
    weakestMemoValid = false;
}

} // namespace vspec
