#include "common/simd.hh"

#include <cmath>
#include <cstring>

#include "common/counter_rng.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

// This translation unit must be compiled with FP contraction disabled
// (-ffp-contract=off, set in src/common/CMakeLists.txt): the scalar
// fallback and the vector lanes promise byte-identical results, which
// requires the exact same IEEE-754 operation sequence — a fused
// multiply-add in one path but not the other would break it.

namespace vspec
{

namespace simd
{

namespace
{

// ---------------------------------------------------------------------
// Shared constants. Both the portable and the vector implementations
// read these same literals so the operation *inputs* cannot diverge;
// byte-identity then only depends on the operation *sequence*, which
// each backend mirrors statement for statement.
// ---------------------------------------------------------------------

/** Threefry-2x64 rotation schedule (must match counter_rng.cc). */
constexpr std::uint64_t tfKeyParity = 0x1BD11BDAA9FC1A22ULL;

/** exp() argument clamp: keeps 2^n in the normal range (n >= -1021). */
constexpr double expMin = -708.0;
constexpr double expLog2e = 1.4426950408889634074;
/** Cody-Waite split of ln(2) for the two-step range reduction. */
constexpr double expLn2Hi = 6.93147180369123816490e-01;
constexpr double expLn2Lo = 1.90821492927058770002e-10;
/** 1.5 * 2^52: add/subtract rounds to nearest-even integer. */
constexpr double roundMagic = 6755399441055744.0;
/** Bit pattern of roundMagic; subtracting it from bits(x + roundMagic)
 *  yields the rounded integer in two's complement. */
constexpr std::int64_t roundMagicBits = 0x4338000000000000LL;
/** Degree-13 Taylor coefficients of exp(r), Horner order (1/13! first).
 *  |r| <= ln2/2 after reduction, so the truncation error is ~2e-16. */
constexpr double expTaylor[14] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         0.5,
    1.0,                1.0,
};

/** West (2004) double-precision normal CDF: body/tail split point,
 *  underflow cutoff, and the two Horner polynomial coefficient sets. */
constexpr double phiBodyCut = 7.071067811865475;
constexpr double phiZeroCut = 37.0;
constexpr double phiSqrt2Pi = 2.506628274631;
constexpr double phiNum[7] = {
    0.0352624965998911, 0.700383064443688, 6.37396220353165,
    33.912866078383,    112.079291497871,  221.213596169931,
    220.206867912376,
};
constexpr double phiDen[8] = {
    0.0883883476483184, 1.75566716318264, 16.064177579207,
    86.7807322029461,   296.564248779674, 637.333633378831,
    793.826512519948,   440.413735824752,
};

/** 2^52 and 2^-52 for the exact u64 -> double uniform mapping. */
constexpr double two52 = 4503599627370496.0;
constexpr double invTwo52 = 0x1.0p-52;
constexpr std::int64_t two52Bits = 0x4330000000000000LL;

std::int64_t
bitsOf(double x)
{
    std::int64_t out;
    std::memcpy(&out, &x, sizeof(out));
    return out;
}

double
doubleOf(std::int64_t bits)
{
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

// ---------------------------------------------------------------------
// Portable scalar kernels — the reference operation sequence.
// ---------------------------------------------------------------------

/**
 * exp(x) for x in [expMin, ~1]: round-to-nearest n = x/ln2 via the
 * magic-number trick, Cody-Waite reduction, degree-13 Taylor Horner,
 * exact 2^n scaling through the exponent bits. Every vector backend
 * mirrors this statement for statement.
 */
double
expCore(double x)
{
    if (x < expMin)
        x = expMin;
    const double t = x * expLog2e + roundMagic;
    const double n = t - roundMagic;
    const std::int64_t ni = bitsOf(t) - roundMagicBits;
    double r = x - n * expLn2Hi;
    r = r - n * expLn2Lo;
    double p = expTaylor[0];
    for (int k = 1; k < 14; ++k)
        p = p * r + expTaylor[k];
    return p * doubleOf((ni + 1023) << 52);
}

/** West (2004) standard normal CDF built on expCore. */
double
phiWest(double z)
{
    const double zabs = std::fabs(z);
    const double e = expCore((zabs * zabs) * -0.5);
    double p;
    if (zabs < phiBodyCut) {
        double num = phiNum[0];
        for (int k = 1; k < 7; ++k)
            num = num * zabs + phiNum[k];
        double den = phiDen[0];
        for (int k = 1; k < 8; ++k)
            den = den * zabs + phiDen[k];
        p = (e * num) / den;
    } else {
        double b = zabs + 0.65;
        b = zabs + 4.0 / b;
        b = zabs + 3.0 / b;
        b = zabs + 2.0 / b;
        b = zabs + 1.0 / b;
        p = (e / b) / phiSqrt2Pi;
    }
    if (zabs > phiZeroCut)
        p = 0.0;
    return z > 0.0 ? 1.0 - p : p;
}

/**
 * One scalar Bernoulli trial of the counter stream: trial index j maps
 * to word j % 2 of block c0 + j / 2. Shared by the portable kernel and
 * every vector backend's remainder loop, so tails stay byte-identical.
 */
bool
bernoulliTrial(double p, std::uint64_t key0, std::uint64_t key1,
               std::uint64_t ctr0, std::size_t j)
{
    std::uint64_t words[2];
    CounterRng::block(key0, key1, ctr0 + j / 2, 0, words);
    const double u = CounterRng::toUniform(words[j % 2]);
    return p > 0.0 && (p >= 1.0 || u < p);
}

void
threefryFillPortable(std::uint64_t key0, std::uint64_t key1,
                     std::uint64_t ctr0, std::size_t n_blocks,
                     std::uint64_t *out)
{
    for (std::size_t i = 0; i < n_blocks; ++i)
        CounterRng::block(key0, key1, ctr0 + i, 0, out + 2 * i);
}

void
normalCdfBatchPortable(const double *z, std::size_t n, double *out)
{
    for (std::size_t i = 0; i < n; ++i)
        out[i] = phiWest(z[i]);
}

std::size_t
bernoulliMaskPortable(const double *p, std::size_t n, std::uint64_t key0,
                      std::uint64_t key1, std::uint64_t ctr0,
                      std::uint8_t *mask)
{
    std::size_t count = 0;
    for (std::size_t j = 0; j < n; ++j) {
        const bool hit = bernoulliTrial(p[j], key0, key1, ctr0, j);
        mask[j] = hit ? 1 : 0;
        count += hit ? 1 : 0;
    }
    return count;
}

// ---------------------------------------------------------------------
// AVX2 backend (4 lanes). Compiled via the target attribute so the
// rest of the binary never emits AVX2 instructions; selected at
// runtime only when cpuid reports support.
// ---------------------------------------------------------------------

#if defined(__x86_64__) && !defined(VSPEC_DISABLE_SIMD)

#define VSPEC_TF_ROUND_AVX2(k)                                              \
    do {                                                                    \
        x0 = _mm256_add_epi64(x0, x1);                                      \
        x1 = _mm256_or_si256(_mm256_slli_epi64(x1, (k)),                    \
                             _mm256_srli_epi64(x1, 64 - (k)));              \
        x1 = _mm256_xor_si256(x1, x0);                                      \
    } while (0)

/** Four Threefry-2x64-20 blocks, counters c0..c0+3, second word 0. */
__attribute__((target("avx2"))) void
threefryBlocks4Avx2(std::uint64_t key0, std::uint64_t key1,
                    std::uint64_t c0, __m256i &x0, __m256i &x1)
{
    const std::uint64_t ks[3] = {key0, key1, tfKeyParity ^ key0 ^ key1};
    x0 = _mm256_add_epi64(
        _mm256_set_epi64x(std::int64_t(c0 + 3), std::int64_t(c0 + 2),
                          std::int64_t(c0 + 1), std::int64_t(c0)),
        _mm256_set1_epi64x(std::int64_t(ks[0])));
    x1 = _mm256_set1_epi64x(std::int64_t(ks[1]));
    for (unsigned inj = 0; inj < 5; ++inj) {
        if ((inj & 1) == 0) {
            VSPEC_TF_ROUND_AVX2(16);
            VSPEC_TF_ROUND_AVX2(42);
            VSPEC_TF_ROUND_AVX2(12);
            VSPEC_TF_ROUND_AVX2(31);
        } else {
            VSPEC_TF_ROUND_AVX2(16);
            VSPEC_TF_ROUND_AVX2(32);
            VSPEC_TF_ROUND_AVX2(24);
            VSPEC_TF_ROUND_AVX2(21);
        }
        x0 = _mm256_add_epi64(
            x0, _mm256_set1_epi64x(std::int64_t(ks[(inj + 1) % 3])));
        x1 = _mm256_add_epi64(
            x1, _mm256_set1_epi64x(std::int64_t(ks[(inj + 2) % 3] + inj + 1)));
    }
}

#undef VSPEC_TF_ROUND_AVX2

__attribute__((target("avx2"))) void
threefryFillAvx2(std::uint64_t key0, std::uint64_t key1, std::uint64_t ctr0,
                 std::size_t n_blocks, std::uint64_t *out)
{
    std::size_t i = 0;
    for (; i + 4 <= n_blocks; i += 4) {
        __m256i x0, x1;
        threefryBlocks4Avx2(key0, key1, ctr0 + i, x0, x1);
        // Interleave [a0 b0 c0 d0] / [a1 b1 c1 d1] into block order.
        const __m256i lo = _mm256_unpacklo_epi64(x0, x1);
        const __m256i hi = _mm256_unpackhi_epi64(x0, x1);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + 2 * i),
            _mm256_permute2x128_si256(lo, hi, 0x20));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + 2 * i + 4),
            _mm256_permute2x128_si256(lo, hi, 0x31));
    }
    // The scalar tail calls non-AVX code: leave the upper YMM state
    // clean first, or every later SSE instruction on this thread pays
    // the AVX-SSE transition penalty.
    _mm256_zeroupper();
    for (; i < n_blocks; ++i)
        CounterRng::block(key0, key1, ctr0 + i, 0, out + 2 * i);
}

/** Mirrors expCore lane-wise; same clamps, same operation order. */
__attribute__((target("avx2"))) __m256d
expCoreAvx2(__m256d x)
{
    x = _mm256_max_pd(x, _mm256_set1_pd(expMin));
    const __m256d t = _mm256_add_pd(
        _mm256_mul_pd(x, _mm256_set1_pd(expLog2e)),
        _mm256_set1_pd(roundMagic));
    const __m256d n = _mm256_sub_pd(t, _mm256_set1_pd(roundMagic));
    const __m256i ni = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                        _mm256_set1_epi64x(roundMagicBits));
    __m256d r =
        _mm256_sub_pd(x, _mm256_mul_pd(n, _mm256_set1_pd(expLn2Hi)));
    r = _mm256_sub_pd(r, _mm256_mul_pd(n, _mm256_set1_pd(expLn2Lo)));
    __m256d p = _mm256_set1_pd(expTaylor[0]);
    for (int k = 1; k < 14; ++k)
        p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(expTaylor[k]));
    const __m256i scale =
        _mm256_slli_epi64(_mm256_add_epi64(ni, _mm256_set1_epi64x(1023)), 52);
    return _mm256_mul_pd(p, _mm256_castsi256_pd(scale));
}

__attribute__((target("avx2"))) __m256d
phiWestAvx2(__m256d z)
{
    const __m256d signMask = _mm256_set1_pd(-0.0);
    const __m256d zabs = _mm256_andnot_pd(signMask, z);
    const __m256d e = expCoreAvx2(_mm256_mul_pd(
        _mm256_mul_pd(zabs, zabs), _mm256_set1_pd(-0.5)));
    // Body and tail both evaluate on all lanes; the discarded branch may
    // produce inf/NaN in out-of-domain lanes, which the blend drops.
    __m256d num = _mm256_set1_pd(phiNum[0]);
    for (int k = 1; k < 7; ++k)
        num = _mm256_add_pd(_mm256_mul_pd(num, zabs),
                            _mm256_set1_pd(phiNum[k]));
    __m256d den = _mm256_set1_pd(phiDen[0]);
    for (int k = 1; k < 8; ++k)
        den = _mm256_add_pd(_mm256_mul_pd(den, zabs),
                            _mm256_set1_pd(phiDen[k]));
    const __m256d pBody = _mm256_div_pd(_mm256_mul_pd(e, num), den);

    __m256d b = _mm256_add_pd(zabs, _mm256_set1_pd(0.65));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(4.0), b));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(3.0), b));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(2.0), b));
    b = _mm256_add_pd(zabs, _mm256_div_pd(_mm256_set1_pd(1.0), b));
    const __m256d pTail = _mm256_div_pd(_mm256_div_pd(e, b),
                                        _mm256_set1_pd(phiSqrt2Pi));

    const __m256d inBody =
        _mm256_cmp_pd(zabs, _mm256_set1_pd(phiBodyCut), _CMP_LT_OQ);
    __m256d p = _mm256_blendv_pd(pTail, pBody, inBody);
    const __m256d tiny =
        _mm256_cmp_pd(zabs, _mm256_set1_pd(phiZeroCut), _CMP_GT_OQ);
    p = _mm256_andnot_pd(tiny, p);
    const __m256d pos =
        _mm256_cmp_pd(z, _mm256_set1_pd(0.0), _CMP_GT_OQ);
    return _mm256_blendv_pd(
        p, _mm256_sub_pd(_mm256_set1_pd(1.0), p), pos);
}

__attribute__((target("avx2"))) void
normalCdfBatchAvx2(const double *z, std::size_t n, double *out)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, phiWestAvx2(_mm256_loadu_pd(z + i)));
    _mm256_zeroupper();  // See threefryFillAvx2.
    for (; i < n; ++i)
        out[i] = phiWest(z[i]);
}

/** word >> 12 -> exact double via the 2^52 magic trick, then * 2^-52.
 *  Matches CounterRng::toUniform bit for bit (values < 2^52 convert
 *  exactly either way). */
__attribute__((target("avx2"))) __m256d
toUniformAvx2(__m256i words)
{
    const __m256i frac = _mm256_or_si256(_mm256_srli_epi64(words, 12),
                                         _mm256_set1_epi64x(two52Bits));
    const __m256d d = _mm256_sub_pd(_mm256_castsi256_pd(frac),
                                    _mm256_set1_pd(two52));
    return _mm256_mul_pd(d, _mm256_set1_pd(invTwo52));
}

__attribute__((target("avx2"))) int
bernoulliBitsAvx2(const double *p, __m256d u)
{
    const __m256d pv = _mm256_loadu_pd(p);
    const __m256d gt0 =
        _mm256_cmp_pd(pv, _mm256_set1_pd(0.0), _CMP_GT_OQ);
    const __m256d ge1 =
        _mm256_cmp_pd(pv, _mm256_set1_pd(1.0), _CMP_GE_OQ);
    const __m256d lt = _mm256_cmp_pd(u, pv, _CMP_LT_OQ);
    return _mm256_movemask_pd(_mm256_and_pd(gt0, _mm256_or_pd(ge1, lt)));
}

__attribute__((target("avx2"))) std::size_t
bernoulliMaskAvx2(const double *p, std::size_t n, std::uint64_t key0,
                  std::uint64_t key1, std::uint64_t ctr0, std::uint8_t *mask)
{
    std::size_t count = 0;
    std::size_t j = 0;
    // Eight trials per iteration: four blocks -> eight stream words.
    for (; j + 8 <= n; j += 8) {
        __m256i x0, x1;
        threefryBlocks4Avx2(key0, key1, ctr0 + j / 2, x0, x1);
        const __m256i lo = _mm256_unpacklo_epi64(x0, x1);
        const __m256i hi = _mm256_unpackhi_epi64(x0, x1);
        const __m256i w03 = _mm256_permute2x128_si256(lo, hi, 0x20);
        const __m256i w47 = _mm256_permute2x128_si256(lo, hi, 0x31);
        const int bits = bernoulliBitsAvx2(p + j, toUniformAvx2(w03)) |
                         (bernoulliBitsAvx2(p + j + 4, toUniformAvx2(w47))
                          << 4);
        for (int k = 0; k < 8; ++k)
            mask[j + k] = std::uint8_t((bits >> k) & 1);
        count += std::size_t(__builtin_popcount(unsigned(bits)));
    }
    _mm256_zeroupper();  // See threefryFillAvx2.
    for (; j < n; ++j) {
        const bool hit = bernoulliTrial(p[j], key0, key1, ctr0, j);
        mask[j] = hit ? 1 : 0;
        count += hit ? 1 : 0;
    }
    return count;
}

#endif // __x86_64__ && !VSPEC_DISABLE_SIMD

// ---------------------------------------------------------------------
// NEON backend (2 lanes, aarch64 only — baseline there, no dispatch
// probe needed).
// ---------------------------------------------------------------------

#if defined(__aarch64__) && !defined(VSPEC_DISABLE_SIMD)

#define VSPEC_TF_ROUND_NEON(k)                                              \
    do {                                                                    \
        x0 = vaddq_u64(x0, x1);                                             \
        x1 = vorrq_u64(vshlq_n_u64(x1, (k)), vshrq_n_u64(x1, 64 - (k)));    \
        x1 = veorq_u64(x1, x0);                                             \
    } while (0)

/** Two Threefry-2x64-20 blocks, counters c0 and c0+1, second word 0. */
void
threefryBlocks2Neon(std::uint64_t key0, std::uint64_t key1,
                    std::uint64_t c0, uint64x2_t &x0, uint64x2_t &x1)
{
    const std::uint64_t ks[3] = {key0, key1, tfKeyParity ^ key0 ^ key1};
    const std::uint64_t ctrs[2] = {c0, c0 + 1};
    x0 = vaddq_u64(vld1q_u64(ctrs), vdupq_n_u64(ks[0]));
    x1 = vdupq_n_u64(ks[1]);
    for (unsigned inj = 0; inj < 5; ++inj) {
        if ((inj & 1) == 0) {
            VSPEC_TF_ROUND_NEON(16);
            VSPEC_TF_ROUND_NEON(42);
            VSPEC_TF_ROUND_NEON(12);
            VSPEC_TF_ROUND_NEON(31);
        } else {
            VSPEC_TF_ROUND_NEON(16);
            VSPEC_TF_ROUND_NEON(32);
            VSPEC_TF_ROUND_NEON(24);
            VSPEC_TF_ROUND_NEON(21);
        }
        x0 = vaddq_u64(x0, vdupq_n_u64(ks[(inj + 1) % 3]));
        x1 = vaddq_u64(x1, vdupq_n_u64(ks[(inj + 2) % 3] + inj + 1));
    }
}

#undef VSPEC_TF_ROUND_NEON

void
threefryFillNeon(std::uint64_t key0, std::uint64_t key1, std::uint64_t ctr0,
                 std::size_t n_blocks, std::uint64_t *out)
{
    std::size_t i = 0;
    for (; i + 2 <= n_blocks; i += 2) {
        uint64x2_t x0, x1;
        threefryBlocks2Neon(key0, key1, ctr0 + i, x0, x1);
        vst1q_u64(out + 2 * i, vzip1q_u64(x0, x1));
        vst1q_u64(out + 2 * i + 2, vzip2q_u64(x0, x1));
    }
    for (; i < n_blocks; ++i)
        CounterRng::block(key0, key1, ctr0 + i, 0, out + 2 * i);
}

float64x2_t
expCoreNeon(float64x2_t x)
{
    x = vmaxq_f64(x, vdupq_n_f64(expMin));
    const float64x2_t t = vaddq_f64(vmulq_f64(x, vdupq_n_f64(expLog2e)),
                                    vdupq_n_f64(roundMagic));
    const float64x2_t n = vsubq_f64(t, vdupq_n_f64(roundMagic));
    const int64x2_t ni = vsubq_s64(vreinterpretq_s64_f64(t),
                                   vdupq_n_s64(roundMagicBits));
    float64x2_t r = vsubq_f64(x, vmulq_f64(n, vdupq_n_f64(expLn2Hi)));
    r = vsubq_f64(r, vmulq_f64(n, vdupq_n_f64(expLn2Lo)));
    float64x2_t p = vdupq_n_f64(expTaylor[0]);
    for (int k = 1; k < 14; ++k)
        p = vaddq_f64(vmulq_f64(p, r), vdupq_n_f64(expTaylor[k]));
    const int64x2_t scale =
        vshlq_n_s64(vaddq_s64(ni, vdupq_n_s64(1023)), 52);
    return vmulq_f64(p, vreinterpretq_f64_s64(scale));
}

float64x2_t
phiWestNeon(float64x2_t z)
{
    const float64x2_t zabs = vabsq_f64(z);
    const float64x2_t e = expCoreNeon(
        vmulq_f64(vmulq_f64(zabs, zabs), vdupq_n_f64(-0.5)));
    float64x2_t num = vdupq_n_f64(phiNum[0]);
    for (int k = 1; k < 7; ++k)
        num = vaddq_f64(vmulq_f64(num, zabs), vdupq_n_f64(phiNum[k]));
    float64x2_t den = vdupq_n_f64(phiDen[0]);
    for (int k = 1; k < 8; ++k)
        den = vaddq_f64(vmulq_f64(den, zabs), vdupq_n_f64(phiDen[k]));
    const float64x2_t pBody = vdivq_f64(vmulq_f64(e, num), den);

    float64x2_t b = vaddq_f64(zabs, vdupq_n_f64(0.65));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(4.0), b));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(3.0), b));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(2.0), b));
    b = vaddq_f64(zabs, vdivq_f64(vdupq_n_f64(1.0), b));
    const float64x2_t pTail =
        vdivq_f64(vdivq_f64(e, b), vdupq_n_f64(phiSqrt2Pi));

    const uint64x2_t inBody = vcltq_f64(zabs, vdupq_n_f64(phiBodyCut));
    float64x2_t p = vbslq_f64(inBody, pBody, pTail);
    const uint64x2_t tiny = vcgtq_f64(zabs, vdupq_n_f64(phiZeroCut));
    p = vreinterpretq_f64_u64(
        vbicq_u64(vreinterpretq_u64_f64(p), tiny));
    const uint64x2_t pos = vcgtq_f64(z, vdupq_n_f64(0.0));
    return vbslq_f64(pos, vsubq_f64(vdupq_n_f64(1.0), p), p);
}

void
normalCdfBatchNeon(const double *z, std::size_t n, double *out)
{
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        vst1q_f64(out + i, phiWestNeon(vld1q_f64(z + i)));
    for (; i < n; ++i)
        out[i] = phiWest(z[i]);
}

float64x2_t
toUniformNeon(uint64x2_t words)
{
    const uint64x2_t frac = vorrq_u64(vshrq_n_u64(words, 12),
                                      vdupq_n_u64(std::uint64_t(two52Bits)));
    const float64x2_t d =
        vsubq_f64(vreinterpretq_f64_u64(frac), vdupq_n_f64(two52));
    return vmulq_f64(d, vdupq_n_f64(invTwo52));
}

uint64x2_t
bernoulliLanesNeon(const double *p, float64x2_t u)
{
    const float64x2_t pv = vld1q_f64(p);
    const uint64x2_t gt0 = vcgtq_f64(pv, vdupq_n_f64(0.0));
    const uint64x2_t ge1 = vcgeq_f64(pv, vdupq_n_f64(1.0));
    const uint64x2_t lt = vcltq_f64(u, pv);
    return vandq_u64(gt0, vorrq_u64(ge1, lt));
}

std::size_t
bernoulliMaskNeon(const double *p, std::size_t n, std::uint64_t key0,
                  std::uint64_t key1, std::uint64_t ctr0, std::uint8_t *mask)
{
    std::size_t count = 0;
    std::size_t j = 0;
    // Four trials per iteration: two blocks -> four stream words.
    for (; j + 4 <= n; j += 4) {
        uint64x2_t x0, x1;
        threefryBlocks2Neon(key0, key1, ctr0 + j / 2, x0, x1);
        const uint64x2_t m01 =
            bernoulliLanesNeon(p + j, toUniformNeon(vzip1q_u64(x0, x1)));
        const uint64x2_t m23 =
            bernoulliLanesNeon(p + j + 2, toUniformNeon(vzip2q_u64(x0, x1)));
        mask[j] = vgetq_lane_u64(m01, 0) ? 1 : 0;
        mask[j + 1] = vgetq_lane_u64(m01, 1) ? 1 : 0;
        mask[j + 2] = vgetq_lane_u64(m23, 0) ? 1 : 0;
        mask[j + 3] = vgetq_lane_u64(m23, 1) ? 1 : 0;
        count += mask[j] + mask[j + 1] + mask[j + 2] + mask[j + 3];
    }
    for (; j < n; ++j) {
        const bool hit = bernoulliTrial(p[j], key0, key1, ctr0, j);
        mask[j] = hit ? 1 : 0;
        count += hit ? 1 : 0;
    }
    return count;
}

#endif // __aarch64__ && !VSPEC_DISABLE_SIMD

// ---------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------

using FillFn = void (*)(std::uint64_t, std::uint64_t, std::uint64_t,
                        std::size_t, std::uint64_t *);
using CdfFn = void (*)(const double *, std::size_t, double *);
using MaskFn = std::size_t (*)(const double *, std::size_t, std::uint64_t,
                               std::uint64_t, std::uint64_t, std::uint8_t *);

struct Backend
{
    const char *name;
    FillFn fill;
    CdfFn cdf;
    MaskFn mask;
};

Backend
selectBackend()
{
#if defined(VSPEC_DISABLE_SIMD)
    return {"portable", threefryFillPortable, normalCdfBatchPortable,
            bernoulliMaskPortable};
#else
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return {"avx2", threefryFillAvx2, normalCdfBatchAvx2,
                bernoulliMaskAvx2};
#endif
#if defined(__aarch64__)
    return {"neon", threefryFillNeon, normalCdfBatchNeon, bernoulliMaskNeon};
#endif
    return {"portable", threefryFillPortable, normalCdfBatchPortable,
            bernoulliMaskPortable};
#endif
}

const Backend &
backend()
{
    static const Backend selected = selectBackend();
    return selected;
}

} // namespace

const char *
backendName()
{
    return backend().name;
}

void
threefryFill(std::uint64_t key0, std::uint64_t key1, std::uint64_t ctr0,
             std::size_t n_blocks, std::uint64_t *out)
{
    backend().fill(key0, key1, ctr0, n_blocks, out);
}

void
normalCdfBatch(const double *z, std::size_t n, double *out)
{
    backend().cdf(z, n, out);
}

std::size_t
bernoulliMask(const double *p, std::size_t n, std::uint64_t key0,
              std::uint64_t key1, std::uint64_t ctr0, std::uint8_t *mask)
{
    return backend().mask(p, n, key0, key1, ctr0, mask);
}

namespace portable
{

void
threefryFill(std::uint64_t key0, std::uint64_t key1, std::uint64_t ctr0,
             std::size_t n_blocks, std::uint64_t *out)
{
    threefryFillPortable(key0, key1, ctr0, n_blocks, out);
}

void
normalCdfBatch(const double *z, std::size_t n, double *out)
{
    normalCdfBatchPortable(z, n, out);
}

std::size_t
bernoulliMask(const double *p, std::size_t n, std::uint64_t key0,
              std::uint64_t key1, std::uint64_t ctr0, std::uint8_t *mask)
{
    return bernoulliMaskPortable(p, n, key0, key1, ctr0, mask);
}

} // namespace portable

} // namespace simd

} // namespace vspec
