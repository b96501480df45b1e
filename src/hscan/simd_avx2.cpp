/**
 * @file
 * AVX2 kernels (this TU alone is built with -mavx2; callers reach it
 * only through resolveSimdTier-gated dispatch):
 *
 *  - shiftOrScanAvx2: the register-blocked Shift-Or tile kernel
 *    (shiftOrBlocks in simd_kernels.hpp) over 8 x 32-bit lanes per
 *    ymm, or 4 x 64-bit lanes for sites of 33..64 positions, up to
 *    two blocks per pass (16 registers leave no room for more).
 *    Without vpternlog each row of the inverted recurrence costs an
 *    OR and an AND, and the hit test is one vptest per byte.
 *  - anchorScanAvx2: 32 genome positions per iteration; each anchor's
 *    5-code match set is a 16-byte LUT probed with a byte shuffle,
 *    ANDed across anchors, movemask -> surviving positions.
 */

#if CRISPR_SIMD_ENABLED && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "hscan/simd_kernels.hpp"

namespace crispr::hscan::detail {

namespace {

// Vector policies for shiftOrBlocks. Bitwise ops ignore the lane
// width; only the shift (an add of the register to itself) and the
// per-lane tests depend on it.

template <class L>
struct Ymm
{
    using Reg = __m256i;
    using Lane = L;
    static constexpr size_t kLanes = 32 / sizeof(L);
    static constexpr size_t kMaxBlocks = 2;
    static constexpr bool k32 = sizeof(L) == 4;

    static Reg load(const L *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const Reg *>(p));
    }
    static void store(L *p, Reg v)
    {
        _mm256_storeu_si256(reinterpret_cast<Reg *>(p), v);
    }
    static Reg shl1(Reg v)
    {
        return k32 ? _mm256_add_epi32(v, v) : _mm256_add_epi64(v, v);
    }
    static Reg or_(Reg a, Reg b) { return _mm256_or_si256(a, b); }
    static Reg orAnd(Reg a, Reg b, Reg c)
    {
        return _mm256_and_si256(_mm256_or_si256(a, b), c);
    }
    static uint32_t accepts(Reg d, Reg a)
    {
        // vptest: carry set <=> (a & ~d) == 0 in every lane.
        if (_mm256_testc_si256(d, a))
            return 0;
        const Reg h = _mm256_andnot_si256(d, a);
        const Reg z = _mm256_setzero_si256();
        if constexpr (k32)
            return ~_mm256_movemask_ps(_mm256_castsi256_ps(
                       _mm256_cmpeq_epi32(h, z))) &
                   0xffu;
        else
            return ~_mm256_movemask_pd(_mm256_castsi256_pd(
                       _mm256_cmpeq_epi64(h, z))) &
                   0xfu;
    }
};

} // namespace

bool
shiftOrScanAvx2(const ShiftOrSoA &l, const uint64_t *in, uint64_t *out,
                std::span<const uint8_t> tile, ShiftOrHits &hits)
{
    if (l.laneBits == 32)
        return shiftOrBlocks<Ymm<uint32_t>>(l, in, out, tile, hits);
    return shiftOrBlocks<Ymm<uint64_t>>(l, in, out, tile, hits);
}

void
anchorScanAvx2(const uint8_t *text, size_t count,
               std::span<const AnchorProbe> anchors,
               std::vector<uint32_t> &out)
{
    const size_t blocks = count / 32;
    for (size_t b = 0; b < blocks; ++b) {
        const size_t s0 = b * 32;
        __m256i alive = _mm256_set1_epi8(static_cast<char>(0xff));
        for (const AnchorProbe &a : anchors) {
            const __m256i lut = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    a.match.data())));
            const __m256i codes = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(text + s0 +
                                                  a.offset));
            // Genome codes are 0..4 < 16, so the high shuffle bit is
            // never set and the LUT probe is exact.
            alive = _mm256_and_si256(alive,
                                     _mm256_shuffle_epi8(lut, codes));
            if (_mm256_testz_si256(alive, alive))
                break;
        }
        uint32_t survivors = ~static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi8(
                alive, _mm256_setzero_si256())));
        while (survivors) {
            const uint32_t lane =
                static_cast<uint32_t>(__builtin_ctz(survivors));
            out.push_back(static_cast<uint32_t>(s0) + lane);
            survivors &= survivors - 1;
        }
    }
    // Scalar tail: positions that do not fill a 32-wide block.
    const size_t tail0 = blocks * 32;
    for (size_t s = tail0; s < count; ++s) {
        bool alive = true;
        for (const AnchorProbe &a : anchors) {
            if (!a.match[text[s + a.offset]]) {
                alive = false;
                break;
            }
        }
        if (alive)
            out.push_back(static_cast<uint32_t>(s));
    }
}

} // namespace crispr::hscan::detail

#endif // CRISPR_SIMD_ENABLED && x86
