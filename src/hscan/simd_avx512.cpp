/**
 * @file
 * AVX-512 kernels (this TU alone is built with -mavx512f -mavx512bw
 * -mavx512vl; callers reach it only through resolveSimdTier-gated
 * dispatch):
 *
 *  - shiftOrScanAvx512: the register-blocked Shift-Or tile kernel
 *    (shiftOrBlocks in simd_kernels.hpp) over 16 x 32-bit lanes per
 *    zmm, or 8 x 64-bit lanes for sites of 33..64 positions, up to
 *    four blocks per pass. One vpternlog finishes each row of the
 *    inverted recurrence, and hit tests land in mask registers.
 *  - anchorScanAvx512: 64 genome positions per iteration via 512-bit
 *    byte shuffles (avx512bw).
 */

#if CRISPR_SIMD_ENABLED && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include "hscan/simd_kernels.hpp"

namespace crispr::hscan::detail {

namespace {

// Vector policies for shiftOrBlocks. Bitwise ops ignore the lane
// width; only the shift (an add of the register to itself) and the
// per-lane tests depend on it. vpternlog truth table 0xA8 over
// (a, b, c) is (a | b) & c.

template <class L>
struct Zmm
{
    using Reg = __m512i;
    using Lane = L;
    static constexpr size_t kLanes = 64 / sizeof(L);
    static constexpr size_t kMaxBlocks = 4;
    static constexpr bool k32 = sizeof(L) == 4;

    static Reg load(const L *p) { return _mm512_loadu_si512(p); }
    static void store(L *p, Reg v) { _mm512_storeu_si512(p, v); }
    static Reg shl1(Reg v)
    {
        return k32 ? _mm512_add_epi32(v, v) : _mm512_add_epi64(v, v);
    }
    static Reg or_(Reg a, Reg b) { return _mm512_or_si512(a, b); }
    static Reg orAnd(Reg a, Reg b, Reg c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, 0xA8);
    }
    static uint32_t accepts(Reg d, Reg a)
    {
        // Lanes where d & a == 0, restricted to lanes with a != 0
        // (the restriction is loop-invariant in the kernel).
        return k32 ? _mm512_mask_testn_epi32_mask(
                         _mm512_test_epi32_mask(a, a), d, a)
                   : _mm512_mask_testn_epi64_mask(
                         _mm512_test_epi64_mask(a, a), d, a);
    }
};

} // namespace

bool
shiftOrScanAvx512(const ShiftOrSoA &l, const uint64_t *in, uint64_t *out,
                  std::span<const uint8_t> tile, ShiftOrHits &hits)
{
    if (l.laneBits == 32)
        return shiftOrBlocks<Zmm<uint32_t>>(l, in, out, tile, hits);
    return shiftOrBlocks<Zmm<uint64_t>>(l, in, out, tile, hits);
}

void
anchorScanAvx512(const uint8_t *text, size_t count,
                 std::span<const AnchorProbe> anchors,
                 std::vector<uint32_t> &out)
{
    const size_t blocks = count / 64;
    for (size_t b = 0; b < blocks; ++b) {
        const size_t s0 = b * 64;
        __m512i alive = _mm512_set1_epi8(static_cast<char>(0xff));
        for (const AnchorProbe &a : anchors) {
            // The maskz form: the unmasked broadcast's undefined
            // pass-through trips -Wmaybe-uninitialized in GCC 12.
            const __m512i lut = _mm512_maskz_broadcast_i32x4(
                static_cast<__mmask16>(0xffff),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    a.match.data())));
            const __m512i codes =
                _mm512_loadu_si512(text + s0 + a.offset);
            // Genome codes are 0..4 < 16: the LUT probe is exact.
            alive = _mm512_and_si512(alive,
                                     _mm512_shuffle_epi8(lut, codes));
        }
        uint64_t survivors =
            ~_mm512_cmpeq_epi8_mask(alive, _mm512_setzero_si512());
        while (survivors) {
            const uint32_t lane =
                static_cast<uint32_t>(__builtin_ctzll(survivors));
            out.push_back(static_cast<uint32_t>(s0) + lane);
            survivors &= survivors - 1;
        }
    }
    // Scalar tail: positions that do not fill a 64-wide block.
    const size_t tail0 = blocks * 64;
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
