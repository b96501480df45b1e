/**
 * @file
 * Internal kernel entry points shared between the baseline translation
 * unit and the per-ISA ones (simd_avx2.cpp built with -mavx2,
 * simd_avx512.cpp with -mavx512f/bw/vl). Only resolveSimdTier-gated
 * call sites may invoke the AVX entry points — the per-ISA TUs contain
 * instructions the baseline build flags do not guarantee.
 *
 * Every kernel family implements the exact same observable semantics;
 * the scalar member is the executable specification.
 *
 * The register-blocked Shift-Or body (shiftOrBlocks) is a template
 * here so both ISA TUs run one kernel; each TU instantiates it with
 * its own vector policies. Those policies live in an anonymous
 * namespace, which gives every instantiation internal linkage, so no
 * ISA-flagged copy can be merged into the baseline build.
 */

#ifndef CRISPR_HSCAN_SIMD_KERNELS_HPP_
#define CRISPR_HSCAN_SIMD_KERNELS_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hscan/simd_shiftor.hpp"

namespace crispr::hscan::detail {

/** Hit callback: lane index into the SoA layout + chunk-local end. */
using ShiftOrHitFn = void (*)(void *ctx, uint32_t lane, size_t t);

/**
 * Advance `rows` (layout.rowCount x layout.width, row-major) over
 * `input`, invoking `onHit` at most once per (lane, position), lanes
 * ascending within a position. Padded lanes never hit.
 */
void shiftOrScanScalar(const ShiftOrSoA &layout, uint64_t *rows,
                       std::span<const uint8_t> input,
                       ShiftOrHitFn onHit, void *ctx);

/**
 * Bounded hit buffer of one text tile. Each hit is the key
 * (t << 32) | lane with t tile-local, so sorting the keys yields the
 * scalar kernel's order: positions ascending, lanes ascending.
 */
struct ShiftOrHits
{
    uint64_t *keys = nullptr;
    size_t capacity = 0;
    size_t count = 0;
};

/**
 * Advance every lane block over one text tile. Row state is read
 * from `rowsIn` and the tile-end state written to `rowsOut` (both
 * layout.rowCount x layout.width, row-major, in the scalar kernel's
 * non-inverted form); `rowsIn` is never written. Hits are appended to
 * `hits` block by block, so keys are ascending within a block only.
 * Returns false — with `rowsOut` and `hits` unspecified — when the
 * tile's hits do not fit, so the caller can retry from `rowsIn`.
 */
bool shiftOrScanAvx2(const ShiftOrSoA &layout, const uint64_t *rowsIn,
                     uint64_t *rowsOut, std::span<const uint8_t> tile,
                     ShiftOrHits &hits);
bool shiftOrScanAvx512(const ShiftOrSoA &layout, const uint64_t *rowsIn,
                       uint64_t *rowsOut, std::span<const uint8_t> tile,
                       ShiftOrHits &hits);

/**
 * Row counts up to this stay in vector registers for a whole tile;
 * larger ones take the generic path, whose rows live in a block-local
 * array. ShiftOrSoA caps rowCount at 65 (a site has at most 64
 * positions, so rows past 64 mismatches never differ).
 */
inline constexpr size_t kShiftOrRegisterRows = 6;
inline constexpr size_t kShiftOrMaxRows = 65;

/**
 * A vector policy V supplies, for lanes of type V::Lane (uint32_t or
 * uint64_t), V::kLanes lanes per register V::Reg, and the most lane
 * blocks V::kMaxBlocks (2 or 4, by register count) it interleaves in
 * one pass:
 *   load/store (unaligned), shl1 (per-lane <<1), or_,
 *   orAnd(a, b, c) = (a | b) & c,
 *   accepts(d, a) = bitmask of lanes where a & ~d != 0 (a lane whose
 *                   accept mask a is zero never accepts).
 *
 * A pass runs `Blocks` lane blocks over the tile together, so their
 * independent row chains overlap in the pipeline. Each block runs the
 * inverted recurrence (D = ~R):
 *   D0' = (D0 << 1) | ~B[c]
 *   Dk' = ((Dk << 1) | ~B[c]) & ((Dk-1 << 1) | ~mm)
 * where the right-hand Dk-1 is the row's old value.
 *
 * Hit test: rows are monotone (Rk contains Rk-1), so a lane that
 * accepts in any row within its budget has its accept bit in the
 * last row too. Each byte therefore tests the last row against the
 * lane's accept bit (row 0's accept mask, which every real lane has),
 * and only when that fires does it OR the exact per-row test
 * accept_k & ~Dk over every row. For a block whose lanes all have the
 * budget rows-1 the two agree; for mixed budgets the exact test drops
 * the lanes whose hit lies past their budget.
 */
template <class V, size_t Rows, size_t Blocks>
bool
shiftOrPass(const ShiftOrSoA &l, size_t lane0, const uint64_t *in,
            uint64_t *out, std::span<const uint8_t> tile,
            ShiftOrHits &hits)
{
    using Reg = typename V::Reg;
    using Lane = typename V::Lane;
    constexpr size_t kLanes = V::kLanes;
    constexpr size_t kCap = Rows ? Rows : kShiftOrMaxRows;
    const size_t rows = Rows ? Rows : l.rowCount;
    const size_t width = l.width;

    // Block-local tables: ~B[c] is picked by the text byte and the
    // per-row accept masks are read only when the last row fires, so
    // both live in L1; rows, ~mm and the accept bit stay in registers.
    alignas(64) Lane nb[genome::kNumSymbols][Blocks][kLanes];
    alignas(64) Lane acc[Blocks][kCap][kLanes];
    alignas(64) Lane buf[kLanes];
    Reg nmm[Blocks];
    Reg fin[Blocks];
    Reg d[Blocks][kCap];
    for (size_t v = 0; v < Blocks; ++v) {
        const size_t p = lane0 + v * kLanes;
        for (size_t c = 0; c < genome::kNumSymbols; ++c)
            for (size_t i = 0; i < kLanes; ++i)
                nb[c][v][i] = static_cast<Lane>(~l.symbol[c][p + i]);
        for (size_t i = 0; i < kLanes; ++i)
            buf[i] = static_cast<Lane>(~l.mismatch[p + i]);
        nmm[v] = V::load(buf);
        for (size_t i = 0; i < kLanes; ++i)
            buf[i] = static_cast<Lane>(l.accept[p + i]);
        fin[v] = V::load(buf);
        for (size_t k = 0; k < rows; ++k) {
            const uint64_t *rk = in + k * width + p;
            const uint64_t *ak = l.accept.data() + k * width + p;
            for (size_t i = 0; i < kLanes; ++i) {
                buf[i] = static_cast<Lane>(~rk[i]);
                acc[v][k][i] = static_cast<Lane>(ak[i]);
            }
            d[v][k] = V::load(buf);
        }
    }

    const uint8_t *text = tile.data();
    const size_t n = tile.size();
    for (size_t t = 0; t < n; ++t) {
        uint32_t lanes[Blocks];
        uint32_t any = 0;
#pragma GCC unroll 4
        for (size_t v = 0; v < Blocks; ++v) {
            const Reg b = V::load(nb[text[t]][v]);
            Reg below = V::shl1(d[v][0]);
            d[v][0] = V::or_(below, b);
#pragma GCC unroll 8
            for (size_t k = 1; k < rows; ++k) {
                const Reg self = V::shl1(d[v][k]);
                d[v][k] = V::orAnd(self, b, V::or_(below, nmm[v]));
                below = self;
            }
            lanes[v] = V::accepts(d[v][rows - 1], fin[v]);
            any |= lanes[v];
        }
        if (any) [[unlikely]] {
            // Fully unrolled like the row loop, so d stays in
            // registers.
            any = 0;
#pragma GCC unroll 4
            for (size_t v = 0; v < Blocks; ++v) {
                if (!lanes[v])
                    continue;
                uint32_t exact = 0;
#pragma GCC unroll 8
                for (size_t k = 0; k < rows; ++k)
                    exact |= V::accepts(d[v][k], V::load(acc[v][k]));
                lanes[v] = exact;
                any |= exact;
            }
            if (!any)
                continue;
            if (hits.count + static_cast<size_t>(Blocks * kLanes) >
                hits.capacity)
                return false;
            for (size_t v = 0; v < Blocks; ++v) {
                for (uint32_t m = lanes[v]; m; m &= m - 1) {
                    const uint64_t lane = lane0 + v * kLanes +
                                          static_cast<size_t>(
                                              __builtin_ctz(m));
                    hits.keys[hits.count++] = (uint64_t{t} << 32) | lane;
                }
            }
        }
    }

    for (size_t v = 0; v < Blocks; ++v) {
        for (size_t k = 0; k < rows; ++k) {
            V::store(buf, d[v][k]);
            uint64_t *rk = out + k * width + lane0 + v * kLanes;
            for (size_t i = 0; i < kLanes; ++i)
                rk[i] = static_cast<Lane>(~buf[i]);
        }
    }
    return true;
}

/**
 * Run one pass from `lane0`, interleaving as many of the remaining
 * blocks as the policy allows (4 only while the rows leave registers
 * for them). Returns the blocks advanced, 0 when the hits overflow.
 */
template <class V, size_t Rows>
size_t
shiftOrGroup(const ShiftOrSoA &l, size_t lane0, const uint64_t *in,
             uint64_t *out, std::span<const uint8_t> tile,
             ShiftOrHits &hits)
{
    constexpr size_t kMax = Rows <= 4 ? V::kMaxBlocks : 2;
    const size_t left = (l.patterns - lane0 + V::kLanes - 1) / V::kLanes;
    if constexpr (kMax >= 4) {
        if (left >= 4)
            return shiftOrPass<V, Rows, 4>(l, lane0, in, out, tile, hits)
                       ? 4
                       : 0;
    }
    if (left >= 2)
        return shiftOrPass<V, Rows, 2>(l, lane0, in, out, tile, hits)
                   ? 2
                   : 0;
    return shiftOrPass<V, Rows, 1>(l, lane0, in, out, tile, hits) ? 1 : 0;
}

/**
 * Run every lane block that holds a real pattern over the tile, a
 * group of blocks per pass. Lanes past the last such block are
 * padding whose rows stay zero in both row arrays.
 */
template <class V>
bool
shiftOrBlocks(const ShiftOrSoA &l, const uint64_t *in, uint64_t *out,
              std::span<const uint8_t> tile, ShiftOrHits &hits)
{
    static_assert(kShiftOrRegisterRows == 6);
    for (size_t lane0 = 0; lane0 < l.patterns;) {
        size_t advanced;
        switch (l.rowCount) {
        case 1:
            advanced = shiftOrGroup<V, 1>(l, lane0, in, out, tile, hits);
            break;
        case 2:
            advanced = shiftOrGroup<V, 2>(l, lane0, in, out, tile, hits);
            break;
        case 3:
            advanced = shiftOrGroup<V, 3>(l, lane0, in, out, tile, hits);
            break;
        case 4:
            advanced = shiftOrGroup<V, 4>(l, lane0, in, out, tile, hits);
            break;
        case 5:
            advanced = shiftOrGroup<V, 5>(l, lane0, in, out, tile, hits);
            break;
        case 6:
            advanced = shiftOrGroup<V, 6>(l, lane0, in, out, tile, hits);
            break;
        default:
            advanced =
                shiftOrPass<V, 0, 1>(l, lane0, in, out, tile, hits) ? 1 : 0;
            break;
        }
        if (advanced == 0)
            return false;
        lane0 += advanced * V::kLanes;
    }
    return true;
}

/**
 * One anchor position of a prefilter shape, as the probe kernels see
 * it: the genome-code byte at text[s + offset] must satisfy
 * match[code] != 0 for position s to survive. match is a 16-entry
 * byte LUT over genome codes (indices 0..4 used; N maps to 0) so the
 * vector kernels can probe it with a byte shuffle.
 */
struct AnchorProbe
{
    size_t offset = 0;
    std::array<uint8_t, 16> match{};
};

/**
 * Probe positions [0, count) of `text` against all anchors; append
 * surviving (block-relative) positions to `out`, ascending. The
 * caller guarantees text[count - 1 + max offset] is readable; the
 * vector kernels additionally read up to their lane width beyond a
 * surviving probe only within that bound (full blocks only — the tail
 * is probed scalar).
 */
void anchorScanScalar(const uint8_t *text, size_t count,
                      std::span<const AnchorProbe> anchors,
                      std::vector<uint32_t> &out);
void anchorScanAvx2(const uint8_t *text, size_t count,
                    std::span<const AnchorProbe> anchors,
                    std::vector<uint32_t> &out);
void anchorScanAvx512(const uint8_t *text, size_t count,
                      std::span<const AnchorProbe> anchors,
                      std::vector<uint32_t> &out);

} // namespace crispr::hscan::detail

#endif // CRISPR_HSCAN_SIMD_KERNELS_HPP_
