/**
 * @file
 * Vectorized multi-pattern Shift-Or: the bit-parallel Hamming kernel
 * of shiftor.hpp re-laid-out structure-of-arrays so one vector lane
 * carries one pattern's row. Every (pattern, row) update in the
 * scalar recurrence reads only *old* row values, so all lanes of all
 * rows advance in lock-step from the previous symbol's state — the
 * scalar, AVX2 and AVX-512 kernels execute the identical recurrence
 * and are bit-identical by construction (and by the SIMD conformance
 * matrix).
 *
 * The vector kernels are register-blocked (DESIGN.md §13): the text
 * is cut into kShiftOrTileBytes tiles, and each lane block keeps its
 * d+1 rows and masks in vector registers across a whole tile, so one
 * genome byte costs register operations instead of a sweep over every
 * pattern's state in memory. Sets whose sites all have <= 32
 * positions run 32-bit lanes (16 patterns per AVX-512 vector, 8 per
 * AVX2); longer sites run 64-bit lanes. Hits are buffered per tile
 * and emitted in the scalar kernel's order.
 *
 * The SoA layout is tier-independent: it is built once per compiled
 * Database and shared by every Scanner at any tier; only the per-scan
 * row state and tile buffers are per-matcher.
 */

#ifndef CRISPR_HSCAN_SIMD_SHIFTOR_HPP_
#define CRISPR_HSCAN_SIMD_SHIFTOR_HPP_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "automata/builders.hpp"
#include "automata/interp.hpp"
#include "genome/sequence.hpp"
#include "hscan/simd.hpp"

namespace crispr::hscan {

/**
 * Text tile of the vector kernels: every lane block advances over one
 * tile before the next block starts, and hits are emitted per tile.
 */
inline constexpr size_t kShiftOrTileBytes = 16384;

/**
 * Structure-of-arrays compiled form of a Shift-Or pattern set. All
 * per-pattern arrays are padded to `width` lanes (a multiple of the
 * widest vector block, 16) with all-zero symbol masks and accept
 * bits, so padded lanes can never report.
 */
struct ShiftOrSoA
{
    size_t patterns = 0; //!< real pattern count
    size_t width = 0;    //!< padded lane count (multiple of 16)
    /**
     * min(maxMismatches, site length)+1, maximised over the set
     * (at most 65): rows past a site's length never differ, so the
     * cap changes no hit.
     */
    size_t rowCount = 0;
    /** 32 when every site has <= 32 positions, else 64. */
    unsigned laneBits = 64;

    /** symbol[c][p] = B_p[c]; symbol[N] is all zero. */
    std::vector<uint64_t> symbol[genome::kNumSymbols];
    std::vector<uint64_t> mismatch; //!< mismatch-window mask per lane
    /**
     * accept[k*width + p]: the pattern's accept bit when row k is
     * inside its mismatch budget, else 0 — this is what lets patterns
     * with different d share one rectangular row block.
     */
    std::vector<uint64_t> accept;
    std::vector<uint32_t> reportId; //!< per lane (0 for padding)

    size_t stateWords() const { return rowCount * width; }
    size_t layoutBytes() const;
};

/** Build the shared SoA layout for a spec set (each len 1..64). */
std::shared_ptr<const ShiftOrSoA>
buildShiftOrSoA(std::span<const automata::HammingSpec> specs);

/**
 * Streaming vectorized Shift-Or matcher over a shared SoA layout.
 * Interface-compatible with ShiftOrMatcher; the kernel is chosen by
 * the (already resolved) tier passed at construction.
 */
class SimdShiftOrMatcher
{
  public:
    /** @param tier a concrete usable tier (not Auto) from
     *  resolveSimdTier(); fatal on Auto. */
    SimdShiftOrMatcher(std::shared_ptr<const ShiftOrSoA> layout,
                       SimdTier tier);

    /** Compile specs and pick a tier in one step (tests, benches). */
    SimdShiftOrMatcher(std::span<const automata::HammingSpec> specs,
                       SimdTier tier);

    /** Reset all rows to the before-any-input state. */
    void reset();

    /** Consume a chunk of genome codes, emitting report events. */
    void scan(std::span<const uint8_t> input,
              const automata::ReportSink &sink,
              uint64_t base_offset = 0);

    /** Whole-sequence convenience scan (resets first). */
    std::vector<automata::ReportEvent>
    scanAll(const genome::Sequence &seq);

    size_t patternCount() const { return layout_->patterns; }
    SimdTier tier() const { return tier_; }

    /** Bytes of working state (rows, tile buffers, shared layout). */
    size_t stateBytes() const;

  private:
    std::shared_ptr<const ShiftOrSoA> layout_;
    SimdTier tier_;
    std::vector<uint64_t> rows_; //!< rowCount x width, row-major
    std::vector<uint64_t> next_; //!< a tile's end state, then swapped
    /** One tile's hit keys; grows on demand up to its bound. */
    std::vector<uint64_t> hits_;
};

} // namespace crispr::hscan

#endif // CRISPR_HSCAN_SIMD_SHIFTOR_HPP_
