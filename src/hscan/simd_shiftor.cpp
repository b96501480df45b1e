#include "hscan/simd_shiftor.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "hscan/simd_kernels.hpp"

#ifndef CRISPR_SIMD_ENABLED
#define CRISPR_SIMD_ENABLED 1
#endif

namespace crispr::hscan {

using automata::HammingSpec;
using automata::ReportSink;

size_t
ShiftOrSoA::layoutBytes() const
{
    size_t bytes = sizeof(ShiftOrSoA);
    for (const auto &s : symbol)
        bytes += s.size() * sizeof(uint64_t);
    bytes += mismatch.size() * sizeof(uint64_t);
    bytes += accept.size() * sizeof(uint64_t);
    bytes += reportId.size() * sizeof(uint32_t);
    return bytes;
}

std::shared_ptr<const ShiftOrSoA>
buildShiftOrSoA(std::span<const HammingSpec> specs)
{
    auto soa = std::make_shared<ShiftOrSoA>();
    soa->patterns = specs.size();
    // Pad to the widest vector block (16 x 32-bit lanes) so every
    // kernel can run full blocks with no lane-tail special case.
    soa->width = std::max<size_t>(16, (specs.size() + 15) / 16 * 16);
    size_t max_rows = 1;
    size_t max_len = 0;
    for (const HammingSpec &spec : specs) {
        const size_t len = spec.masks.size();
        if (len == 0 || len > 64)
            fatal("bit-parallel matcher requires 1..64 pattern "
                  "positions (got %zu)",
                  len);
        if (spec.maxMismatches < 0)
            fatal("negative mismatch budget");
        max_rows = std::max(
            max_rows,
            std::min(static_cast<size_t>(spec.maxMismatches), len) + 1);
        max_len = std::max(max_len, len);
    }
    soa->rowCount = max_rows;
    soa->laneBits = max_len <= 32 ? 32 : 64;

    for (auto &s : soa->symbol)
        s.assign(soa->width, 0);
    soa->mismatch.assign(soa->width, 0);
    soa->accept.assign(soa->rowCount * soa->width, 0);
    soa->reportId.assign(soa->width, 0);

    for (size_t p = 0; p < specs.size(); ++p) {
        const HammingSpec &spec = specs[p];
        const size_t len = spec.masks.size();
        for (size_t j = 0; j < len; ++j) {
            for (uint8_t c = 0; c < 4; ++c) {
                if (genome::maskMatches(spec.masks[j], c))
                    soa->symbol[c][p] |= 1ULL << j;
            }
            // Genome N never matches a pattern position: symbol[N]=0.
        }
        const size_t hi = std::min(spec.mismatchHi, len);
        for (size_t j = spec.mismatchLo; j < hi; ++j)
            soa->mismatch[p] |= 1ULL << j;
        const uint64_t accept_bit = 1ULL << (len - 1);
        const size_t rows =
            std::min(static_cast<size_t>(spec.maxMismatches), len) + 1;
        for (size_t k = 0; k < rows; ++k)
            soa->accept[k * soa->width + p] = accept_bit;
        soa->reportId[p] = spec.reportId;
    }
    return soa;
}

namespace detail {

void
shiftOrScanScalar(const ShiftOrSoA &l, uint64_t *rows,
                  std::span<const uint8_t> input, ShiftOrHitFn onHit,
                  void *ctx)
{
    const size_t width = l.width;
    const size_t row_count = l.rowCount;
    for (size_t t = 0; t < input.size(); ++t) {
        const uint8_t c = input[t];
        CRISPR_ASSERT(c < genome::kNumSymbols);
        const uint64_t *sym = l.symbol[c].data();
        // Padding lanes have zero masks, so their rows stay zero.
        for (size_t p = 0; p < l.patterns; ++p) {
            const uint64_t match = sym[p];
            uint64_t prev = rows[p];
            const uint64_t r0 = ((prev << 1) | 1ULL) & match;
            rows[p] = r0;
            uint64_t hit = r0 & l.accept[p];
            for (size_t k = 1; k < row_count; ++k) {
                uint64_t &cell = rows[k * width + p];
                const uint64_t cur = cell;
                const uint64_t extended = ((cur << 1) | 1ULL) & match;
                const uint64_t substituted =
                    ((prev << 1) | 1ULL) & l.mismatch[p];
                prev = cur;
                cell = extended | substituted;
                hit |= cell & l.accept[k * width + p];
            }
            if (hit)
                onHit(ctx, static_cast<uint32_t>(p), t);
        }
    }
}

void
anchorScanScalar(const uint8_t *text, size_t count,
                 std::span<const AnchorProbe> anchors,
                 std::vector<uint32_t> &out)
{
    for (size_t s = 0; s < count; ++s) {
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

#if !(CRISPR_SIMD_ENABLED && (defined(__x86_64__) || defined(__i386__)))
// Builds without the vector TUs still link; resolveSimdTier() never
// selects these tiers there, so reaching one is a dispatch bug.
bool
shiftOrScanAvx2(const ShiftOrSoA &, const uint64_t *, uint64_t *,
                std::span<const uint8_t>, ShiftOrHits &)
{
    fatal("avx2 kernel not compiled in");
}
bool
shiftOrScanAvx512(const ShiftOrSoA &, const uint64_t *, uint64_t *,
                  std::span<const uint8_t>, ShiftOrHits &)
{
    fatal("avx512 kernel not compiled in");
}
void
anchorScanAvx2(const uint8_t *, size_t, std::span<const AnchorProbe>,
               std::vector<uint32_t> &)
{
    fatal("avx2 kernel not compiled in");
}
void
anchorScanAvx512(const uint8_t *, size_t, std::span<const AnchorProbe>,
                 std::vector<uint32_t> &)
{
    fatal("avx512 kernel not compiled in");
}
#endif

} // namespace detail

SimdShiftOrMatcher::SimdShiftOrMatcher(
    std::shared_ptr<const ShiftOrSoA> layout, SimdTier tier)
    : layout_(std::move(layout)), tier_(tier)
{
    CRISPR_ASSERT(layout_ != nullptr);
    if (!simdTierUsable(tier_))
        fatal("SIMD tier %s is not usable on this host/build",
              simdTierName(tier_));
    rows_.assign(layout_->stateWords(), 0);
}

SimdShiftOrMatcher::SimdShiftOrMatcher(
    std::span<const HammingSpec> specs, SimdTier tier)
    : SimdShiftOrMatcher(buildShiftOrSoA(specs), tier)
{
}

void
SimdShiftOrMatcher::reset()
{
    std::fill(rows_.begin(), rows_.end(), 0);
}

namespace {

struct SinkCtx
{
    const ShiftOrSoA *layout;
    const ReportSink *sink;
    uint64_t base;
};

void
emitHit(void *ctx, uint32_t lane, size_t t)
{
    auto *c = static_cast<SinkCtx *>(ctx);
    if (*c->sink)
        (*c->sink)(c->layout->reportId[lane], c->base + t);
}

/** First size of a matcher's tile hit buffer (keys). */
constexpr size_t kInitialTileHits = 256;

/**
 * Bound of the tile hit buffer: 512 KiB of keys, or one key per lane
 * when that is more, so a one-byte tile always fits.
 */
size_t
maxTileHits(const ShiftOrSoA &l)
{
    return std::max<size_t>(size_t{1} << 16, l.width);
}

} // namespace

void
SimdShiftOrMatcher::scan(std::span<const uint8_t> input,
                         const ReportSink &sink, uint64_t base_offset)
{
    if (tier_ != SimdTier::Avx2 && tier_ != SimdTier::Avx512) {
        SinkCtx ctx{layout_.get(), &sink, base_offset};
        detail::shiftOrScanScalar(*layout_, rows_.data(), input,
                                  &emitHit, &ctx);
        return;
    }
    const auto kernel = tier_ == SimdTier::Avx512
                            ? &detail::shiftOrScanAvx512
                            : &detail::shiftOrScanAvx2;
    if (next_.size() != rows_.size())
        next_.assign(rows_.size(), 0);
    if (hits_.empty())
        hits_.resize(kInitialTileHits);

    size_t tile = kShiftOrTileBytes;
    size_t at = 0;
    while (at < input.size()) {
        const size_t n = std::min(tile, input.size() - at);
        detail::ShiftOrHits hits{hits_.data(), hits_.size(), 0};
        if (!kernel(*layout_, rows_.data(), next_.data(),
                    input.subspan(at, n), hits)) {
            // rows_ still holds the tile's start state: retry with a
            // larger buffer, or once it is at its bound, a shorter
            // tile (one byte always fits).
            if (hits_.size() < maxTileHits(*layout_))
                hits_.resize(
                    std::min(hits_.size() * 2, maxTileHits(*layout_)));
            else
                tile = std::max<size_t>(1, n / 2);
            continue;
        }
        // Lanes outside every block are padding, zero in both arrays,
        // so the swap commits the whole tile-end state.
        rows_.swap(next_);
        uint64_t *keys = hits_.data();
        if (!std::is_sorted(keys, keys + hits.count))
            std::sort(keys, keys + hits.count);
        if (sink) {
            for (size_t i = 0; i < hits.count; ++i)
                sink(layout_->reportId[keys[i] & 0xffffffffu],
                     base_offset + at + (keys[i] >> 32));
        }
        at += n;
        // Regrow a shortened tile once hits thin out again.
        if (hits.count * 2 <= hits_.size())
            tile = std::min(kShiftOrTileBytes, tile * 2);
    }
}

std::vector<automata::ReportEvent>
SimdShiftOrMatcher::scanAll(const genome::Sequence &seq)
{
    reset();
    std::vector<automata::ReportEvent> events;
    scan(seq.codes(), [&](uint32_t id, uint64_t end) {
        events.push_back(automata::ReportEvent{id, end});
    });
    return events;
}

size_t
SimdShiftOrMatcher::stateBytes() const
{
    return (rows_.size() + next_.size() + hits_.size()) *
               sizeof(uint64_t) +
           layout_->layoutBytes();
}

} // namespace crispr::hscan
