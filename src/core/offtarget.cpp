#include "core/offtarget.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "common/logging.hpp"
#include "baselines/brute.hpp"
#include "core/score_table.hpp"

namespace crispr::core {

std::vector<OffTargetHit>
hitsFromEvents(const genome::Sequence &genome, const PatternSet &set,
               const std::vector<automata::ReportEvent> &events,
               bool drop_unverified, size_t *dropped, bool with_scores)
{
    if (dropped)
        *dropped = 0;
    std::vector<OffTargetHit> hits;
    hits.reserve(events.size());
    const size_t len = set.siteLength();
    // The compiled weight table; sets built by tryBuildPatternSet carry
    // one, hand-assembled test sets fall back to the shared table.
    std::vector<double> fallback_weights;
    const std::vector<double> *weights = &set.scoreWeights;
    if (with_scores && set.scoreWeights.size() != set.guideLength) {
        fallback_weights = scoreWeightTable(set.guideLength);
        weights = &fallback_weights;
    }
    std::vector<size_t> offsets;
    std::vector<size_t> positions;
    for (const automata::ReportEvent &ev : events) {
        if (ev.reportId >= set.patterns.size())
            panic("event with unknown pattern id %u", ev.reportId);
        const Pattern &p = set.patterns[ev.reportId];
        CRISPR_ASSERT(p.spec.masks.size() == len);
        uint64_t start;
        if (!p.reversedStream) {
            CRISPR_ASSERT(ev.end + 1 >= len);
            start = ev.end + 1 - len;
        } else {
            CRISPR_ASSERT(ev.end < genome.size());
            start = genome.size() - 1 - ev.end;
        }
        const automata::HammingSpec fwd = set.forwardSpec(ev.reportId);
        const int mm =
            with_scores
                ? baselines::windowMismatches(genome, start, fwd, offsets)
                : baselines::windowMismatches(genome, start, fwd);
        if (mm < 0) {
            if (drop_unverified) {
                if (dropped)
                    ++*dropped;
                continue;
            }
            panic("engine reported a site at %llu that fails "
                  "re-verification",
                  static_cast<unsigned long long>(start));
        }
        OffTargetHit hit{p.guideIndex, p.strand, start, mm};
        if (with_scores) {
            // Map site offsets to guide coordinates (5'->3') and sort
            // ascending: the penalty product is order-sensitive, and
            // hitMismatchPositions() yields the same ascending order —
            // that is what makes the two paths bit-identical.
            positions.clear();
            for (size_t j : offsets) {
                size_t guide_pos;
                if (p.strand == Strand::Forward) {
                    CRISPR_ASSERT(j < set.guideLength);
                    guide_pos = j;
                } else {
                    CRISPR_ASSERT(j >= set.pamLength);
                    guide_pos = len - 1 - j;
                    CRISPR_ASSERT(guide_pos < set.guideLength);
                }
                positions.push_back(guide_pos);
            }
            std::sort(positions.begin(), positions.end());
            hit.mismatchMask = mismatchPositionsToMask(positions);
            hit.penalty = sitePenaltyFromWeights(positions, *weights);
        }
        hits.push_back(hit);
    }
    std::sort(hits.begin(), hits.end(),
              [](const OffTargetHit &a, const OffTargetHit &b) {
                  if (a.guide != b.guide)
                      return a.guide < b.guide;
                  if (a.start != b.start)
                      return a.start < b.start;
                  return a.strand < b.strand;
              });
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
    return hits;
}

bool
rankedHitBefore(const OffTargetHit &a, const OffTargetHit &b)
{
    if (a.penalty != b.penalty)
        return a.penalty > b.penalty;
    if (a.guide != b.guide)
        return a.guide < b.guide;
    if (a.start != b.start)
        return a.start < b.start;
    return a.strand < b.strand;
}

std::vector<OffTargetHit>
rankHits(const std::vector<OffTargetHit> &hits, double score_threshold,
         size_t top_k)
{
    const auto kept = [&](const OffTargetHit &hit) {
        return hit.penalty >= score_threshold;
    };
    // Sized to the hits that pass the threshold, not to every hit: the
    // listing can outlive a large hit vector.
    std::vector<OffTargetHit> ranked;
    ranked.reserve(static_cast<size_t>(
        std::count_if(hits.begin(), hits.end(), kept)));
    std::copy_if(hits.begin(), hits.end(), std::back_inserter(ranked),
                 kept);
    if (top_k > 0 && top_k < ranked.size()) {
        // Deterministic top-K selection: partial_sort under a strict
        // total order places exactly the K first elements of the full
        // sort — same output as sort + truncate at a fraction of the
        // comparisons when K << hits.
        std::partial_sort(ranked.begin(),
                          ranked.begin() + static_cast<long>(top_k),
                          ranked.end(), rankedHitBefore);
        // A right-sized copy: the filtered vector has room for every
        // passing hit, and a listing of K would otherwise hold it all.
        return {ranked.begin(),
                ranked.begin() + static_cast<long>(top_k)};
    }
    std::sort(ranked.begin(), ranked.end(), rankedHitBefore);
    return ranked;
}

std::string
hitSiteString(const genome::Sequence &genome, const PatternSet &set,
              const OffTargetHit &hit)
{
    genome::Sequence window = genome.slice(hit.start, set.siteLength());
    if (hit.strand == Strand::Reverse)
        window = window.reverseComplement();
    return window.str();
}

std::string
hitAlignmentString(const genome::Sequence &genome, const PatternSet &set,
                   const OffTargetHit &hit)
{
    // Locate the pattern of (guide, strand) to get its forward spec.
    const Pattern *pattern = nullptr;
    for (const Pattern &p : set.patterns) {
        if (p.guideIndex == hit.guide && p.strand == hit.strand) {
            pattern = &p;
            break;
        }
    }
    if (!pattern)
        panic("hit references a (guide, strand) with no pattern");
    const automata::HammingSpec fwd = set.forwardSpec(pattern->spec.reportId);

    std::string site = genome.slice(hit.start, set.siteLength()).str();
    std::string out;
    out.reserve(site.size());
    for (size_t j = 0; j < site.size(); ++j) {
        const bool match =
            genome::maskMatches(fwd.masks[j], genome[hit.start + j]);
        out.push_back(match ? site[j]
                            : static_cast<char>(
                                  std::tolower(
                                      static_cast<unsigned char>(
                                          site[j]))));
    }
    if (hit.strand == Strand::Reverse) {
        // Present in guide orientation: reverse complement, preserving
        // case annotations.
        std::string rc;
        rc.reserve(out.size());
        for (auto it = out.rbegin(); it != out.rend(); ++it) {
            const char c = *it;
            const bool lower = std::islower(static_cast<unsigned char>(c));
            const uint8_t code = genome::baseCode(c);
            char comp = code < genome::kNumSymbols
                            ? genome::baseChar(
                                  genome::complementCode(code))
                            : 'N';
            rc.push_back(lower ? static_cast<char>(std::tolower(
                                     static_cast<unsigned char>(comp)))
                               : comp);
        }
        out = std::move(rc);
    }
    return out;
}

} // namespace crispr::core
