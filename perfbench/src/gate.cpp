#include "gate.hpp"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace perfbench {

void
Gate::fail(const std::string &what)
{
    if (failures_.fetch_add(1) < 8) {
        std::lock_guard<std::mutex> lock(mutex_);
        messages_.push_back(what);
    }
}

std::vector<std::string>
Gate::messages() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return messages_;
}

namespace {

/** The order hitsFromEvents emits: (guide, start, strand). */
auto
hitKey(const core::OffTargetHit &hit)
{
    return std::make_tuple(hit.guide, hit.start, hit.strand);
}

std::string
describe(const core::OffTargetHit &hit)
{
    return "guide " + std::to_string(hit.guide) + " start " +
           std::to_string(hit.start) + core::strandStr(hit.strand) +
           " mm " + std::to_string(hit.mismatches);
}

} // namespace

std::string
checkPlanted(const std::vector<core::OffTargetHit> &hits,
             uint32_t local_guide, const std::vector<PlantedSite> &planted,
             int d)
{
    for (const PlantedSite &site : planted) {
        core::OffTargetHit probe{};
        probe.guide = local_guide;
        probe.start = site.start;
        probe.strand = site.strand;
        auto it = std::lower_bound(
            hits.begin(), hits.end(), probe,
            [](const core::OffTargetHit &a, const core::OffTargetHit &b) {
                return hitKey(a) < hitKey(b);
            });
        const bool found = it != hits.end() && hitKey(*it) == hitKey(probe);
        if (site.mismatches <= d && !found)
            return "planted site missing: " + describe(probe) +
                   " (planted mm " + std::to_string(site.mismatches) + ")";
        if (site.mismatches <= d && it->mismatches != site.mismatches)
            return "planted site has wrong mismatch count: " +
                   describe(*it) + " (planted mm " +
                   std::to_string(site.mismatches) + ")";
        if (site.mismatches > d && found)
            return "site beyond the mismatch budget reported: " +
                   describe(*it);
    }
    return {};
}

std::string
checkIdentical(const std::vector<core::OffTargetHit> &got,
               const std::vector<core::OffTargetHit> &want)
{
    if (got.size() != want.size())
        return "hit count " + std::to_string(got.size()) +
               " differs from the direct search's " +
               std::to_string(want.size());
    for (size_t i = 0; i < got.size(); ++i) {
        // Bitwise, so a penalty that drifted by one ULP is caught too.
        const bool same =
            got[i].guide == want[i].guide &&
            got[i].strand == want[i].strand &&
            got[i].start == want[i].start &&
            got[i].mismatches == want[i].mismatches &&
            got[i].mismatchMask == want[i].mismatchMask &&
            std::memcmp(&got[i].penalty, &want[i].penalty,
                        sizeof(double)) == 0;
        if (!same)
            return "hit " + std::to_string(i) + " " + describe(got[i]) +
                   " differs from the direct search's " +
                   describe(want[i]);
    }
    return {};
}

std::vector<core::OffTargetHit>
referenceHits(const genome::Sequence &genome,
              const std::vector<core::Guide> &guides, int d,
              unsigned threads)
{
    core::SearchConfig cfg;
    cfg.engine = core::EngineKind::HscanBitParallel;
    cfg.maxMismatches = d;
    cfg.pam = core::pamNRG();
    cfg.bothStrands = true;
    cfg.threads = threads;
    core::SearchSession session(guides, cfg);
    return session.search(genome).hits;
}

std::vector<std::vector<core::OffTargetHit>>
splitByGuide(const std::vector<core::OffTargetHit> &hits, size_t guides)
{
    std::vector<std::vector<core::OffTargetHit>> out(guides);
    for (core::OffTargetHit hit : hits) {
        const uint32_t g = hit.guide;
        hit.guide = 0;
        out.at(g).push_back(hit);
    }
    return out;
}

} // namespace perfbench
