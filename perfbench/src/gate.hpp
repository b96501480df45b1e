/**
 * @file
 * The correctness gate: every served result is checked against the
 * planted-site ground truth and, outside the timed region, bit for bit
 * against a direct SearchSession::search on the bit-parallel engine.
 * Any failure makes the run report correct=false and exit nonzero.
 */

#ifndef PERFBENCH_GATE_HPP_
#define PERFBENCH_GATE_HPP_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace perfbench {

/** Thread-safe collector of correctness failures. */
class Gate
{
  public:
    void fail(const std::string &what);
    size_t failures() const { return failures_.load(); }
    /** The first few failure messages, for the report. */
    std::vector<std::string> messages() const;

  private:
    std::atomic<size_t> failures_{0};
    mutable std::mutex mutex_;
    std::vector<std::string> messages_;
};

/**
 * Check that every planted site of a guide with at most `d`
 * mismatches is among `hits` (as guide index `local_guide`) with its
 * exact mismatch count, and that no site with more is reported.
 * @return empty when the hits agree, else what disagrees.
 */
std::string checkPlanted(const std::vector<core::OffTargetHit> &hits,
                         uint32_t local_guide,
                         const std::vector<PlantedSite> &planted, int d);

/** Bit-for-bit comparison of two hit lists; empty when identical. */
std::string checkIdentical(const std::vector<core::OffTargetHit> &got,
                           const std::vector<core::OffTargetHit> &want);

/**
 * The reference answer: a direct SearchSession::search of `guides` at
 * mismatch budget `d` on EngineKind::HscanBitParallel (NRG PAM, both
 * strands — the configuration every workload serves).
 */
std::vector<core::OffTargetHit>
referenceHits(const genome::Sequence &genome,
              const std::vector<core::Guide> &guides, int d,
              unsigned threads);

/** Split a hit list by guide; each slice is re-indexed to guide 0. */
std::vector<std::vector<core::OffTargetHit>>
splitByGuide(const std::vector<core::OffTargetHit> &hits, size_t guides);

} // namespace perfbench

#endif // PERFBENCH_GATE_HPP_
