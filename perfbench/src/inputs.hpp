/**
 * @file
 * Seeded input generation: a synthetic genome, a guide library, and
 * planted off-target sites whose position, strand and mismatch count
 * are the ground truth the correctness gate checks served hits
 * against. The same seed always yields the same inputs.
 */

#ifndef PERFBENCH_INPUTS_HPP_
#define PERFBENCH_INPUTS_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "crispr.hpp"

namespace perfbench {

using namespace crispr;

/** One planted site: the ground truth for one guide. */
struct PlantedSite
{
    uint64_t start = 0; //!< forward-genome offset of the site
    core::Strand strand = core::Strand::Forward;
    int mismatches = 0; //!< exact Hamming distance in the protospacer
};

/** How to build a library. */
struct LibrarySpec
{
    size_t genomeBytes = 0;
    size_t guides = 0;
    /** Sample guides from the genome (else random protospacers). */
    bool sampleFromGenome = true;
    size_t sitesPerGuide = 1;
    /**
     * Relative weights of planting 0, 1, 2, ... mismatches. Weight
     * beyond a workload's budget d plants sites the gate must find
     * absent; the default covers d=3 with sites at d+1 and d+2.
     */
    std::vector<double> mismatchWeights = {1, 1, 1, 1, 1, 1};
    uint64_t seed = 1;
};

/** A genome plus guides plus the sites planted for each guide. */
struct Library
{
    genome::Sequence genome;
    std::vector<core::Guide> guides;
    std::vector<std::vector<PlantedSite>> planted; //!< per guide
};

/** Build a library; throws std::runtime_error when sites do not fit. */
Library makeLibrary(const LibrarySpec &spec);

/** Guide-length 20, NRG PAM: the site length every workload uses. */
inline constexpr size_t kSiteLength = 23;

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HPP_
