#include "inputs.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

/** Draw an index from unnormalised weights. */
int
drawWeighted(Rng &rng, const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double x = rng.uniform() * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        if (x < weights[i])
            return static_cast<int>(i);
        x -= weights[i];
    }
    return static_cast<int>(weights.size()) - 1;
}

/**
 * Hands out disjoint, N-free site windows, so no planted site ever
 * overwrites another and the ground truth stays exact.
 */
class SlotAllocator
{
  public:
    explicit SlotAllocator(const genome::Sequence &genome)
        : genome_(genome), used_(genome.size() / kSlot, false)
    {
    }

    uint64_t
    take(Rng &rng)
    {
        for (int attempt = 0; attempt < 1000; ++attempt) {
            const size_t slot = rng.below(used_.size());
            if (used_[slot])
                continue;
            const size_t at = slot * kSlot;
            bool clean = true;
            for (size_t i = 0; i < kSiteLength && clean; ++i)
                clean = genome_[at + i] != genome::kCodeN;
            if (!clean)
                continue;
            used_[slot] = true;
            return at;
        }
        throw std::runtime_error("genome too crowded to plant sites");
    }

  private:
    static constexpr size_t kSlot = kSiteLength + 1;
    const genome::Sequence &genome_;
    std::vector<bool> used_;
};

/** Protospacer with `mismatches` substitutions, then an NRG PAM. */
genome::Sequence
siteFor(const core::Guide &guide, int mismatches, Rng &rng)
{
    genome::Sequence site = genome::mutateSite(
        guide.protospacer, mismatches, 0, guide.protospacer.size(), rng);
    site.push_back(static_cast<uint8_t>(rng.below(4))); // N
    site.push_back(rng.chance(0.5) ? 0 : 2);            // R = A|G
    site.push_back(2);                                  // G
    return site;
}

} // namespace

Library
makeLibrary(const LibrarySpec &spec)
{
    Rng rng(spec.seed);
    genome::GenomeSpec gspec;
    gspec.length = spec.genomeBytes;
    gspec.model = genome::CompositionModel::GcBiased;
    gspec.n_fraction = 0.0005;
    gspec.seed = rng.next();

    Library lib;
    lib.genome = genome::generateGenome(gspec);
    lib.guides.reserve(spec.guides);
    for (size_t g = 0; g < spec.guides; ++g) {
        genome::Sequence proto =
            spec.sampleFromGenome
                ? genome::sampleGuideFromGenome(lib.genome, rng, 20)
                : genome::randomGuide(rng, 20);
        lib.guides.push_back(
            core::Guide{"g" + std::to_string(g), std::move(proto)});
    }

    SlotAllocator slots(lib.genome);
    lib.planted.resize(spec.guides);
    for (size_t g = 0; g < spec.guides; ++g) {
        for (size_t s = 0; s < spec.sitesPerGuide; ++s) {
            PlantedSite site;
            site.mismatches = drawWeighted(rng, spec.mismatchWeights);
            site.strand = rng.chance(0.5) ? core::Strand::Reverse
                                          : core::Strand::Forward;
            site.start = slots.take(rng);
            genome::Sequence bases =
                siteFor(lib.guides[g], site.mismatches, rng);
            if (site.strand == core::Strand::Reverse)
                bases = bases.reverseComplement();
            genome::plantSite(lib.genome, site.start, bases);
            lib.planted[g].push_back(site);
        }
    }
    return lib;
}

} // namespace perfbench
