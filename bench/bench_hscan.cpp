/**
 * @file
 * HScan kernel throughput: bytes/sec of the multi-pattern Shift-Or
 * scan at each SIMD tier (scalar / AVX2 / AVX-512), swept over
 * mismatch budget d = 1/3/5 and 10/100/1000 guides. This is the
 * kernel-level companion to bench_service: no sessions, no chunking —
 * one Scanner, one genome pass, so the tier comparison measures the
 * vector kernels and nothing else.
 *
 * --simd-compare emits the full tier matrix; the default run measures
 * only the host's best tier. Either way a BENCH_hscan.json row is
 * written (see --json) for CI trend tracking, like BENCH_service.json.
 *
 * --simd-compare also checks two bars and exits 1 when either misses:
 * every vector tier scans >= 2x the scalar bytes/s at d=3, 100 guides,
 * and on the widest measured tier bytes/s x patterns at 1000 guides
 * stays >= 0.67x the same product at 100 guides (d=3), i.e. ten times
 * the guides may cost at most 15x the time.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "core/compile.hpp"
#include "hscan/multipattern.hpp"
#include "hscan/simd.hpp"
#include "workloads.hpp"

using namespace crispr;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Cell
{
    hscan::SimdTier tier;
    int d;
    size_t guides;
    size_t patterns = 0;
    double bytesPerSec = 0.0;
    uint64_t events = 0;
};

/** Best-of-`reps` whole-genome pass through one forced-tier Scanner. */
Cell
measure(const hscan::Database &db, const genome::Sequence &genome,
        hscan::SimdTier tier, int d, size_t guides, int reps)
{
    Cell cell;
    cell.tier = tier;
    cell.d = d;
    cell.guides = guides;
    cell.patterns = db.specs().size();
    for (int rep = 0; rep < reps; ++rep) {
        hscan::Scanner scanner(db, tier);
        if (scanner.simdTier() != tier)
            fatal("tier %s was not honoured (got %s)",
                  hscan::simdTierName(tier),
                  hscan::simdTierName(scanner.simdTier()));
        uint64_t events = 0;
        const double start = now();
        scanner.scan(genome.codes(),
                     [&](uint32_t, uint64_t) { ++events; });
        const double seconds = now() - start;
        cell.events = events;
        cell.bytesPerSec = std::max(
            cell.bytesPerSec,
            static_cast<double>(genome.size()) / seconds);
    }
    return cell;
}

const Cell *
findCell(const std::vector<Cell> &cells, hscan::SimdTier tier, int d,
         size_t guides)
{
    for (const Cell &c : cells)
        if (c.tier == tier && c.d == d && c.guides == guides)
            return &c;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli("HSCAN: Shift-Or kernel throughput per SIMD tier");
    cli.addInt("genome-mb", 1, "genome size in MB");
    cli.addInt("reps", 1, "passes per cell (best kept)");
    cli.addBool("simd-compare",
                "measure every usable tier (scalar/avx2/avx512) "
                "instead of only the best one");
    cli.addString("json", "BENCH_hscan.json",
                  "output path of the JSON result row");
    if (!cli.parse(argc, argv))
        return 0;

    const size_t genome_bytes =
        static_cast<size_t>(cli.getInt("genome-mb")) << 20;
    const int reps = static_cast<int>(cli.getInt("reps"));
    const bool compare = cli.getBool("simd-compare");
    const std::string json_path = cli.getString("json");

    bench::printBanner(
        "HSCAN", "Shift-Or kernel throughput per SIMD tier",
        "the bit-parallel CPU path is the paper's software baseline; "
        "the vector tiers must scan bytes faster without changing one "
        "reported event");

    // A CRISPR_SIMD override pins every Scanner to one tier, so any
    // other requested tier would be measured at the pinned kernel —
    // only tiers that actually resolve to themselves are comparable.
    std::vector<hscan::SimdTier> tiers;
    if (compare) {
        for (hscan::SimdTier tier :
             {hscan::SimdTier::Scalar, hscan::SimdTier::Avx2,
              hscan::SimdTier::Avx512}) {
            if (hscan::simdTierUsable(tier) &&
                hscan::resolveSimdTier(tier) == tier)
                tiers.push_back(tier);
            else
                std::printf("note: tier %s not usable on this "
                            "host/build (or pinned away by "
                            "CRISPR_SIMD); skipped\n",
                            hscan::simdTierName(tier));
        }
    } else {
        tiers.push_back(hscan::resolveSimdTier());
    }

    static const int kBudgets[] = {1, 3, 5};
    static const size_t kGuideCounts[] = {10, 100, 1000};

    std::vector<Cell> cells;
    Table table({"d", "guides", "tier", "MB/s", "events"});
    for (int d : kBudgets) {
        for (size_t guides : kGuideCounts) {
            const bench::Workload w =
                bench::makeWorkload(genome_bytes, guides,
                                    /*seed=*/42 + d);
            const core::PatternSet set = core::buildPatternSet(
                w.guides, core::pamNRG(), d, /*both_strands=*/true);
            hscan::DatabaseOptions opts;
            opts.mode = hscan::ScanMode::BitParallel;
            const hscan::Database db = hscan::Database::compile(
                set.specsForStream(false), opts);

            uint64_t want_events = 0;
            for (hscan::SimdTier tier : tiers) {
                const Cell cell =
                    measure(db, w.genome, tier, d, guides, reps);
                // Tier equivalence is asserted here too, not just in
                // the test matrix: every tier must see the same
                // number of events on the same workload.
                if (tier == tiers.front())
                    want_events = cell.events;
                else if (cell.events != want_events)
                    fatal("tier %s saw %llu events, expected %llu",
                          hscan::simdTierName(tier),
                          static_cast<unsigned long long>(cell.events),
                          static_cast<unsigned long long>(want_events));
                table.row()
                    .add(static_cast<uint64_t>(d))
                    .add(static_cast<uint64_t>(guides))
                    .add(hscan::simdTierName(tier))
                    .add(cell.bytesPerSec / (1 << 20), 2)
                    .add(cell.events);
                cells.push_back(cell);
            }
        }
    }
    std::printf("%s", table.str().c_str());

    // The bars: vector speedup over scalar at d=3, 100 guides (the
    // mid-size shape engine=auto calibrates against), and guide
    // scaling from 100 to 1000 guides at d=3 on the widest tier.
    bool missed = false;
    double guide_scaling = 0.0;
    if (compare) {
        const Cell *scalar =
            findCell(cells, hscan::SimdTier::Scalar, 3, 100);
        for (hscan::SimdTier tier :
             {hscan::SimdTier::Avx2, hscan::SimdTier::Avx512}) {
            const Cell *vec = findCell(cells, tier, 3, 100);
            if (!scalar || !vec)
                continue;
            const double speedup = vec->bytesPerSec / scalar->bytesPerSec;
            const bool pass = speedup >= 2.0;
            missed = missed || !pass;
            std::printf("simd-compare: %s %.2fx over scalar at d=3 "
                        "guides=100 (bar: >= 2x) %s\n",
                        hscan::simdTierName(tier), speedup,
                        pass ? "PASS" : "MISS");
        }
        const Cell *small = findCell(cells, tiers.back(), 3, 100);
        const Cell *large = findCell(cells, tiers.back(), 3, 1000);
        if (small && large) {
            guide_scaling =
                (large->bytesPerSec * static_cast<double>(large->patterns)) /
                (small->bytesPerSec * static_cast<double>(small->patterns));
            const bool pass = guide_scaling >= 0.67;
            missed = missed || !pass;
            std::printf("simd-compare: %s guide scaling %.2fx (bytes/s x "
                        "patterns, 1000 vs 100 guides, d=3; bar: >= 0.67x) "
                        "%s\n",
                        hscan::simdTierName(tiers.back()), guide_scaling,
                        pass ? "PASS" : "MISS");
        }
    }

    std::ofstream json(json_path);
    if (json) {
        json << "{\"bench\": \"hscan\", \"genome_bytes\": "
             << genome_bytes << ", \"reps\": " << reps
             << ", \"best_tier\": \""
             << hscan::simdTierName(hscan::bestSimdTier()) << "\"";
        for (const Cell &cell : cells)
            json << ", \"shiftor_" << hscan::simdTierName(cell.tier)
                 << "_d" << cell.d << "_g" << cell.guides
                 << "_bps\": " << cell.bytesPerSec;
        if (compare) {
            const Cell *scalar =
                findCell(cells, hscan::SimdTier::Scalar, 3, 100);
            for (hscan::SimdTier tier :
                 {hscan::SimdTier::Avx2, hscan::SimdTier::Avx512}) {
                const Cell *vec = findCell(cells, tier, 3, 100);
                if (scalar && vec)
                    json << ", \"" << hscan::simdTierName(tier)
                         << "_speedup_d3_g100\": "
                         << vec->bytesPerSec / scalar->bytesPerSec;
            }
            json << ", \"guide_scaling_d3\": " << guide_scaling;
        }
        json << "}\n";
        std::printf("wrote %s\n", json_path.c_str());
    }
    if (missed) {
        std::fprintf(stderr, "bench_hscan: a --simd-compare bar missed\n");
        return 1;
    }
    return 0;
}
