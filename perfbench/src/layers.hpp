/**
 * @file
 * Per-layer metrics of a traced pass. Two sources, both outside the
 * library: counters the library already returns (SearchResult::run and
 * SearchService::metricsSnapshot()), and a layer replay that calls
 * each layer's public function — buildPatternSet, the engine=auto
 * ranking, Engine::compile, the pattern database, Engine::scan with
 * threads=1, ChunkedScanner::scan with threads=nproc, hitsFromEvents
 * and rankHits — on guide sets shaped like the batches served, inside
 * benchmark spans.
 */

#ifndef PERFBENCH_LAYERS_HPP_
#define PERFBENCH_LAYERS_HPP_

#include <map>
#include <string>

#include "workloads.hpp"

namespace perfbench {

/** A reported value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/**
 * Replay the layers on `workload`'s inputs (spans into `tracer`) and
 * combine the replay with the traced pass's library counters.
 */
MetricMap layerMetrics(const Workload &workload, const PassResult &traced,
                       const RunOptions &options, Tracer &tracer,
                       const std::string &db_dir);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP_
