#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "core/engine_auto.hpp"
#include "core/engine_registry.hpp"
#include "core/pattern_db.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

/** Quantile of `values` where value i counts with weight w[i]. */
double
weightedQuantile(const std::vector<double> &values,
                 const std::vector<double> &weights, double q)
{
    if (values.empty())
        return 0.0;
    std::vector<size_t> order(values.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return values[a] < values[b]; });
    const double total =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    double seen = 0.0;
    for (size_t i : order) {
        seen += weights[i];
        if (seen >= q * total)
            return values[i];
    }
    return values[order.back()];
}

/** What the replay measured, one entry per case. */
struct Replay
{
    std::vector<double> buildSeconds, patterns, compileSeconds;
    std::vector<double> dbLoadSeconds, scanSeconds, bytesPerSecond;
    std::vector<double> nsPerBytePerGuide, events, chunkedSeconds;
    std::vector<double> chunks, efficiency, hitsSeconds, rankSeconds;
    std::vector<double> hits;
    double simdTier = -1.0;
    double cliffCompileSeconds = 0.0;
    bool cliffDfa = false;
};

Replay
replay(const Workload &workload, const std::vector<ReplayCase> &cases,
       const RunOptions &options, Tracer &tracer,
       const std::string &db_dir)
{
    Replay out;
    const genome::Sequence &genome = workload.genome();
    std::filesystem::create_directories(db_dir);
    auto db = core::PatternDatabase::open(db_dir);
    const core::EngineParams params;

    for (size_t i = 0; i < cases.size(); ++i) {
        const ReplayCase &c = cases[i];
        const uint64_t request = tracer.newRequestId();
        Span root(&tracer, "replay", request);

        Clock::time_point t = Clock::now();
        core::PatternSet set;
        {
            Span s(&tracer, "compile.build_pattern_set", request, root.id());
            set = core::buildPatternSet(c.guides, core::pamNRG(), c.d, true);
        }
        if (!c.cliffProbe) {
            out.buildSeconds.push_back(secondsBetween(t, Clock::now()));
            out.patterns.push_back(static_cast<double>(set.patterns.size()));
        }

        std::vector<core::EngineKind> ranking;
        {
            Span s(&tracer, "engine_auto.rank", request, root.id());
            core::WorkloadShape shape;
            shape.guideCount = c.guides.size();
            shape.guideLength = c.guides.front().protospacer.size();
            shape.pamLength = 3;
            shape.maxMismatches = c.d;
            shape.bothStrands = true;
            ranking = core::autoEngineRanking(
                shape, params.hscanOpts.maxDfaStates);
        }

        // The session's chain: the first engine whose compile succeeds
        // serves; a failed attempt still costs its compile time.
        const core::Engine *engine = nullptr;
        std::shared_ptr<const core::CompiledPattern> compiled;
        t = Clock::now();
        for (core::EngineKind kind : ranking) {
            const core::Engine *e =
                core::EngineRegistry::instance().tryFind(kind);
            if (!e)
                continue;
            Span s(&tracer, "engine.compile", request, root.id());
            auto built = e->tryCompile(set, params);
            if (built.ok()) {
                engine = e;
                compiled = std::make_shared<const core::CompiledPattern>(
                    std::move(built).value());
                break;
            }
        }
        const double compile_s = secondsBetween(t, Clock::now());
        if (!engine)
            throw std::runtime_error("replay: no engine compiled case " +
                                     std::to_string(i));
        if (c.cliffProbe) {
            out.cliffCompileSeconds = compile_s;
            out.cliffDfa = engine->kind() == core::EngineKind::HscanDfa;
            continue;
        }
        out.compileSeconds.push_back(compile_s);

        if (db.ok() && engine->supportsSerialization()) {
            const std::string key = "replay-" + std::to_string(i);
            {
                Span s(&tracer, "pattern_db.store", request, root.id());
                auto blob = engine->serializeState(*compiled);
                if (blob.ok())
                    (void)db.value()->store(key, blob.value());
            }
            t = Clock::now();
            Span s(&tracer, "pattern_db.load", request, root.id());
            if (auto blob = db.value()->load(key))
                (void)engine->deserializeState(set, params, *blob);
            s.finish();
            out.dbLoadSeconds.push_back(secondsBetween(t, Clock::now()));
        }

        // Single-threaded kernel time over one default-sized chunk (the
        // unit each executor task scans; the whole genome when smaller).
        const core::ChunkedScanOptions defaults;
        const std::span<const uint8_t> chunk = genome.codes().first(
            std::min(genome.size(), defaults.chunkSize));
        core::EngineRun run;
        t = Clock::now();
        {
            Span s(&tracer, "hscan.scan", request, root.id());
            run = engine->scan(*compiled, core::SequenceView(chunk));
        }
        const double scan_s = secondsBetween(t, Clock::now());
        const double bytes = static_cast<double>(chunk.size());
        const double whole_genome_scan_s =
            scan_s * static_cast<double>(genome.size()) / bytes;
        out.scanSeconds.push_back(scan_s);
        out.bytesPerSecond.push_back(bytes / scan_s);
        out.nsPerBytePerGuide.push_back(
            scan_s * 1e9 / bytes / static_cast<double>(c.guides.size()));

        if (auto it = run.metrics.find("scan.simd_tier");
            it != run.metrics.end())
            out.simdTier = it->second;

        // The hit funnel runs on a whole-genome event list.
        std::vector<automata::ReportEvent> events = run.events;
        if (engine->supportsChunkedScan()) {
            core::ChunkedScanOptions opts;
            opts.threads = options.nproc;
            t = Clock::now();
            Span s(&tracer, "chunked_scan.scan", request, root.id());
            core::EngineRun chunked =
                core::ChunkedScanner(*engine, compiled, opts).scan(genome);
            s.finish();
            const double chunked_s = secondsBetween(t, Clock::now());
            out.chunkedSeconds.push_back(chunked_s);
            out.chunks.push_back(chunked.metrics["scan.chunks"]);
            events = std::move(chunked.events);
            out.efficiency.push_back(
                whole_genome_scan_s /
                (static_cast<double>(options.nproc) * chunked_s));
        }

        std::vector<core::OffTargetHit> hits;
        t = Clock::now();
        {
            Span s(&tracer, "offtarget.hits_from_events", request,
                   root.id());
            hits = core::hitsFromEvents(genome, set, events);
        }
        out.hitsSeconds.push_back(secondsBetween(t, Clock::now()));
        out.events.push_back(static_cast<double>(events.size()));
        out.hits.push_back(static_cast<double>(hits.size()));
        t = Clock::now();
        {
            Span s(&tracer, "offtarget.rank", request, root.id());
            (void)core::rankHits(hits, 0.0, c.topK ? c.topK : 100);
        }
        out.rankSeconds.push_back(secondsBetween(t, Clock::now()));
    }
    return out;
}

/** Host fingerprint as metrics: nproc, SIMD tier, metrics build flag. */
MetricMap
hostMetrics(const RunOptions &options)
{
    MetricMap m;
    m["host.nproc"] = {static_cast<double>(options.nproc), "count"};
    m["host.simd_tier"] = {
        hscan::simdTierGaugeValue(hscan::resolveSimdTier()), "tier"};
    m["host.metrics_enabled"] = {PERFBENCH_METRICS ? 1.0 : 0.0, "flag"};
    return m;
}

} // namespace

MetricMap
layerMetrics(const Workload &workload, const PassResult &traced,
             const RunOptions &options, Tracer &tracer,
             const std::string &db_dir)
{
    const Replay r = replay(workload,
                            workload.replayCases(traced, options.seed),
                            options, tracer, db_dir);
    // Counters add up over the rounds' services; a gauge or a quantile
    // reports the largest round.
    auto lib = [&traced](const char *key, bool counter = true) {
        double total = 0.0;
        for (const auto &svc : traced.serviceMetrics) {
            auto it = svc.find(key);
            const double v = it == svc.end() ? 0.0 : it->second;
            total = counter ? total + v : std::max(total, v);
        }
        return total;
    };
    const auto &ex = traced.executorDelta;
    auto exec = [&ex](const char *key) {
        auto it = ex.find(key);
        return it == ex.end() ? 0.0 : it->second;
    };

    // Library counters, one sample per served request. A request's run
    // carries its whole batch's counters, so per-batch totals weight
    // each request by 1 / batch size.
    double requests = 0, compiles = 0, db_hits = 0, db_misses = 0;
    double store_failures = 0, fallbacks = 0, bytes_scanned = 0;
    double compile_sum = 0, latency_sum = 0, coalesced = 0;
    std::map<std::string, double> choices;
    std::vector<double> compile_s, weights, overhead_ms, batch_requests;
    std::vector<double> submit_s, lag_ms;
    double simd_tier = r.simdTier;
    for (const Outcome &o : traced.outcomes) {
        lag_ms.push_back(o.lag * 1e3);
        submit_s.push_back(o.submit);
        if (!o.ok)
            continue;
        const double w = 1.0 / std::max(1.0, o.batchRequests);
        requests += 1;
        compiles += o.compiles * w;
        db_hits += o.dbHits * w;
        db_misses += o.dbMisses * w;
        store_failures += o.dbStoreFailures * w;
        fallbacks += (o.fallbacks > 0 ? 1.0 : 0.0) * w;
        bytes_scanned += o.scanBytes * w;
        if (!o.autoChoice.empty())
            choices[o.autoChoice] += w;
        compile_s.push_back(o.compileSeconds);
        weights.push_back(w);
        compile_sum += o.compileSeconds;
        latency_sum += o.service;
        overhead_ms.push_back(
            (o.service - o.compileSeconds - o.scanSeconds) * 1e3);
        batch_requests.push_back(o.batchRequests);
        coalesced += o.coalesced;
        if (o.simdTier >= 0)
            simd_tier = o.simdTier;
    }
    double choice_total = 0;
    for (const auto &[name, n] : choices)
        choice_total += n;

    MetricMap m;
    m["genome_store.load_s"] = {median(traced.storeLoadSeconds), "s"};
    m["genome_store.hits"] = {lib("store.hits"), "count"};
    m["genome_store.misses"] = {lib("store.misses"), "count"};
    m["genome_store.mmap_bytes"] = {lib("store.mmap_bytes", false), "bytes"};

    m["compile.build_s"] = {median(r.buildSeconds), "s"};
    m["compile.patterns"] = {median(r.patterns), "count"};

    for (core::EngineKind kind :
         {core::EngineKind::HscanDfa, core::EngineKind::HscanBitParallel,
          core::EngineKind::Reference}) {
        const std::string name = core::engineName(kind);
        m["engine_auto.choice." + name] = {choices[name], "count"};
    }
    m["engine_auto.dfa_share"] = {
        choice_total > 0
            ? choices[core::engineName(core::EngineKind::HscanDfa)] /
                  choice_total
            : 0.0,
        "share"};
    m["engine_auto.fallbacks"] = {fallbacks, "count"};
    m["engine_auto.cliff_dfa"] = {r.cliffDfa ? 1.0 : 0.0, "flag"};
    m["engine.cliff_compile_s"] = {r.cliffCompileSeconds, "s"};

    m["engine.compile_s.p50"] = {
        weightedQuantile(compile_s, weights, 0.5), "s"};
    m["engine.compile_s.p99"] = {
        weightedQuantile(compile_s, weights, 0.99), "s"};
    m["engine.compiles_per_request"] = {
        requests > 0 ? compiles / requests : 0.0, "ratio"};
    m["engine.compile_share"] = {
        latency_sum > 0 ? compile_sum / latency_sum : 0.0, "share"};
    m["engine.replay_compile_s"] = {median(r.compileSeconds), "s"};

    m["pattern_db.hits"] = {db_hits, "count"};
    m["pattern_db.misses"] = {db_misses, "count"};
    m["pattern_db.load_s"] = {median(r.dbLoadSeconds), "s"};
    m["pattern_db.store_failures"] = {store_failures, "count"};

    m["hscan.scan_s"] = {median(r.scanSeconds), "s"};
    m["hscan.bytes_per_s"] = {median(r.bytesPerSecond), "B/s"};
    m["hscan.ns_per_byte_per_guide"] = {median(r.nsPerBytePerGuide), "ns"};
    m["hscan.events"] = {median(r.events), "count"};
    m["hscan.simd_tier"] = {simd_tier, "tier"};
    m["hscan.bytes_scanned"] = {bytes_scanned, "bytes"};

    m["chunked_scan.scan_s"] = {median(r.chunkedSeconds), "s"};
    m["chunked_scan.chunks"] = {median(r.chunks), "count"};
    m["chunked_scan.parallel_efficiency"] = {median(r.efficiency), "share"};
    m["executor.tasks"] = {exec("executor.tasks"), "count"};
    m["executor.steals"] = {exec("executor.steals"), "count"};
    const double waits = exec("executor.wait_seconds.count");
    m["executor.wait_s"] = {
        waits > 0 ? exec("executor.wait_seconds.sum") / waits : 0.0, "s"};

    double events_total = 0, hits_total = 0;
    for (double e : r.events)
        events_total += e;
    for (double h : r.hits)
        hits_total += h;
    m["offtarget.hits_from_events_s"] = {median(r.hitsSeconds), "s"};
    m["offtarget.rank_s"] = {median(r.rankSeconds), "s"};
    m["offtarget.events"] = {median(r.events), "count"};
    m["offtarget.hits"] = {median(r.hits), "count"};
    m["offtarget.yield"] = {
        events_total > 0 ? hits_total / events_total : 0.0, "share"};

    m["service.submit_s"] = {median(submit_s), "s"};
    m["service.overhead_ms.p50"] = {quantile(overhead_ms, 0.5), "ms"};
    m["service.overhead_ms.p99"] = {quantile(overhead_ms, 0.99), "ms"};
    m["service.batch_requests.p50"] = {quantile(batch_requests, 0.5),
                                       "count"};
    m["service.batch_requests.p99"] = {quantile(batch_requests, 0.99),
                                       "count"};
    m["service.coalesced_share"] = {
        requests > 0 ? coalesced / requests : 0.0, "share"};
    m["service.rejected"] = {lib("service.rejected"), "count"};
    m["service.shed"] = {lib("service.shed"), "count"};
    m["service.batch_splits"] = {lib("service.batch_splits"), "count"};
    m["service.est_wait_s"] = {
        lib("service.est_wait_seconds.p99", false), "s"};

    m["gen.lag_p99_ms"] = {quantile(lag_ms, 0.99), "ms"};
    m["gate.failed_share"] = {
        traced.attempted > 0 ? static_cast<double>(traced.failed) /
                                   static_cast<double>(traced.attempted)
                             : 0.0,
        "share"};
    for (auto &[name, metric] : hostMetrics(options))
        m[name] = metric;
    return m;
}

} // namespace perfbench
