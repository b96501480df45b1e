#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <future>
#include <stdexcept>
#include <thread>

#include "stats.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

double
ms(double seconds)
{
    return seconds * 1e3;
}

/** Latencies (ms) of the served requests of one phase. */
std::vector<double>
latenciesMs(const PassResult &pass, int phase)
{
    std::vector<double> out;
    for (const Outcome &o : pass.outcomes)
        if (o.phase == phase && o.ok)
            out.push_back(ms(o.latency));
    return out;
}

/** Record a span with explicit end points (open-loop due times). */
void
recordSpan(Tracer *tracer, const char *name, uint64_t request,
           uint64_t id, uint64_t parent, Clock::time_point start,
           Clock::time_point end)
{
    if (!tracer)
        return;
    Tracer::Record r;
    r.name = name;
    r.id = id;
    r.parent = parent;
    r.request = request;
    r.start = start;
    r.end = end;
    r.thread = threadTag();
    tracer->record(std::move(r));
}

/** submit() .. resolved future, with the spans of one request. */
struct Timed
{
    Clock::time_point submitStart, submitEnd, resolved;
};

void
recordRequestSpans(Tracer *tracer, Clock::time_point due,
                   const Timed &t)
{
    if (!tracer)
        return;
    const uint64_t request = tracer->newRequestId();
    const uint64_t root = tracer->newSpanId();
    recordSpan(tracer, "request", request, root, 0, due, t.resolved);
    if (t.submitStart > due)
        recordSpan(tracer, "gen.lag", request, tracer->newSpanId(), root,
                   due, t.submitStart);
    recordSpan(tracer, "service.submit", request, tracer->newSpanId(),
               root, t.submitStart, t.submitEnd);
    recordSpan(tracer, "service.wait", request, tracer->newSpanId(), root,
               t.submitEnd, t.resolved);
}

void
fillTiming(Outcome &o, Clock::time_point due, const Timed &t)
{
    o.latency = secondsBetween(due, t.resolved);
    o.service = secondsBetween(t.submitStart, t.resolved);
    o.submit = secondsBetween(t.submitStart, t.submitEnd);
    o.lag = std::max(0.0, secondsBetween(due, t.submitStart));
}

/** Serve one request synchronously (set-up and closed loops). */
common::Expected<core::SearchResult>
serveOne(core::SearchService &service, std::vector<core::Guide> guides,
         core::RequestOptions req, Timed &t)
{
    t.submitStart = Clock::now();
    std::future<core::SearchResult> f =
        service.submit(std::move(guides), std::move(req));
    t.submitEnd = Clock::now();
    try {
        core::SearchResult r = f.get();
        t.resolved = Clock::now();
        return r;
    } catch (const common::ErrorException &e) {
        t.resolved = Clock::now();
        return e.error();
    }
}

void
requireServed(const common::Expected<core::SearchResult> &r,
              const char *what)
{
    if (!r.ok())
        throw std::runtime_error(std::string(what) + " failed: " +
                                 r.error().str());
}

// ---------------------------------------------------------------- serve

/**
 * serve: open-loop Poisson arrivals of single-guide requests at d=3 or
 * d=4, a low then a high offered rate, fixed once from the library's
 * measured capacity on a 4-core host. d=2 stays out of the
 * mix: merged d=2 sets of about 7-13 guides hit the engine=auto DFA
 * compile cliff at random, which made the tail and peak memory of a
 * run depend on its seed (CATALOG.md has the measurements). The
 * traced run probes that cliff directly instead.
 */
class ServeWorkload final : public Workload
{
  public:
    /**
     * 2 MB, not 4: a solo request then scans in about 17 ms, so 90 req/s
     * leaves the dispatcher headroom. On 4 MB the same rate kept it
     * saturated, and the p99 swung with every transient slowdown.
     */
    static constexpr size_t kGenomeBytes = 2u << 20;
    static constexpr size_t kLibraryGuides = 2000;
    static constexpr double kLowRps = 15.0;
    static constexpr double kHighRps = 90.0;
    /**
     * Share of d=4 requests (the rest are d=3). A d=4 request scans
     * about a quarter longer, so at an even split the median would fall
     * in the gap between the two latency modes and jump with the seed's
     * exact mix; at 1 in 4 it sits inside the d=3 mode.
     */
    static constexpr double kD4Share = 0.25;
    /** Merged d=2 guides that engine=auto sends to hscan-dfa. */
    static constexpr size_t kCliffGuides = 10;
    /**
     * Share of the run given to the low phase. Each phase sends a fixed
     * number of requests (rate x its share of --seconds) with Poisson
     * gaps; at the BENCHMARK.json run length the high phase gets
     * >= 1000, so its p99 has ten samples beyond it.
     */
    static constexpr double kLowShare = 0.35;
    /** A high-phase request slower than this misses goodput. */
    static constexpr double kLatencyLimitSeconds = 0.25;
    /** Generator lag p99 above this marks the run invalid. */
    static constexpr double kMaxLagSeconds = 0.010;
    /**
     * A run pools eight fresh services, as dense does (see
     * DenseWorkload::kRounds): fourteen fresh services in one process
     * served the same 120 solo d=3 requests at p50s from 13.9 to
     * 18.9 ms. Each round is a whole low-then-high schedule of its own.
     */
    static constexpr int kRounds = 8;

    const char *name() const override { return "serve"; }

    int rounds() const override { return kRounds; }

    void
    prepare(const RunOptions &options, Gate &) override
    {
        LibrarySpec spec;
        spec.genomeBytes = kGenomeBytes;
        spec.guides = kLibraryGuides;
        spec.sampleFromGenome = true;
        spec.sitesPerGuide = 1;
        // 0..6: a d=4 request also has sites at d+1 and d+2.
        spec.mismatchWeights = {1, 1, 1, 1, 1, 1, 1};
        spec.seed = options.seed;
        writeLibrary(spec, options);
    }

    EndToEnd
    summarise(const PassResult &pass, const RunOptions &) const override
    {
        EndToEnd e;
        e.setup_s = median(pass.setupSeconds);
        const auto low = latenciesMs(pass, 0);
        const auto high = latenciesMs(pass, 1);
        e.light_p50_ms = quantile(low, 0.5);
        e.p50_ms = quantile(high, 0.5);
        e.tail_level = tailQuantileLevel(high.size());
        e.tail_samples = high.size();
        e.tail_ms = quantile(high, e.tail_level);
        size_t good = 0;
        std::vector<double> lags;
        for (const Outcome &o : pass.outcomes) {
            lags.push_back(ms(o.lag));
            if (o.phase == 1 && o.ok &&
                o.latency <= kLatencyLimitSeconds)
                ++good;
        }
        e.goodput_rps = static_cast<double>(good) / pass.phaseSeconds[1];
        e.named["serve_low_p50_ms"] = e.light_p50_ms;
        e.named["serve_low_p99_ms"] =
            quantile(low, tailQuantileLevel(low.size()));
        e.named["serve_high_p50_ms"] = e.p50_ms;
        e.named["serve_high_p99_ms"] = e.tail_ms;
        e.named["serve_high_goodput_rps"] = e.goodput_rps;
        e.named["serve_low_requests"] = static_cast<double>(low.size());
        e.named["serve_high_requests"] = static_cast<double>(high.size());
        e.named["gen.lag_p99_ms"] = quantile(lags, 0.99);
        return e;
    }

    std::vector<ReplayCase>
    replayCases(const PassResult &pass, uint64_t seed) const override
    {
        // Merged-set shapes as served: one sample per request, so a
        // case is drawn in proportion to how many requests saw it. The
        // last case is the cliff probe: a d=2 merged set of the size
        // engine=auto compiles as a DFA.
        std::vector<std::pair<size_t, int>> shapes;
        std::vector<std::pair<size_t, int>> picked;
        for (const Outcome &o : pass.outcomes)
            if (o.ok)
                shapes.emplace_back(static_cast<size_t>(o.batchGuides),
                                    o.d);
        std::sort(shapes.begin(), shapes.end());
        constexpr size_t kQuantileCases = 11;
        for (size_t i = 0; i < kQuantileCases && !shapes.empty(); ++i)
            picked.push_back(
                shapes[(2 * i + 1) * shapes.size() / (2 * kQuantileCases)]);
        std::vector<ReplayCase> cases;
        Rng rng(seed ^ 0x5e7e);
        auto draw = [&](size_t guides, int d) {
            ReplayCase c;
            c.d = d;
            for (size_t g = 0; g < std::max<size_t>(guides, 1); ++g)
                c.guides.push_back(
                    lib_.guides[rng.below(lib_.guides.size())]);
            return c;
        };
        for (const auto &[guides, d] : picked)
            cases.push_back(draw(guides, d));
        ReplayCase cliff = draw(kCliffGuides, 2);
        cliff.cliffProbe = true;
        cases.push_back(std::move(cliff));
        return cases;
    }

  protected:
    void
    firstRequest(core::SearchService &service,
                 const RunOptions &) override
    {
        Timed t;
        requireServed(serveOne(service, {lib_.guides[0]},
                               requestOptions(3), t),
                      "serve first request");
    }

    void
    measure(core::SearchService &service, const RunOptions &options,
            Tracer *tracer, Gate &gate, PassResult &pass) override
    {
        struct Arrival
        {
            double due;
            uint32_t guide;
            int d;
            int phase;
        };
        // The seeded schedule: exponential gaps, guide and d per draw.
        Rng rng((options.seed * kRounds + round_++) * 0x9e3779b97f4a7c15ULL +
                7);
        std::vector<Arrival> plan;
        const double rates[2] = {kLowRps, kHighRps};
        const size_t counts[2] = {
            static_cast<size_t>(
                std::ceil(kLowRps * options.seconds * kLowShare)),
            static_cast<size_t>(
                std::ceil(kHighRps * options.seconds * (1.0 - kLowShare)))};
        double t = 0.0;
        double phase_end[2] = {0.0, 0.0};
        for (int phase = 0; phase < 2; ++phase) {
            for (size_t n = 0; n < counts[phase]; ++n) {
                t += -std::log(1.0 - rng.uniform()) / rates[phase];
                Arrival a;
                a.due = t;
                a.guide = static_cast<uint32_t>(
                    rng.below(lib_.guides.size()));
                a.d = rng.chance(kD4Share) ? 4 : 3;
                a.phase = phase;
                plan.push_back(a);
            }
            phase_end[phase] = t;
        }

        struct InFlight
        {
            size_t index;
            std::future<core::SearchResult> future;
            Timed timed;
        };
        std::vector<Outcome> outcomes(plan.size());
        std::vector<std::vector<core::OffTargetHit>> served(plan.size());
        std::vector<InFlight> inflight;
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(20);
        auto dueAt = [&](size_t i) {
            return start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(plan[i].due));
        };
        auto complete = [&](InFlight &f, Clock::time_point now) {
            f.timed.resolved = now;
            Outcome &o = outcomes[f.index];
            const Arrival &a = plan[f.index];
            fillTiming(o, dueAt(f.index), f.timed);
            recordRequestSpans(tracer, dueAt(f.index), f.timed);
            try {
                core::SearchResult r = f.future.get();
                maybeCorrupt(options, r);
                readRun(r, o);
                o.hits = r.hits.size();
                const std::string bad =
                    checkPlanted(r.hits, 0, lib_.planted[a.guide], a.d);
                if (!bad.empty())
                    gate.fail("serve request " +
                              std::to_string(f.index) + ": " + bad);
                o.ok = bad.empty() && !r.timedOut;
                served[f.index] = std::move(r.hits);
            } catch (const common::ErrorException &) {
                o.ok = false; // rejected, shed or errored
            }
        };

        // One generator thread: it sends each request at its due time
        // and, while waiting, polls the in-flight futures so every
        // resolution is stamped within a fraction of a millisecond.
        constexpr auto kPoll = std::chrono::microseconds(200);
        const Clock::time_point give_up =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(phase_end[1] +
                                                      30.0));
        size_t next = 0;
        while (next < plan.size() || !inflight.empty()) {
            Clock::time_point now = Clock::now();
            if (next < plan.size() && now >= dueAt(next)) {
                const Arrival &a = plan[next];
                InFlight f;
                f.index = next;
                outcomes[next].phase = a.phase;
                outcomes[next].d = a.d;
                f.timed.submitStart = Clock::now();
                f.future = service.submit({lib_.guides[a.guide]},
                                          requestOptions(a.d));
                f.timed.submitEnd = Clock::now();
                inflight.push_back(std::move(f));
                ++next;
                continue;
            }
            for (size_t i = 0; i < inflight.size();) {
                if (inflight[i].future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    complete(inflight[i], now);
                    inflight[i] = std::move(inflight.back());
                    inflight.pop_back();
                } else {
                    ++i;
                }
            }
            if (now > give_up)
                break; // the rest count as timed out
            Clock::time_point wake = now + kPoll;
            if (next < plan.size())
                wake = std::min(wake, dueAt(next));
            std::this_thread::sleep_until(wake);
        }
        pass.phaseSeconds[0] += phase_end[0];
        pass.phaseSeconds[1] += phase_end[1] - phase_end[0];
        // Still unresolved: timed out, so failed (outcomes[i].ok stays
        // false), but not a wrong result.
        inflight.clear();
        service.flush();

        // Outside the timed region: every served result must equal a
        // direct bit-parallel search over the same guide.
        for (int d : {3, 4}) {
            std::vector<uint32_t> used;
            for (size_t i = 0; i < plan.size(); ++i)
                if (plan[i].d == d && outcomes[i].ok)
                    used.push_back(plan[i].guide);
            std::sort(used.begin(), used.end());
            used.erase(std::unique(used.begin(), used.end()), used.end());
            if (used.empty())
                continue;
            std::vector<core::Guide> guides;
            for (uint32_t g : used)
                guides.push_back(lib_.guides[g]);
            const auto want = splitByGuide(
                referenceHits(lib_.genome, guides, d, options.nproc),
                guides.size());
            for (size_t i = 0; i < plan.size(); ++i) {
                if (plan[i].d != d || !outcomes[i].ok)
                    continue;
                const size_t slot =
                    std::lower_bound(used.begin(), used.end(),
                                     plan[i].guide) -
                    used.begin();
                const std::string bad = checkIdentical(served[i], want[slot]);
                if (!bad.empty()) {
                    gate.fail("serve request " + std::to_string(i) + ": " +
                              bad);
                    outcomes[i].ok = false;
                }
            }
        }
        std::vector<double> lags;
        for (const Outcome &o : outcomes)
            lags.push_back(o.lag);
        pass.outcomes.insert(pass.outcomes.end(), outcomes.begin(),
                             outcomes.end());
        if (quantile(lags, 0.99) > kMaxLagSeconds)
            throw std::runtime_error(
                "invalid run: the load generator fell behind its "
                "schedule (lag p99 " +
                std::to_string(ms(quantile(lags, 0.99))) +
                " ms), so the open loop was not honest");
    }

  private:
    int round_ = 0; //!< rounds measured so far, over every pass
};

// --------------------------------------------------------------- screen

/**
 * screen: one client repeating one library job — 512 guides at d=3
 * over a 32 MB genome (eight default 4 MB chunks, two per core on a
 * 4-core host) with threads = nproc.
 */
class ScreenWorkload final : public Workload
{
  public:
    static constexpr size_t kGenomeBytes = 32u << 20;
    static constexpr size_t kGuides = 512;

    const char *name() const override { return "screen"; }

    void
    prepare(const RunOptions &options, Gate &gate) override
    {
        LibrarySpec spec;
        spec.genomeBytes = kGenomeBytes;
        spec.guides = kGuides;
        spec.sampleFromGenome = true;
        spec.sitesPerGuide = 1;
        spec.seed = options.seed;
        writeLibrary(spec, options);
        reference_ =
            referenceHits(lib_.genome, lib_.guides, 3, options.nproc);
        checkAgainstPlanted(reference_, gate, "direct search");
    }

    EndToEnd
    summarise(const PassResult &pass,
              const RunOptions &) const override
    {
        EndToEnd e;
        e.setup_s = median(pass.setupSeconds);
        const auto jobs = latenciesMs(pass, 1);
        e.p50_ms = quantile(jobs, 0.5);
        e.light_p50_ms = e.p50_ms; // one client is its only load level
        e.tail_level = tailQuantileLevel(jobs.size());
        e.tail_samples = jobs.size();
        e.tail_ms = quantile(jobs, e.tail_level);
        e.goodput_rps =
            pass.phaseSeconds[1] > 0
                ? static_cast<double>(jobs.size()) / pass.phaseSeconds[1]
                : 0.0;
        std::vector<double> rate;
        const double mbp = static_cast<double>(lib_.genome.size()) / 1e6;
        for (double job_ms : jobs)
            rate.push_back(static_cast<double>(kGuides) * mbp /
                           (job_ms / 1e3));
        e.named["screen_guide_mbp_per_s"] = median(rate);
        e.named["screen_jobs"] = static_cast<double>(jobs.size());
        return e;
    }

    std::vector<ReplayCase>
    replayCases(const PassResult &, uint64_t) const override
    {
        return {ReplayCase{lib_.guides, 3, 0}};
    }

  protected:
    core::RequestOptions
    jobOptions(const RunOptions &options) const
    {
        core::RequestOptions req = requestOptions(3);
        req.config.threads = options.nproc;
        return req;
    }

    void
    firstRequest(core::SearchService &service,
                 const RunOptions &options) override
    {
        Timed t;
        requireServed(serveOne(service, {lib_.guides[0]},
                               jobOptions(options), t),
                      "screen first request");
    }

    void
    measure(core::SearchService &service, const RunOptions &options,
            Tracer *tracer, Gate &gate, PassResult &pass) override
    {
        const Clock::time_point start = Clock::now();
        const Clock::time_point end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.seconds));
        do {
            Timed t;
            auto r = serveOne(service, lib_.guides, jobOptions(options), t);
            recordRequestSpans(tracer, t.submitStart, t);
            Outcome o;
            o.phase = 1;
            o.d = 3;
            fillTiming(o, t.submitStart, t);
            if (r.ok()) {
                core::SearchResult res = std::move(r).value();
                maybeCorrupt(options, res);
                readRun(res, o);
                o.hits = res.hits.size();
                const std::string bad = checkIdentical(res.hits, reference_);
                const bool planted_ok =
                    checkAgainstPlanted(res.hits, gate, "screen job");
                if (!bad.empty())
                    gate.fail("screen job: " + bad);
                o.ok = bad.empty() && planted_ok && !res.timedOut;
            }
            pass.outcomes.push_back(o);
        } while (Clock::now() < end);
        pass.phaseSeconds[1] = secondsBetween(start, Clock::now());
    }

  private:
    bool
    checkAgainstPlanted(const std::vector<core::OffTargetHit> &hits,
                        Gate &gate, const char *what) const
    {
        for (size_t g = 0; g < lib_.guides.size(); ++g) {
            const std::string bad = checkPlanted(
                hits, static_cast<uint32_t>(g), lib_.planted[g], 3);
            if (!bad.empty()) {
                gate.fail(std::string(what) + ": " + bad);
                return false;
            }
        }
        return true;
    }

    std::vector<core::OffTargetHit> reference_;
};

// ---------------------------------------------------------------- dense

/**
 * dense: small guide families, ranked top-100 at d=3, over a 1.5 MB
 * genome where each family has 16000 planted sites, mostly near
 * misses — so verification, scoring, ranking and demux carry the cost.
 * Each round has one client alone for its first 30%, then two.
 */
class DenseWorkload final : public Workload
{
  public:
    static constexpr size_t kGenomeBytes = 3u << 19; // 1.5 MB
    static constexpr size_t kFamilies = 3;
    static constexpr size_t kFamilyGuides = 4;
    static constexpr size_t kSitesPerGuide = 4000;
    static constexpr size_t kTopK = 100;
    static constexpr double kLightShare = 0.3;
    /**
     * A solo request's latency follows where its store and service
     * landed in memory: fresh services in one process read 12.5 to
     * 16.4 ms p50 on the same inputs. Eight rounds pool eight
     * placements per run.
     */
    static constexpr int kRounds = 8;

    const char *name() const override { return "dense"; }

    int rounds() const override { return kRounds; }

    void
    prepare(const RunOptions &options, Gate &gate) override
    {
        LibrarySpec spec;
        spec.genomeBytes = kGenomeBytes;
        spec.guides = kFamilies * kFamilyGuides;
        spec.sampleFromGenome = false;
        spec.sitesPerGuide = kSitesPerGuide;
        // Mostly near misses, plus sites at d+1 and d+2.
        spec.mismatchWeights = {1, 2, 3, 4, 1, 1};
        spec.seed = options.seed;
        writeLibrary(spec, options);
        for (size_t f = 0; f < kFamilies; ++f) {
            Reference ref;
            ref.hits = referenceHits(lib_.genome, family(f), 3,
                                     options.nproc);
            ref.ranked = core::rankHits(ref.hits, 0.0, kTopK);
            for (size_t g = 0; g < kFamilyGuides; ++g) {
                const std::string bad = checkPlanted(
                    ref.hits, static_cast<uint32_t>(g),
                    lib_.planted[f * kFamilyGuides + g], 3);
                if (!bad.empty())
                    gate.fail("dense direct search: " + bad);
            }
            refs_.push_back(std::move(ref));
        }
    }

    EndToEnd
    summarise(const PassResult &pass,
              const RunOptions &) const override
    {
        EndToEnd e;
        e.setup_s = median(pass.setupSeconds);
        const auto light = latenciesMs(pass, 0);
        const auto loaded = latenciesMs(pass, 1);
        e.light_p50_ms = quantile(light, 0.5);
        e.p50_ms = quantile(loaded, 0.5);
        e.tail_level = tailQuantileLevel(loaded.size());
        e.tail_samples = loaded.size();
        e.tail_ms = quantile(loaded, e.tail_level);
        double hits = 0;
        for (const Outcome &o : pass.outcomes)
            if (o.phase == 1 && o.ok)
                hits += static_cast<double>(o.hits);
        e.goodput_rps = static_cast<double>(loaded.size()) /
                        pass.phaseSeconds[1];
        e.named["dense_p50_ms"] = e.p50_ms;
        e.named["dense_p99_ms"] = e.tail_ms;
        e.named["dense_hits_per_s"] = hits / pass.phaseSeconds[1];
        e.named["dense_light_requests"] = static_cast<double>(light.size());
        e.named["dense_loaded_requests"] =
            static_cast<double>(loaded.size());
        return e;
    }

    std::vector<ReplayCase>
    replayCases(const PassResult &pass, uint64_t) const override
    {
        // One case per merged-set size served (a batch of k requests
        // carries k families).
        std::vector<size_t> sizes;
        for (const Outcome &o : pass.outcomes)
            if (o.ok)
                sizes.push_back(static_cast<size_t>(o.batchRequests));
        std::sort(sizes.begin(), sizes.end());
        sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
        std::vector<ReplayCase> cases;
        for (size_t k : sizes) {
            ReplayCase c;
            c.d = 3;
            c.topK = kTopK;
            for (size_t f = 0; f < k; ++f) {
                auto fam = family(f % kFamilies);
                c.guides.insert(c.guides.end(), fam.begin(), fam.end());
            }
            cases.push_back(std::move(c));
        }
        return cases;
    }

  protected:
    core::RequestOptions
    rankedOptions() const
    {
        core::RequestOptions req = requestOptions(3);
        req.config.topK = kTopK;
        return req;
    }

    std::vector<core::Guide>
    family(size_t f) const
    {
        return {lib_.guides.begin() + f * kFamilyGuides,
                lib_.guides.begin() + (f + 1) * kFamilyGuides};
    }

    void
    firstRequest(core::SearchService &service,
                 const RunOptions &) override
    {
        Timed t;
        requireServed(serveOne(service, {lib_.guides[0]}, rankedOptions(),
                               t),
                      "dense first request");
    }

    void
    measure(core::SearchService &service, const RunOptions &options,
            Tracer *tracer, Gate &gate, PassResult &pass) override
    {
        std::mutex mutex; // guards pass.outcomes
        auto client = [&](int phase, uint64_t client_seed,
                          Clock::time_point end) {
            Rng rng(client_seed);
            do {
                const size_t f = rng.below(kFamilies);
                Timed t;
                auto r = serveOne(service, family(f), rankedOptions(), t);
                recordRequestSpans(tracer, t.submitStart, t);
                Outcome o;
                o.phase = phase;
                o.d = 3;
                fillTiming(o, t.submitStart, t);
                if (r.ok()) {
                    core::SearchResult res = std::move(r).value();
                    {
                        std::lock_guard<std::mutex> lock(mutex);
                        maybeCorrupt(options, res);
                    }
                    readRun(res, o);
                    o.hits = res.hits.size();
                    // The direct search passed the planted-site check,
                    // so identity extends it to every served result.
                    std::string bad = checkIdentical(res.hits, refs_[f].hits);
                    if (bad.empty())
                        bad = checkIdentical(res.ranked, refs_[f].ranked);
                    if (!bad.empty())
                        gate.fail("dense request: " + bad);
                    o.ok = bad.empty() && !res.timedOut;
                }
                std::lock_guard<std::mutex> lock(mutex);
                pass.outcomes.push_back(o);
            } while (Clock::now() < end);
        };
        auto after = [](Clock::time_point from, double seconds) {
            return from + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
        };

        const uint64_t seed = (options.seed * kRounds + round_++) * 31;
        const Clock::time_point light_start = Clock::now();
        client(0, seed + 1, after(light_start, options.seconds * kLightShare));
        const Clock::time_point loaded_start = Clock::now();
        pass.phaseSeconds[0] += secondsBetween(light_start, loaded_start);
        const Clock::time_point loaded_end =
            after(loaded_start, options.seconds * (1.0 - kLightShare));
        std::thread second(client, 1, seed + 2, loaded_end);
        client(1, seed + 3, loaded_end);
        second.join();
        pass.phaseSeconds[1] += secondsBetween(loaded_start, Clock::now());
    }

  private:
    struct Reference
    {
        std::vector<core::OffTargetHit> hits;
        std::vector<core::OffTargetHit> ranked;
    };
    std::vector<Reference> refs_;
    int round_ = 0; //!< rounds measured so far, over every pass
};

} // namespace

void
Workload::writeLibrary(const LibrarySpec &spec, const RunOptions &options)
{
    lib_ = makeLibrary(spec);
    genomePath_ = (fs::path(options.workDir) /
                   (std::string(name()) + ".2bit"))
                      .string();
    if (auto st = genome::PackedFile::writeSequence(genomePath_,
                                                    lib_.genome);
        !st.ok())
        throw std::runtime_error("cannot write " + genomePath_ + ": " +
                                 st.error().str());
}

core::RequestOptions
Workload::requestOptions(int d) const
{
    core::RequestOptions req;
    req.genomeRef = core::GenomeRef::packed(genomePath_);
    req.config.engine = core::EngineKind::Auto;
    req.config.maxMismatches = d;
    req.config.pam = core::pamNRG();
    req.config.bothStrands = true;
    return req;
}

void
Workload::readRun(const core::SearchResult &result, Outcome &out)
{
    const auto &m = result.run.metrics;
    auto get = [&m](const char *key, double fallback = 0.0) {
        auto it = m.find(key);
        return it == m.end() ? fallback : it->second;
    };
    out.compileSeconds = result.run.timing.compileSeconds;
    out.scanSeconds = result.run.timing.hostSeconds;
    out.scanBytes = get("scan.bytes");
    out.batchRequests = get("service.batch_requests", 1.0);
    out.batchGuides = get("service.batch_guides", 1.0);
    out.coalesced = get("service.coalesced");
    out.compiles = get("session.compiles");
    out.dbHits = get("session.db_hits");
    out.dbMisses = get("session.db_misses");
    out.dbStoreFailures = get("session.db_store_failures");
    out.fallbacks = get("session.fallbacks");
    out.simdTier = get("scan.simd_tier", -1.0);
    static const std::string prefix = "session.engine_auto.";
    for (auto it = m.lower_bound(prefix);
         it != m.end() && it->first.compare(0, prefix.size(), prefix) == 0;
         ++it)
        if (it->second > 0)
            out.autoChoice = it->first.substr(prefix.size());
}

void
Workload::maybeCorrupt(const RunOptions &options, core::SearchResult &r)
{
    if (!options.corruptHit || corrupted_ || r.hits.empty())
        return;
    r.hits.front().mismatches += 1;
    corrupted_ = true;
}

PassResult
Workload::run(const RunOptions &options, const std::string &db_root,
              Tracer *tracer, Gate &gate)
{
    PassResult pass;
    constexpr int kSetupReps = 15;
    std::unique_ptr<core::SearchService> service;
    std::string db_dir;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        db_dir = (fs::path(db_root) / ("db-" + std::to_string(rep))).string();
        fs::remove_all(db_dir);
        fs::create_directories(db_dir);
        service.reset(); // the previous repetition's service drains here

        const uint64_t request = tracer ? tracer->newRequestId() : 0;
        Span setup(tracer, "setup", request);
        const Clock::time_point t0 = Clock::now();
        auto store = std::make_shared<core::GenomeStore>();
        {
            Span load(tracer, "genome_store.load", request, setup.id());
            store->load(core::GenomeRef::packed(genomePath_));
        }
        pass.storeLoadSeconds.push_back(secondsBetween(t0, Clock::now()));
        {
            Span construct(tracer, "service.construct", request,
                           setup.id());
            core::ServiceOptions so;
            so.databaseDir = db_dir;
            service = std::make_unique<core::SearchService>(so, store);
        }
        {
            Span first(tracer, "service.first_request", request,
                       setup.id());
            firstRequest(*service, options);
        }
        pass.setupSeconds.push_back(secondsBetween(t0, Clock::now()));
    }

    const auto executor_before =
        common::Executor::shared().metricsSnapshot();
    RunOptions round_options = options;
    round_options.seconds = options.seconds / rounds();
    for (int round = 0; round < rounds(); ++round) {
        if (round > 0) {
            service.reset();
            auto store = std::make_shared<core::GenomeStore>();
            store->load(core::GenomeRef::packed(genomePath_));
            core::ServiceOptions so;
            so.databaseDir = db_dir;
            service = std::make_unique<core::SearchService>(so, store);
        }
        measure(*service, round_options, tracer, gate, pass);
        pass.serviceMetrics.push_back(service->metricsSnapshot());
    }
    for (const auto &[key, value] :
         common::Executor::shared().metricsSnapshot()) {
        auto it = executor_before.find(key);
        pass.executorDelta[key] =
            value - (it == executor_before.end() ? 0.0 : it->second);
    }
    service.reset();
    pass.attempted = pass.outcomes.size();
    for (const Outcome &o : pass.outcomes)
        pass.failed += o.ok ? 0 : 1;
    return pass;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "serve")
        return std::make_unique<ServeWorkload>();
    if (name == "screen")
        return std::make_unique<ScreenWorkload>();
    if (name == "dense")
        return std::make_unique<DenseWorkload>();
    return nullptr;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
