/**
 * @file
 * The three workloads (CATALOG.md says why each exists):
 *  - serve:  open loop, Poisson arrivals of single-guide requests at a
 *            low then a high offered rate, in rounds on fresh services;
 *  - screen: closed loop, one client repeating one large library job
 *            over a multi-chunk genome on every core;
 *  - dense:  closed loop of small ranked (top-K) requests over a
 *            genome thick with planted near-miss sites, in rounds on
 *            fresh services, each first one client alone, then two.
 * Every request goes through core::SearchService::submit() to the
 * resolved future, on the production config: engine=auto plus a
 * pattern-database directory created empty for each pass.
 */

#ifndef PERFBENCH_WORKLOADS_HPP_
#define PERFBENCH_WORKLOADS_HPP_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gate.hpp"
#include "inputs.hpp"
#include "trace.hpp"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for genome files, databases and traces. */
    std::string workDir;
    /** Self-test: corrupt one served hit; the gate must catch it. */
    bool corruptHit = false;
    unsigned nproc = 1;
};

/** One request as the load generator saw it. */
struct Outcome
{
    int phase = 0;       //!< 0 = light/low load, 1 = loaded/high
    int d = 0;           //!< mismatch budget
    double latency = 0;  //!< seconds, from due (open) or submit (closed)
    double service = 0;  //!< seconds from submit() to resolution
    double submit = 0;   //!< seconds inside submit()
    double lag = 0;      //!< open loop: seconds the send ran late
    bool ok = false;     //!< served, and correct
    size_t hits = 0;
    // Counters the library returned in SearchResult::run.
    double compileSeconds = 0;
    double scanSeconds = 0;
    double scanBytes = 0;
    double batchRequests = 1;
    double batchGuides = 1;
    double coalesced = 0;
    double compiles = 0;
    double dbHits = 0;
    double dbMisses = 0;
    double dbStoreFailures = 0;
    double fallbacks = 0;
    double simdTier = -1;
    std::string autoChoice;
};

/** What one pass (set-up + measured phases) of a workload produced. */
struct PassResult
{
    std::vector<Outcome> outcomes;
    std::vector<double> setupSeconds;     //!< one per set-up repetition
    std::vector<double> storeLoadSeconds; //!< GenomeStore::load, per rep
    double phaseSeconds[2] = {0, 0};      //!< measured phase lengths
    /**
     * Library counters: service, store, breakers, at the end of each
     * measurement round, one map per round's service.
     */
    std::vector<std::map<std::string, double>> serviceMetrics;
    /** Executor counters accrued during the measured phases. */
    std::map<std::string, double> executorDelta;
    size_t attempted = 0;
    size_t failed = 0;
};

/** The end-to-end metrics, as BENCHMARK.json names them. */
struct EndToEnd
{
    double setup_s = 0;
    double peak_rss_mb = 0;
    double p50_ms = 0;
    double tail_ms = 0;
    double tail_level = 0; //!< which quantile tail_ms is
    size_t tail_samples = 0;
    double light_p50_ms = 0;
    double goodput_rps = 0;
    /** The workload's own figures under their descriptive names. */
    std::map<std::string, double> named;
};

/** A guide set the layer replay runs through every public layer call. */
struct ReplayCase
{
    std::vector<core::Guide> guides;
    int d = 3;
    size_t topK = 0;
    /** Only build, rank and compile: probes the DFA compile cliff. */
    bool cliffProbe = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Generate inputs and write the genome file (untimed). */
    virtual void prepare(const RunOptions &options, Gate &gate) = 0;

    /**
     * One pass: set up fifteen times (GenomeStore load + SearchService
     * construction with its database preload + the first served
     * request, each on a fresh store and an empty database directory),
     * then run the measured phases in rounds(): the first on the last
     * set-up's service, each later one on a fresh store and service
     * over the same database directory (untimed).
     */
    PassResult run(const RunOptions &options, const std::string &db_root,
                   Tracer *tracer, Gate &gate);

    /** End-to-end metrics of a pass. */
    virtual EndToEnd summarise(const PassResult &pass,
                               const RunOptions &options) const = 0;

    /** Guide sets shaped like the pass's merged batches. */
    virtual std::vector<ReplayCase>
    replayCases(const PassResult &pass, uint64_t seed) const = 0;

    const genome::Sequence &genome() const { return lib_.genome; }

  protected:
    /** Build the library and write it as a packed .2bit file. */
    void writeLibrary(const LibrarySpec &spec, const RunOptions &options);

    /** The request every workload sends: engine=auto, NRG, both strands. */
    core::RequestOptions requestOptions(int d) const;

    /**
     * Serve the first request, the last step set-up times: the
     * workload's request cut to one guide, so set-up pays executor
     * start, the genome resolution and a first compile but not a
     * full job's scan (which the measured phases time).
     */
    virtual void firstRequest(core::SearchService &service,
                              const RunOptions &options) = 0;

    /**
     * How many rounds the measured time is split into. A fresh store
     * and service land the genome and the service's state at other
     * addresses, and a workload whose latency follows that placement
     * pools several placements into each run.
     */
    virtual int rounds() const { return 1; }

    /** The measured phases of one round, for options.seconds. */
    virtual void measure(core::SearchService &service,
                         const RunOptions &options, Tracer *tracer,
                         Gate &gate, PassResult &pass) = 0;

    /** Record the library's run counters into an outcome. */
    static void readRun(const core::SearchResult &result, Outcome &out);

    /** Corrupt one hit once per pass when the self-test asks for it. */
    void maybeCorrupt(const RunOptions &options, core::SearchResult &r);

    Library lib_;
    std::string genomePath_;
    bool corrupted_ = false;
};

/** The workload named `name`, or nullptr. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Peak resident set of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP_
