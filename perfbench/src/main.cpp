/**
 * @file
 * crispr_perfbench: one run of one workload.
 *
 *   crispr_perfbench --workload serve|screen|dense --seed N
 *                    --seconds S --trace 0|1 [--work-dir DIR]
 *                    [--corrupt-hit]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. --trace 1
 * measures the same pass untraced and then traced, replays the layers,
 * writes the spans as chrome-trace JSON into the work directory and
 * reports the per-layer metrics plus the tracing overhead. The last
 * line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * A wrong served result makes the run exit 1; a run that cannot
 * measure (bad arguments, missing inputs, an invalid open loop) exits
 * 2 without printing a result.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "layers.hpp"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
        regs[0] >= 0x80000004) {
        char brand[49] = {};
        for (unsigned int leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002 + leaf, &regs[leaf * 4],
                        &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                        &regs[leaf * 4 + 3]);
        std::memcpy(brand, regs, sizeof(regs));
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        return s;
    }
#endif
    return "unknown";
}

/** JSON string escaping for the few free-text fields we print. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
printHost(const RunOptions &options)
{
    const char *env_simd = std::getenv("CRISPR_SIMD");
    std::printf(
        "host {\"nproc\": %u, \"simd_tier\": %s, \"cpu_model\": %s, "
        "\"build_type\": %s, \"crispr_metrics\": %s, \"crispr_simd_env\": "
        "%s, \"workload\": %s, \"seed\": %llu, \"seconds\": %g}\n",
        options.nproc,
        quoted(hscan::simdTierName(hscan::resolveSimdTier())).c_str(),
        quoted(cpuModel()).c_str(), quoted(PERFBENCH_BUILD_TYPE).c_str(),
        PERFBENCH_METRICS ? "\"ON\"" : "\"OFF\"",
        quoted(env_simd ? env_simd : "").c_str(),
        quoted(options.workload).c_str(),
        static_cast<unsigned long long>(options.seed), options.seconds);
}

MetricMap
endToEndMetrics(const EndToEnd &e)
{
    MetricMap m;
    m["setup_s"] = {e.setup_s, "s"};
    m["peak_rss_mb"] = {e.peak_rss_mb, "MB"};
    m["p50_ms"] = {e.p50_ms, "ms"};
    m["tail_ms"] = {e.tail_ms, "ms"};
    m["light_p50_ms"] = {e.light_p50_ms, "ms"};
    m["goodput_rps"] = {e.goodput_rps, "1/s"};
    return m;
}

void
printEndToEnd(const char *title, const EndToEnd &e, const PassResult &pass)
{
    std::printf("%s\n", title);
    std::printf("  %zu attempted, %zu failed (failed_share %.4f)\n",
                pass.attempted, pass.failed,
                pass.attempted ? static_cast<double>(pass.failed) /
                                     static_cast<double>(pass.attempted)
                               : 0.0);
    for (const auto &[name, metric] : endToEndMetrics(e))
        std::printf("  %-28s %14.4f %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    std::printf("  (tail_ms is the p%.2f of %zu samples)\n",
                e.tail_level * 100.0, e.tail_samples);
    for (const auto &[name, value] : e.named)
        std::printf("  %-28s %14.4f\n", name.c_str(), value);
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
printResult(bool correct, size_t attempted, size_t failed,
            const MetricMap &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        out += first ? "" : ", ";
        first = false;
        out += quoted(name) + ": {\"value\": " + number(metric.value) +
               ", \"unit\": " + quoted(metric.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "crispr_perfbench: %s\nusage: crispr_perfbench --workload "
                 "serve|screen|dense --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--corrupt-hit]\n",
                 why);
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    o.workDir = ".bench_build/work";
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                o.workload = value();
                have_workload = true;
            } else if (arg == "--seed") {
                o.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                o.seconds = std::stod(value());
            } else if (arg == "--trace") {
                o.trace = std::stoi(value()) != 0;
            } else if (arg == "--work-dir") {
                o.workDir = value();
            } else if (arg == "--corrupt-hit") {
                o.corruptHit = true;
            } else {
                usage(("unknown argument " + arg).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0) || o.seconds > 600.0)
        usage("--seconds must be in (0, 600]");
    o.nproc = std::max(1u, std::thread::hardware_concurrency());
    return o;
}

int
runBenchmark(RunOptions options)
{
    std::unique_ptr<Workload> workload = makeWorkload(options.workload);
    if (!workload)
        usage(("unknown workload " + options.workload).c_str());

    // Everything this run writes lives under one directory of its own,
    // removed at the end; only the trace file outlives the run.
    const std::string run_dir =
        (fs::path(options.workDir) /
         (options.workload + "-" + std::to_string(options.seed) + "-" +
          std::to_string(::getpid())))
            .string();
    fs::remove_all(run_dir);
    fs::create_directories(run_dir);
    struct Cleanup
    {
        std::string dir;
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{run_dir};
    const std::string work_dir = options.workDir;
    options.workDir = run_dir;

    printHost(options);
    std::fflush(stdout);
    Gate gate;
    workload->prepare(options, gate);

    PassResult pass = workload->run(
        options, (fs::path(run_dir) / "untraced").string(), nullptr, gate);
    EndToEnd e2e = workload->summarise(pass, options);
    e2e.peak_rss_mb = peakRssMb();
    printEndToEnd("end-to-end (tracing off)", e2e, pass);

    size_t attempted = pass.attempted;
    size_t failed = pass.failed;
    MetricMap result = endToEndMetrics(e2e);

    if (options.trace) {
        Tracer tracer;
        PassResult traced = workload->run(
            options, (fs::path(run_dir) / "traced").string(), &tracer,
            gate);
        EndToEnd traced_e2e = workload->summarise(traced, options);
        traced_e2e.peak_rss_mb = peakRssMb();
        printEndToEnd("end-to-end (tracing on)", traced_e2e, traced);
        attempted += traced.attempted;
        failed += traced.failed;

        result = layerMetrics(*workload, traced, options, tracer,
                              (fs::path(run_dir) / "replay").string());
        const MetricMap off = endToEndMetrics(e2e);
        for (const auto &[name, metric] : endToEndMetrics(traced_e2e)) {
            if (name == "peak_rss_mb")
                continue; // one process: the traced pass inherits the peak
            result["trace_overhead." + name] = {
                metric.value - off.at(name).value, metric.unit};
        }

        const std::string trace_path =
            (fs::path(work_dir) / ("trace-" + options.workload + "-" +
                                   std::to_string(options.seed) + ".json"))
                .string();
        if (!tracer.writeChromeJson(trace_path))
            throw std::runtime_error("cannot write " + trace_path);
        std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(),
                    tracer.spanCount());
        std::printf("layer self time (traced pass + layer replay)\n");
        std::printf("  %-30s %8s %12s %12s\n", "span", "count", "total_s",
                    "self_s");
        for (const Tracer::LayerTime &lt : tracer.layerTimes())
            std::printf("  %-30s %8zu %12.6f %12.6f\n", lt.name.c_str(),
                        lt.count, lt.totalSeconds, lt.selfSeconds);
        std::printf("per-layer metrics\n");
        for (const auto &[name, metric] : result)
            std::printf("  %-36s %16.6g %s\n", name.c_str(), metric.value,
                        metric.unit.c_str());
    }

    const bool correct = gate.failures() == 0;
    if (!correct) {
        std::printf("correctness gate: %zu failure(s)\n", gate.failures());
        for (const std::string &msg : gate.messages())
            std::printf("  %s\n", msg.c_str());
    }
    printResult(correct, attempted, failed, result);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options = parseArgs(argc, argv);
    try {
        const int code = runBenchmark(options);
        std::fflush(stdout);
        return code;
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "crispr_perfbench: %s\n", e.what());
        return 2;
    }
}
