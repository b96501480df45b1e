/**
 * @file
 * The benchmark's own span recorder. Spans are taken from outside the
 * library, around calls into each layer's public functions, so the
 * library itself carries no benchmark instrumentation. Spans live in
 * memory until the run ends, then are written as chrome-trace JSON
 * (chrome://tracing, Perfetto) and folded into per-layer self times.
 * Every span of one request carries that request's id.
 */

#ifndef PERFBENCH_TRACE_HPP_
#define PERFBENCH_TRACE_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

class Tracer
{
  public:
    struct Record
    {
        std::string name;
        uint64_t id = 0;
        uint64_t parent = 0; //!< 0 = a root span
        uint64_t request = 0;
        Clock::time_point start;
        Clock::time_point end;
        uint32_t thread = 0;
    };

    /** Per span name: how often, how long in total, and self time. */
    struct LayerTime
    {
        std::string name;
        size_t count = 0;
        double totalSeconds = 0.0;
        double selfSeconds = 0.0;
    };

    Tracer();

    uint64_t newRequestId() { return nextRequest_.fetch_add(1); }
    /** Reserve a span id before the span ends (children name it). */
    uint64_t newSpanId() { return nextSpan_.fetch_add(1); }

    void record(Record record);

    /** Write every span as chrome-trace JSON; false on I/O failure. */
    bool writeChromeJson(const std::string &path) const;

    /**
     * Self time per span name: each span's duration minus the part of
     * it that its child spans cover.
     */
    std::vector<LayerTime> layerTimes() const;

    size_t spanCount() const;

  private:
    const Clock::time_point epoch_;
    std::atomic<uint64_t> nextRequest_{1};
    std::atomic<uint64_t> nextSpan_{1};
    mutable std::mutex mutex_;
    std::vector<Record> records_;
};

/**
 * RAII span; a null tracer makes it free, so the untraced runs share
 * the traced runs' code path.
 */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, uint64_t request,
         uint64_t parent = 0);
    ~Span() { finish(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }
    /** Close the span now (idempotent). */
    void finish();

  private:
    Tracer *tracer_;
    const char *name_;
    uint64_t request_;
    uint64_t parent_;
    uint64_t id_ = 0;
    Clock::time_point start_;
    bool open_ = false;
};

/** A small stable number for the calling thread (trace "tid"). */
uint32_t threadTag();

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP_
