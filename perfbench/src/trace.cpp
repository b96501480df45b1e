#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

uint32_t
threadTag()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t tag = next.fetch_add(1);
    return tag;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

void
Tracer::record(Record record)
{
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fputs("{\"traceEvents\":[\n", out);
    for (size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        const double ts =
            std::chrono::duration<double, std::micro>(r.start - epoch_)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(r.end - r.start)
                .count();
        std::fprintf(out,
                     "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"request\":%llu,\"span\":%llu,"
                     "\"parent\":%llu}}%s\n",
                     r.name.c_str(), ts, dur, r.thread,
                     static_cast<unsigned long long>(r.request),
                     static_cast<unsigned long long>(r.id),
                     static_cast<unsigned long long>(r.parent),
                     i + 1 < records_.size() ? "," : "");
    }
    std::fputs("]}\n", out);
    return std::fclose(out) == 0;
}

std::vector<Tracer::LayerTime>
Tracer::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<uint64_t, std::vector<const Record *>> children;
    for (const Record &r : records_)
        if (r.parent != 0)
            children[r.parent].push_back(&r);

    std::map<std::string, LayerTime> by_name;
    for (const Record &r : records_) {
        const double total = secondsBetween(r.start, r.end);
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        if (auto it = children.find(r.id); it != children.end())
            for (const Record *c : it->second)
                iv.emplace_back(std::max(c->start, r.start),
                                std::min(c->end, r.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = r.start;
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            if (b > a) {
                covered += secondsBetween(a, b);
                reach = b;
            }
        }
        LayerTime &lt = by_name[r.name];
        lt.name = r.name;
        lt.count += 1;
        lt.totalSeconds += total;
        lt.selfSeconds += std::max(0.0, total - covered);
    }
    std::vector<LayerTime> out;
    for (auto &[name, lt] : by_name)
        out.push_back(lt);
    return out;
}

Span::Span(Tracer *tracer, const char *name, uint64_t request,
           uint64_t parent)
    : tracer_(tracer), name_(name), request_(request), parent_(parent)
{
    if (!tracer_)
        return;
    id_ = tracer_->newSpanId();
    start_ = Clock::now();
    open_ = true;
}

void
Span::finish()
{
    if (!open_)
        return;
    open_ = false;
    Tracer::Record r;
    r.name = name_;
    r.id = id_;
    r.parent = parent_;
    r.request = request_;
    r.start = start_;
    r.end = Clock::now();
    r.thread = threadTag();
    tracer_->record(std::move(r));
}

} // namespace perfbench
