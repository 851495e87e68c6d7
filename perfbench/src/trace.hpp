/**
 * @file
 * In-memory span recorder for traced runs. Each span has a name, a start
 * and an end (host nanoseconds since the log was created), its parent
 * span and the operation it belongs to. Spans are written out as JSON
 * when the run ends; an untraced run records nothing.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1; //!< index into spans(), -1 = root
        int op = -1;     //!< operation index within the round, -1 = none
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int
    open(std::string name, int parent, int op)
    {
        if (!enabled_)
            return -1;
        spans_.push_back(Span{std::move(name), nowNs(), 0, parent, op});
        return int(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id >= 0)
            spans_[std::size_t(id)].endNs = nowNs();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as one JSON document; false if unwritable. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"spans\":[");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"parent\":%d,\"op\":%d}",
                         i ? "," : "", i, s.name.c_str(),
                         static_cast<long long>(s.startNs),
                         static_cast<long long>(s.endNs), s.parent, s.op);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, int parent, int op)
        : log_(log), id_(log.open(std::move(name), parent, op))
    {
    }
    ~ScopedSpan() { log_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
