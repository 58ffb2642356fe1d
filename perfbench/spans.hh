/**
 * @file
 * In-memory span recorder for the end-to-end benchmark.
 *
 * A span brackets one public call the benchmark makes into the
 * simulator (System construction, fastForward, run, DistRunner::run,
 * the snapshot and wire codecs, ...). Spans nest through an explicit
 * stack, so each records the span that caused it. Nothing is written
 * until the benchmark ends: writeChromeTrace() emits Chrome
 * trace-event JSON (chrome://tracing or ui.perfetto.dev open it
 * locally), and selfSeconds() folds the spans into per-name self
 * time — a span's duration minus the part of it its children cover.
 *
 * Disabled, every Scope is a single branch: the untimed and timed
 * runs construct the same Scopes, so tracing changes nothing but
 * whether the clock is read and a span is stored.
 */

#ifndef TOKENSIM_PERFBENCH_SPANS_HH
#define TOKENSIM_PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;   ///< seconds since the tracer's epoch
        double end = 0;
        int parent = -1;    ///< index of the causing span; -1 = root
        int lane = 0;       ///< display row (shards of a sweep fan out)
    };

    explicit Tracer(std::string workload) : workload_(std::move(workload))
    {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch_)
            .count();
    }

    /** Innermost open span (-1 when none is open or tracing is off). */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Record a span whose times were taken elsewhere (a sweep's
     *  shards, derived from DistRunner progress timestamps). */
    void
    add(std::string name, double start, double end, int parent, int lane)
    {
        if (enabled_)
            spans_.push_back({std::move(name), start, end, parent, lane});
    }

    /** RAII span around one call; a no-op while tracing is off. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name) : t_(t)
        {
            if (!t_.enabled_)
                return;
            idx_ = static_cast<int>(t_.spans_.size());
            t_.spans_.push_back({name, t_.now(), 0, t_.current(), 0});
            t_.stack_.push_back(idx_);
        }
        ~Scope()
        {
            if (idx_ < 0)
                return;
            t_.spans_[idx_].end = t_.now();
            t_.stack_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int id() const { return idx_; }

      private:
        Tracer &t_;
        int idx_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Self seconds per span name, summed over every span. */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                kids[s.parent].push_back({s.start, s.end});
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            // Children may overlap (a sweep's shards run side by
            // side): subtract the union of their intervals.
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            double covered = 0, lo = 0, hi = 0;
            bool open = false;
            for (auto [a, b] : iv) {
                a = std::max(a, s.start);
                b = std::min(b, s.end);
                if (b <= a)
                    continue;
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                    continue;
                }
                if (open)
                    covered += hi - lo;
                lo = a;
                hi = b;
                open = true;
            }
            if (open)
                covered += hi - lo;
            out[s.name] += std::max(0.0, (s.end - s.start) - covered);
        }
        return out;
    }

    /** Write every span as Chrome trace-event JSON ("X" events, one
     *  per span; args carry the span id, parent, and workload). */
    bool
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"perfbench\","
                         "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                         "\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                         "\"parent\":%d,\"workload\":\"%s\"}}\n",
                         i ? "," : "", s.name.c_str(), s.start * 1e6,
                         (s.end - s.start) * 1e6, s.lane, i, s.parent,
                         workload_.c_str());
        }
        std::fprintf(f, "],\"displayTimeUnit\":\"ms\"}\n");
        return std::fclose(f) == 0;
    }

  private:
    std::string workload_;
    bool enabled_ = false;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace perfbench

#endif // TOKENSIM_PERFBENCH_SPANS_HH
