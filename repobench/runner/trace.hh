/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Every public library call the runner times goes through
 * Tracer::time(), which always returns the call's host seconds (the
 * untraced metric runs need them too) and, when tracing is on, also
 * records a span: name, start, end and the enclosing span. Runner
 * phases open a Tracer::Phase so that library calls nest under the
 * phase that issued them. Spans stay in memory until writeJson() at
 * the end of the run; nothing is written while the clock runs.
 *
 * An overhead probe (enabled, with setHalfRecording(true)) records one
 * call of each neighbouring pair, chosen pseudo-randomly, and sums the
 * time of both halves: the halves see the same simulated work and the
 * same host noise, so their per-call ratio is the cost of recording a
 * span.
 */

#ifndef REPOBENCH_TRACE_HH
#define REPOBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace repobench
{

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
        const char *name = "";
        double start = 0.0;
        double end = 0.0;
        /** Index of the enclosing span, -1 at top level. */
        int parent = -1;
    };

    /** Per-name totals: count, summed duration and summed self time
     *  (duration minus the time covered by direct child spans). */
    struct NameTotals
    {
        std::string name;
        std::uint64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };

    Tracer(bool enabled, std::uint64_t run_id);

    bool enabled() const { return enabled_; }
    std::uint64_t runId() const { return runId_; }
    std::size_t numSpans() const { return spans_.size(); }

    /** Time one call; record it as a span when tracing is on. */
    template <typename Fn>
    double time(const char *name, Fn &&fn)
    {
        const bool record = enabled_ && (!halfRecording_ || pickHalf());
        const int idx = record ? open(name) : -1;
        const Clock::time_point t0 = Clock::now();
        fn();
        const Clock::time_point t1 = Clock::now();
        close(idx, t0, t1);
        const double s = std::chrono::duration<double>(t1 - t0).count();
        if (halfRecording_)
            half_[record].add(s);
        return s;
    }

    void setHalfRecording(bool on) { halfRecording_ = on; }

    /** Overhead probe: recorded vs unrecorded time per call (%). */
    double overheadPct() const
    {
        return 100.0 * (half_[1].mean() / half_[0].mean() - 1.0);
    }

    /** RAII span around a runner phase (setup, a policy, a lane). */
    class Phase
    {
      public:
        Phase(Tracer &tracer, const char *name);
        ~Phase();
        Phase(const Phase &) = delete;
        Phase &operator=(const Phase &) = delete;

      private:
        Tracer &tracer_;
        int idx_;
        Clock::time_point t0_;
    };

    std::vector<NameTotals> totals() const;

    /** Write {"run": id, "spans": [...]} with times in seconds since
     *  the tracer was created. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::uint64_t runId_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;

    struct HalfSum
    {
        double seconds = 0.0;
        std::uint64_t calls = 0;
        void add(double s)
        {
            seconds += s;
            ++calls;
        }
        double mean() const { return calls ? seconds / double(calls) : 0.0; }
    };
    bool halfRecording_ = false;
    std::uint64_t picks_ = 0;
    bool pairBit_ = false;
    HalfSum half_[2];

    bool pickHalf();

    int open(const char *name);
    void close(int idx, Clock::time_point t0, Clock::time_point t1);
};

} // namespace repobench

#endif // REPOBENCH_TRACE_HH
