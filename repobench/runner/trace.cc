#include "trace.hh"

#include <cstdio>
#include <map>

namespace repobench
{

Tracer::Tracer(bool enabled, std::uint64_t run_id)
    : enabled_(enabled), runId_(run_id), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

bool
Tracer::pickHalf()
{
    // Calls pair up with their neighbour and a splitmix64 bit of the
    // pair index decides which of the two is recorded: neighbours cost
    // about the same, and no fleet cadence (governor, audit) can alias
    // with the choice.
    const std::uint64_t call = picks_++;
    if (call % 2 == 1)
        return !pairBit_;
    std::uint64_t z = (call / 2 + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    pairBit_ = ((z ^ (z >> 31)) & 1) != 0;
    return pairBit_;
}

int
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    const int idx = int(spans_.size()) - 1;
    open_.push_back(idx);
    return idx;
}

void
Tracer::close(int idx, Clock::time_point t0, Clock::time_point t1)
{
    if (idx < 0)
        return;
    spans_[idx].start = std::chrono::duration<double>(t0 - origin_).count();
    spans_[idx].end = std::chrono::duration<double>(t1 - origin_).count();
    open_.pop_back();
}

Tracer::Phase::Phase(Tracer &tracer, const char *name)
    : tracer_(tracer), idx_(tracer.open(name)), t0_(Clock::now())
{
}

Tracer::Phase::~Phase() { tracer_.close(idx_, t0_, Clock::now()); }

std::vector<Tracer::NameTotals>
Tracer::totals() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;

    std::map<std::string, NameTotals> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        NameTotals &t = by_name[spans_[i].name];
        t.name = spans_[i].name;
        const double dur = spans_[i].end - spans_[i].start;
        ++t.count;
        t.total += dur;
        t.self += dur - child[i];
    }
    std::vector<NameTotals> out;
    for (auto &kv : by_name)
        out.push_back(kv.second);
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"run\": %llu, \"spans\": [",
                 (unsigned long long)runId_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                     "\"end\": %.9f, \"parent\": %d}",
                     i ? "," : "", i, s.name, s.start, s.end, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace repobench
