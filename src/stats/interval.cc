#include "stats/interval.hh"

#include "util/logging.hh"

namespace ebcp
{

IntervalSampler::IntervalSampler(const StatGroup &root,
                                 std::uint64_t interval)
    : interval_(interval)
{
    fatal_if(interval == 0, "interval sampler with a zero interval");
    collect(root, root.name());
    prevSum_.assign(probes_.size(), 0.0);
    prevCount_.assign(probes_.size(), 0.0);
}

void
IntervalSampler::collect(const StatGroup &g, const std::string &prefix)
{
    for (const StatBase *s : g.stats()) {
        const auto *avg = dynamic_cast<const Average *>(s);
        if (!avg && !dynamic_cast<const Scalar *>(s))
            continue; // Distributions are too wide for a time series.
        paths_.push_back(prefix + "." + s->name());
        probes_.push_back({s, avg != nullptr});
    }
    for (const StatGroup *c : g.children())
        collect(*c, prefix + "." + c->name());
}

void
IntervalSampler::read(std::vector<double> &sum,
                      std::vector<double> &count) const
{
    sum.resize(probes_.size());
    count.resize(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        if (probes_[i].isAverage) {
            const auto *a = static_cast<const Average *>(probes_[i].stat);
            count[i] = static_cast<double>(a->count());
            sum[i] = a->mean() * count[i];
        } else {
            const auto *s = static_cast<const Scalar *>(probes_[i].stat);
            sum[i] = static_cast<double>(s->value());
            count[i] = 1.0;
        }
    }
}

void
IntervalSampler::sample(std::uint64_t insts)
{
    std::vector<double> sum, count;
    read(sum, count);

    Snapshot snap;
    snap.insts = insts;
    snap.values.resize(probes_.size());
    for (std::size_t i = 0; i < probes_.size(); ++i) {
        if (probes_[i].isAverage) {
            const double dc = count[i] - prevCount_[i];
            snap.values[i] = dc ? (sum[i] - prevSum_[i]) / dc : 0.0;
        } else {
            snap.values[i] = sum[i] - prevSum_[i];
        }
    }
    prevSum_ = std::move(sum);
    prevCount_ = std::move(count);
    snaps_.push_back(std::move(snap));
}

void
IntervalSampler::clear()
{
    snaps_.clear();
    prevSum_.assign(probes_.size(), 0.0);
    prevCount_.assign(probes_.size(), 0.0);
}

void
IntervalSampler::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.kv("interval", interval_);
    w.kv("mode", "delta");
    w.key("paths").beginArray();
    for (const std::string &p : paths_)
        w.value(p);
    w.endArray();
    w.key("samples").beginArray();
    for (const Snapshot &s : snaps_) {
        w.beginObject();
        w.kv("insts", s.insts);
        w.key("values").beginArray();
        for (double v : s.values)
            w.value(v);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace ebcp
