#include "spans.hh"

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

SpanLog &
SpanLog::get()
{
    static SpanLog log;
    return log;
}

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

int
SpanLog::begin(std::string name)
{
    if (!enabled_)
        return -1;
    Record r;
    r.name = std::move(name);
    r.parent = open_.empty() ? -1 : open_.back();
    r.start_s = now();
    records_.push_back(std::move(r));
    const int index = static_cast<int>(records_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanLog::end(int index)
{
    if (index < 0)
        return;
    if (open_.empty() || open_.back() != index)
        throw std::logic_error("SpanLog: spans closed out of order");
    records_[static_cast<std::size_t>(index)].end_s = now();
    open_.pop_back();
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Record &r : records_)
        if (r.name == name && r.end_s >= r.start_s)
            total += r.end_s - r.start_s;
    return total;
}

double
SpanLog::selfSeconds(const std::string &name) const
{
    double total = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.name != name || r.end_s < r.start_s)
            continue;
        double self = r.end_s - r.start_s;
        for (const Record &c : records_)
            if (c.parent == static_cast<int>(i) && c.end_s >= c.start_s)
                self -= c.end_s - c.start_s;
        total += self;
    }
    return total;
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("SpanLog: cannot write " + path);
    out.precision(17);
    out << "{\"traceEvents\":[";
    std::map<std::string, double> self_by_name;
    bool first = true;
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        if (r.end_s < r.start_s)
            continue;
        out << (first ? "" : ",") << "\n{\"name\":\"" << r.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << r.start_s * 1e6 << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
            << "}}";
        first = false;
        self_by_name.emplace(r.name, 0.0);
    }
    out << "\n],\"selfSeconds\":{";
    first = true;
    for (const auto &[name, unused] : self_by_name) {
        out << (first ? "" : ",") << "\n\"" << name
            << "\":" << selfSeconds(name);
        first = false;
    }
    out << "\n}}\n";
}

void
StageObserver::onStage(const mica::core::StageEvent &event)
{
    using Kind = mica::core::StageEvent::Kind;
    const auto index = static_cast<std::size_t>(event.stage);
    switch (event.kind) {
      case Kind::Begin:
        if (event.stage == mica::core::Stage::Characterize) {
            characterize_begin_ = std::chrono::steady_clock::now();
            const std::lock_guard<std::mutex> lock(mutex_);
            finishes_.clear();
        }
        span_[index] = SpanLog::get().begin(
            "core.stage." + std::string(mica::core::stageName(event.stage)));
        break;
      case Kind::Progress:
        if (event.stage == mica::core::Stage::Characterize) {
            const std::lock_guard<std::mutex> lock(mutex_);
            finishes_.push_back({std::this_thread::get_id(),
                                 std::chrono::steady_clock::now()});
        }
        break;
      case Kind::End:
        stage_s_[index] =
            std::chrono::duration<double>(event.elapsed).count();
        SpanLog::get().end(span_[index]);
        span_[index] = -1;
        break;
    }
}

std::vector<double>
StageObserver::benchmarkSeconds() const
{
    std::vector<double> seconds;
    std::map<std::thread::id, std::chrono::steady_clock::time_point> last;
    for (const Finish &f : finishes_) {
        auto [it, fresh] = last.try_emplace(f.thread, characterize_begin_);
        seconds.push_back(
            std::chrono::duration<double>(f.at - it->second).count());
        it->second = f.at;
    }
    return seconds;
}

} // namespace perfbench
