// In-memory spans for the traced run and their Chrome trace export.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "perfbench.h"
#include "serve/json.h"

namespace perfbench {

namespace {

/// Innermost open Scope span of this thread (-1 at top level).
thread_local int t_parent = -1;

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer& t, std::string name, long request_id)
    : t_(t), id_(t.open(std::move(name), request_id)), saved_parent_(t_parent) {
    t_parent = id_;
}

Tracer::Scope::~Scope() {
    t_.close(id_);
    t_parent = saved_parent_;
}

int Tracer::open(std::string name, long request_id) {
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start = Clock::now();
    s.parent = t_parent;
    s.request_id = request_id;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = now;
}

void Tracer::add(std::string name, Clock::time_point start, Clock::time_point end, int parent,
                 long request_id, int tid) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, request_id, tid});
}

std::vector<Tracer::Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
    const std::vector<Span> all = spans();
    std::vector<std::vector<int>> children(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].parent >= 0) children[static_cast<std::size_t>(all[i].parent)].push_back(int(i));

    std::vector<double> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].name != name) continue;
        // Union of the child intervals, clipped to this span.
        std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
        for (int c : children[i]) {
            const Span& ch = all[static_cast<std::size_t>(c)];
            iv.emplace_back(std::max(ch.start, all[i].start), std::min(ch.end, all[i].end));
        }
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = all[i].start;
        for (const auto& [b, e] : iv) {
            const Clock::time_point from = std::max(b, reach);
            if (e > from) covered += seconds_between(from, e);
            reach = std::max(reach, e);
        }
        out.push_back(seconds_between(all[i].start, all[i].end) - covered);
    }
    return out;
}

bool Tracer::write_chrome_json(const std::string& path, const std::string& metadata_json) const {
    const std::vector<Span> all = spans();
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"metadata\": " << metadata_json << ",\n\"traceEvents\": [\n";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f", s.tid,
                      1e6 * seconds_between(origin_, s.start),
                      1e6 * seconds_between(s.start, s.end));
        f << (i ? ",\n" : "") << "{\"name\": " << serve::json_quote(s.name) << ", " << buf
          << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
          << ", \"request_id\": " << s.request_id << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
}

}  // namespace perfbench
