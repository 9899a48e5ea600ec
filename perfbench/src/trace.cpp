#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <utility>

namespace pb {

namespace {

thread_local std::vector<std::uint32_t> open_spans;

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/// Milliseconds covered by the union of `v`, each clipped to [lo, hi].
double covered_ms(std::vector<Interval> v, Clock::time_point lo, Clock::time_point hi) {
  std::sort(v.begin(), v.end());
  double total = 0;
  Clock::time_point cur_start{}, cur_end{};
  bool open = false;
  for (auto [s, e] : v) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += ms_between(cur_start, cur_end);
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += ms_between(cur_start, cur_end);
  return total;
}

/// Nanoseconds one recorded span costs, measured once per process.
double span_cost_ns() {
  static const double cost = [] {
    Tracer probe;
    probe.enable(true);
    constexpr int kSpans = 20000;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      const Clock::time_point s = Clock::now();
      probe.record("probe", s, Clock::now(), probe.next_id(), 0);
    }
    return ms_since(t0) * 1e6 / kSpans;
  }();
  return cost;
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

std::uint32_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t id = ++next_id_;
  spans_.push_back({name, start, end, id, parent, request});
  return id;
}

std::vector<LayerTotals> Tracer::aggregate_(std::vector<std::string>* names) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint32_t, std::vector<Interval>> children;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, LayerTotals> by_name;
  for (const SpanRecord& s : spans_) {
    LayerTotals& t = by_name[s.name];
    const double dur = ms_between(s.start, s.end);
    ++t.calls;
    t.total_ms += dur;
    const auto it = children.find(s.id);
    t.self_ms += dur - (it == children.end() ? 0 : covered_ms(it->second, s.start, s.end));
  }
  std::vector<LayerTotals> out;
  for (const auto& [name, t] : by_name) {
    names->push_back(name);
    out.push_back(t);
  }
  return out;
}

LayerTotals Tracer::totals(const std::string& name) const {
  std::vector<std::string> names;
  const std::vector<LayerTotals> rows = aggregate_(&names);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return rows[i];
  }
  return {};
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

double Tracer::unattributed_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Interval> roots;
  for (const SpanRecord& s : spans_) {
    if (s.parent == 0) roots.emplace_back(s.start, s.end);
  }
  return phase_ms() - covered_ms(std::move(roots), phase_start_, phase_end_);
}

double Tracer::overhead_pct() const {
  if (!enabled_ || phase_ms() <= 0) return 0;
  std::size_t in_phase = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      if (s.start >= phase_start_ && s.end <= phase_end_) ++in_phase;
    }
  }
  return 100.0 * static_cast<double>(in_phase) * span_cost_ns() * 1e-6 / phase_ms();
}

void Tracer::print_table() const {
  std::vector<std::string> names;
  const std::vector<LayerTotals> rows = aggregate_(&names);
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "layer span", "calls", "total ms", "self ms");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(stderr, "%-28s %8llu %12.3f %12.3f\n", names[i].c_str(),
                 static_cast<unsigned long long>(rows[i].calls), rows[i].total_ms,
                 rows[i].self_ms);
  }
  std::fprintf(stderr, "%-28s %8s %12.3f %12.3f   (of %.3f ms measured)\n",
               "unattributed", "-", unattributed_ms(), unattributed_ms(), phase_ms());
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point base = spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (const SpanRecord& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ms\": "
        << json_number(ms_between(base, s.start)) << ", \"end_ms\": "
        << json_number(ms_between(base, s.end)) << ", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request << "}\n";
  }
}

Span::Span(const char* name, std::uint64_t request) : name_(name), request_(request) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  parent_ = open_spans.empty() ? 0 : open_spans.back();
  id_ = t.next_id();
  open_spans.push_back(id_);
  start_ = Clock::now();
}

Span::~Span() {
  if (id_ == 0) return;
  const Clock::time_point end = Clock::now();
  open_spans.pop_back();
  Tracer& t = tracer();
  // Record under the id children already point at.
  const std::lock_guard<std::mutex> lock(t.mu_);
  t.spans_.push_back({name_, start_, end, id_, parent_, request_});
}

}  // namespace pb
