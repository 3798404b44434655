#include "trace.h"

#include <ostream>

#include "sim/report.h"

namespace perfbench {

int Tracer::open(std::string name, int parent, std::uint64_t instance) {
  const Clock::time_point now = Clock::now();
  spans_.push_back(Span{std::move(name), now, now, parent, instance, true});
  child_seconds_.push_back(0.0);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = Clock::now();
  s.open = false;
  if (s.parent >= 0)
    child_seconds_[static_cast<std::size_t>(s.parent)] += secs(s.end - s.start);
}

int Tracer::record(std::string name, int parent, std::uint64_t instance,
                   Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{std::move(name), start, end, parent, instance, false});
  child_seconds_.push_back(0.0);
  if (parent >= 0)
    child_seconds_[static_cast<std::size_t>(parent)] += secs(end - start);
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::seconds(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return secs(s.end - s.start);
}

double Tracer::self_seconds(int id) const {
  return seconds(id) - child_seconds_[static_cast<std::size_t>(id)];
}

std::vector<std::string> Tracer::problems() const {
  std::vector<std::string> out;
  std::vector<Clock::time_point> last_child_end(spans_.size());
  std::vector<bool> has_child(spans_.size(), false);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string who = s.name + " #" + std::to_string(i);
    if (s.open) out.push_back(who + " was never closed");
    if (s.end < s.start) out.push_back(who + " ends before it starts");
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= i) {
      out.push_back(who + " has a parent recorded after it");
      continue;
    }
    if (s.start < spans_[p].start || s.end > spans_[p].end)
      out.push_back(who + " lies outside its parent " + spans_[p].name);
    if (has_child[p] && s.start < last_child_end[p])
      out.push_back(who + " overlaps an earlier sibling");
    has_child[p] = true;
    last_child_end[p] = s.end;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (self_seconds(static_cast<int>(i)) < 0.0)
      out.push_back(spans_[i].name + " #" + std::to_string(i) +
                    " has negative self time");
  return out;
}

void Tracer::write_chrome(std::ostream& os) const {
  const Clock::time_point epoch =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [](Clock::duration d) {
    return ba::sim::json_double(
        std::chrono::duration<double, std::micro>(d).count());
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << us(s.start - epoch)
       << ",\"dur\":" << us(s.end - s.start) << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"instance\":" << s.instance
       << ",\"self_us\":"
       << ba::sim::json_double(self_seconds(static_cast<int>(i)) * 1e6)
       << "}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
