// In-memory spans for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer's public functions: name, start, end, parent span and the id of the
// BA instance (its seed offset). They stay in memory until the run ends and
// are then written out as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev). A span's self time is its duration minus the time its
// children cover; children of one span run one after another, so that is
// the duration minus the children's summed durations.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root span
  std::uint64_t instance = 0;
  bool open = true;
};

class Tracer {
 public:
  /// Start a span now; returns its id.
  int open(std::string name, int parent, std::uint64_t instance);
  /// End span `id` now.
  void close(int id);
  /// Record an already finished span.
  int record(std::string name, int parent, std::uint64_t instance,
             Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  double seconds(int id) const;
  double self_seconds(int id) const;

  /// Well-formedness problems, empty when none: spans left open, ends
  /// before starts, children outside their parent, children of one parent
  /// overlapping, negative self time.
  std::vector<std::string> problems() const;

  void write_chrome(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<double> child_seconds_;  ///< [span] summed child durations
};

/// RAII form of open/close.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent,
             std::uint64_t instance)
      : tracer_(tracer),
        id_(tracer.open(std::move(name), parent, instance)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
