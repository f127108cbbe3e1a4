#ifndef BDIO_BENCH_SPANS_H_
#define BDIO_BENCH_SPANS_H_

// Host-time spans recorded by the benchmark around its calls into bdio's
// modules. Spans live in memory until the traced pass ends, then go out as
// one Chrome-trace JSON file (chrome://tracing, ui.perfetto.dev).

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bdio_bench {

/// Host seconds on the monotonic clock.
double WallNow();

struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 for a root.
  uint64_t thread = 0;

  double seconds() const { return end_s - start_s; }
};

/// Thread-safe span store. A null recorder means "untraced": ScopedSpan
/// then does nothing, so the timed code paths are the same either way.
class SpanRecorder {
 public:
  int Begin(const std::string& name, int parent);
  void End(int id);

  std::vector<Span> spans() const;
  /// Durations of the spans whose name starts with `prefix`, in order.
  std::vector<double> Durations(const std::string& prefix) const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace bdio_bench

#endif  // BDIO_BENCH_SPANS_H_
