#include "spans.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

namespace bdio_bench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  span.start_s = WallNow();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  const double now = WallNow();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> SpanRecorder::Durations(const std::string& prefix) const {
  std::vector<double> out;
  for (const Span& s : spans()) {
    if (s.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(s.seconds());
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  const double origin = all.empty() ? 0 : all.front().start_s;
  // Small dense thread ids keep the viewer's track list readable.
  std::vector<uint64_t> threads;
  auto tid = [&threads](uint64_t t) {
    for (size_t i = 0; i < threads.size(); ++i) {
      if (threads[i] == t) return i;
    }
    threads.push_back(t);
    return threads.size() - 1;
  };
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                 s.name.c_str(), tid(s.thread), (s.start_s - origin) * 1e6,
                 s.seconds() * 1e6, i, s.parent,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bdio_bench
