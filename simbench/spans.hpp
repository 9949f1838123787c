// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around its calls into the
// simulator's public API (grid > job > emit/nocheck, merge, query, ...); no
// span lives inside src/. Spans stay in memory while the workload runs and
// are written out once at the end as Chrome trace_event JSON, so recording
// costs one clock read and one locked vector append per span.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int id = 0;
    int parent = -1;  ///< -1: a root span
    unsigned thread = 0;
    double start = 0.0;  ///< seconds since the recorder was built
    double end = 0.0;
  };

  /// Self time of every span with one name: its duration minus the part of
  /// it that its child spans cover (children on other threads included).
  struct SelfTime {
    double seconds = 0.0;
    std::size_t count = 0;
  };

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }
  int newId() { return nextId_.fetch_add(1, std::memory_order_relaxed); }
  void add(const Span& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  std::map<std::string, SelfTime> selfTimes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::map<int, std::vector<std::pair<double, double>>> children;
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
    }
    std::map<std::string, SelfTime> out;
    for (const Span& s : spans_) {
      double covered = 0.0;
      if (auto it = children.find(s.id); it != children.end()) {
        auto iv = it->second;
        std::sort(iv.begin(), iv.end());
        double from = s.start;  // union of child intervals, clipped to s
        for (const auto& [a, b] : iv) {
          const double lo = std::max(a, from);
          const double hi = std::min(b, s.end);
          if (hi > lo) {
            covered += hi - lo;
            from = hi;
          }
        }
      }
      SelfTime& t = out[s.name];
      t.seconds += (s.end - s.start) - covered;
      ++t.count;
    }
    return out;
  }

  /// Write every span as a Chrome trace_event "X" event (microseconds).
  bool writeChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name, s.thread, s.start * 1e6,
                   (s.end - s.start) * 1e6, s.id, s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  const Clock::time_point origin_ = Clock::now();
  std::atomic<int> nextId_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Small stable per-thread number for the trace's "tid" field.
inline unsigned spanThreadId() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Records one span from construction to destruction; a null recorder makes
/// it a no-op, which is how the untimed-overhead (untraced) passes run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, int parent = -1) : rec_(rec) {
    if (rec_ == nullptr) return;
    span_.name = name;
    span_.id = rec_->newId();
    span_.parent = parent;
    span_.thread = spanThreadId();
    span_.start = rec_->now();
  }
  ~ScopedSpan() {
    if (rec_ == nullptr) return;
    span_.end = rec_->now();
    rec_->add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return rec_ == nullptr ? -1 : span_.id; }

 private:
  SpanRecorder* rec_;
  SpanRecorder::Span span_;
};

}  // namespace simbench
