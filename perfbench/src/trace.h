// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id), recorded by the
// benchmark around each call it makes into a layer of the library. Spans
// stay in memory while the workload runs and are written out once at
// exit. A layer's self time is its span's duration minus the part of that
// interval its child spans cover.
//
// Recording happens on the benchmark's own thread only (the main thread
// and the load generator are the same thread), so the recorder takes no
// locks. A disabled tracer records nothing and every call is a no-op.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the epoch is arbitrary but fixed).
uint64_t NowNanos();


class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Open a span now; returns its handle (kNoParent when disabled).
  uint32_t Begin(std::string_view name, uint32_t parent = kNoParent,
                 uint64_t request = 0);
  /// Close a span opened by Begin().
  void End(uint32_t span);
  /// Record a span with explicit times; returns its handle.
  uint32_t Add(std::string_view name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = kNoParent, uint64_t request = 0);
  /// Move the end of a span recorded earlier (a request's span is added
  /// when it is sent and closed when its response arrives).
  void SetEnd(uint32_t span, uint64_t end_ns);

  /// Self time in ns summed per span name, over the spans whose
  /// outermost ancestor is named `root` (every span when `root` is empty).
  std::map<std::string, uint64_t> SelfTimes(std::string_view root = {}) const;

  /// Number of spans named `name`.
  size_t Count(std::string_view name) const;

  /// Write every span as tab-separated text (one line per span: id,
  /// name, start_ns, end_ns, parent id or -1, request id). Returns false
  /// when the file cannot be written.
  bool Write(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  uint32_t NameId(std::string_view name);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
};

/// RAII span: Begin() on construction, End() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name,
             uint32_t parent = Tracer::kNoParent, uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
