// In-memory span recorder for the benchmark's traced run.
//
// A span is one call across a layer boundary: its name, start, end, the
// span that caused it and the thread that ran it. Spans are opened and
// closed from the benchmark's own files (ScopedSpan around each call into
// the library, TimedScheduler around each scheduler call), kept in memory,
// and written out once when the benchmark ends. A span's self time is its
// duration minus the part of it that its children cover: the sum of the
// children when they ran on the span's own thread (they cannot overlap),
// the union of their intervals when they ran on worker threads (the
// scenario matrix fans scheduler calls out over a thread pool).
//
// Leaf spans are stored until `leaf_capacity` is reached; beyond it they
// are only counted (per name: count, total) and still charged to their
// parent, so aggregates stay exact while memory stays bounded. Spans that
// can have children are always stored.
//
// With no tracer (nullptr) every ScopedSpan is a no-op: the untraced runs
// execute the same code path without recording anything.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = UINT32_MAX;

// Monotonic nanoseconds since an arbitrary process-wide origin.
[[nodiscard]] std::int64_t now_ns() noexcept;
// CPU time consumed so far by the calling thread / by the whole process.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;
[[nodiscard]] std::int64_t process_cpu_ns() noexcept;

class Tracer {
 public:
  explicit Tracer(std::size_t leaf_capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Stable id for a span name; call once per name, off the hot path.
  [[nodiscard]] std::uint32_t intern(const std::string& name);

  // Parent used by spans opened on a thread that has no open span of its
  // own (worker threads of a campaign). kNoSpan clears it.
  void set_ambient_parent(SpanId parent);

  // Per-name totals. self_s follows the rule in the header comment.
  struct NameSummary {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::vector<NameSummary> summary() const;

  [[nodiscard]] std::uint64_t spans_recorded() const;

  // Writes the stored spans (one CSV line each) after a header with the
  // per-name summary; `stamp` is copied in verbatim as a comment line.
  void write(std::ostream& out, const std::string& stamp) const;

 private:
  friend class ScopedSpan;

  struct Span {
    SpanId parent = kNoSpan;
    std::uint32_t name = 0;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::int64_t child_ns = 0;  // summed child durations
    bool parallel_children = false;
  };
  struct Unstored {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
  };

  SpanId open(std::uint32_t name, SpanId parent, std::uint32_t thread,
              std::int64_t start, bool always_store);
  void close(SpanId id, std::uint32_t name, SpanId parent,
             std::uint32_t thread, std::int64_t start, std::int64_t end);
  [[nodiscard]] SpanId ambient_parent() const;

  mutable std::mutex mu_;  // guards everything below
  std::size_t leaf_capacity_;
  std::size_t leaves_stored_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<Unstored> unstored_;  // per name id
  SpanId ambient_ = kNoSpan;
};

// RAII span. Parent = the innermost open span on this thread, else the
// tracer's ambient parent. `always_store` marks spans that have children.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::uint32_t name, bool always_store);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanId id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t name_ = 0;
  SpanId id_ = kNoSpan;
  SpanId parent_ = kNoSpan;
  SpanId saved_current_ = kNoSpan;
  std::uint32_t thread_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace perfbench
