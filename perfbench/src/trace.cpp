#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <ostream>

namespace perfbench {

namespace {

thread_local SpanId t_current = kNoSpan;

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t cpu_clock_ns(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() noexcept {
  return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t process_cpu_ns() noexcept {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

Tracer::Tracer(std::size_t leaf_capacity) : leaf_capacity_(leaf_capacity) {
  spans_.reserve(std::min<std::size_t>(leaf_capacity, 1 << 16));
}

std::uint32_t Tracer::intern(const std::string& name) {
  const std::lock_guard lock(mu_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end())
    return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  unstored_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::set_ambient_parent(SpanId parent) {
  const std::lock_guard lock(mu_);
  ambient_ = parent;
}

SpanId Tracer::ambient_parent() const {
  const std::lock_guard lock(mu_);
  return ambient_;
}

SpanId Tracer::open(std::uint32_t name, SpanId parent, std::uint32_t thread,
                    std::int64_t start, bool always_store) {
  const std::lock_guard lock(mu_);
  if (!always_store) {
    if (leaves_stored_ >= leaf_capacity_) return kNoSpan;
    ++leaves_stored_;
  }
  spans_.push_back(Span{parent, name, thread, start, -1, 0, false});
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::close(SpanId id, std::uint32_t name, SpanId parent,
                   std::uint32_t thread, std::int64_t start,
                   std::int64_t end) {
  const std::int64_t duration = end - start;
  const std::lock_guard lock(mu_);
  if (id != kNoSpan) {
    spans_[id].end_ns = end;
  } else {
    ++unstored_[name].count;
    unstored_[name].total_ns += duration;
  }
  if (parent != kNoSpan) {
    Span& up = spans_[parent];
    up.child_ns += duration;
    if (up.thread != thread) up.parallel_children = true;
  }
}

std::vector<Tracer::NameSummary> Tracer::summary() const {
  const std::lock_guard lock(mu_);
  std::vector<NameSummary> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out[i].name = names_[i];
    out[i].count = unstored_[i].count;
    // Unstored spans are leaves: self time is their whole duration.
    out[i].total_s = out[i].self_s =
        static_cast<double>(unstored_[i].total_ns) * 1e-9;
  }
  // Children of parents with parallel children, for the interval union.
  std::vector<std::vector<SpanId>> children(spans_.size());
  for (SpanId id = 0; id < spans_.size(); ++id) {
    const SpanId parent = spans_[id].parent;
    if (parent != kNoSpan && spans_[parent].parallel_children)
      children[parent].push_back(id);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (SpanId id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    if (span.end_ns < 0) continue;  // still open at summary time
    const std::int64_t duration = span.end_ns - span.start_ns;
    std::int64_t covered = span.child_ns;
    if (span.parallel_children) {
      intervals.clear();
      for (const SpanId child : children[id])
        if (spans_[child].end_ns >= 0)
          intervals.emplace_back(spans_[child].start_ns, spans_[child].end_ns);
      std::sort(intervals.begin(), intervals.end());
      covered = 0;
      std::int64_t reach = span.start_ns;
      for (const auto& [from, to] : intervals) {
        const std::int64_t lo = std::max(from, reach);
        if (to > lo) {
          covered += to - lo;
          reach = to;
        }
      }
    }
    NameSummary& entry = out[span.name];
    ++entry.count;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s +=
        static_cast<double>(std::max<std::int64_t>(0, duration - covered)) *
        1e-9;
  }
  return out;
}

std::uint64_t Tracer::spans_recorded() const {
  const std::lock_guard lock(mu_);
  std::uint64_t total = spans_.size();
  for (const Unstored& u : unstored_) total += u.count;
  return total;
}

void Tracer::write(std::ostream& out, const std::string& stamp) const {
  out << "# " << stamp << '\n';
  out << "# name,count,total_s,self_s\n";
  for (const NameSummary& s : summary())
    out << "#! " << s.name << ',' << s.count << ',' << s.total_s << ','
        << s.self_s << '\n';
  const std::lock_guard lock(mu_);
  out << "id,parent,name,thread,start_ns,end_ns\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (SpanId id = 0; id < spans_.size(); ++id) {
    const Span& span = spans_[id];
    out << id << ','
        << (span.parent == kNoSpan ? std::string("-")
                                   : std::to_string(span.parent))
        << ',' << names_[span.name] << ',' << span.thread << ','
        << span.start_ns - origin << ',' << span.end_ns - origin << '\n';
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::uint32_t name, bool always_store)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  thread_ = this_thread_index();
  parent_ = t_current != kNoSpan ? t_current : tracer_->ambient_parent();
  start_ = now_ns();
  id_ = tracer_->open(name_, parent_, thread_, start_, always_store);
  saved_current_ = t_current;
  if (id_ != kNoSpan) t_current = id_;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_, name_, parent_, thread_, start_, now_ns());
  t_current = saved_current_;
}

}  // namespace perfbench
