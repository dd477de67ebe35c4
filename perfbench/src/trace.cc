#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Tracer::NameId(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t Tracer::Begin(std::string_view name, uint32_t parent,
                       uint64_t request) {
  if (!enabled_) return kNoParent;
  const uint64_t now = NowNanos();
  return Add(name, now, now, parent, request);
}

void Tracer::End(uint32_t span) { SetEnd(span, NowNanos()); }

void Tracer::SetEnd(uint32_t span, uint64_t end_ns) {
  if (!enabled_ || span == kNoParent) return;
  spans_[span].end_ns = end_ns;
}

uint32_t Tracer::Add(std::string_view name, uint64_t start_ns,
                     uint64_t end_ns, uint32_t parent, uint64_t request) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = NameId(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::map<std::string, uint64_t> Tracer::SelfTimes(
    std::string_view root) const {
  // A parent is always recorded before its children, so one forward pass
  // resolves every span's outermost ancestor.
  std::vector<uint32_t> roots(spans_.size());
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    roots[i] = span.parent == kNoParent ? static_cast<uint32_t>(i)
                                        : roots[span.parent];
    if (span.parent != kNoParent) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!root.empty() && names_[spans_[roots[i]].name] != root) continue;
    const uint64_t duration = span.end_ns - span.start_ns;
    // Union of the children's intervals, clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t reach = span.start_ns;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, span.end_ns);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    out[names_[span.name]] += duration - std::min(covered, duration);
  }
  return out;
}

size_t Tracer::Count(std::string_view name) const {
  size_t count = 0;
  for (const Span& span : spans_) {
    if (names_[span.name] == name) ++count;
  }
  return count;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRId64
                 "\t%" PRIu64 "\n",
                 i, names_[s.name].c_str(), s.start_ns, s.end_ns,
                 s.parent == kNoParent ? int64_t{-1}
                                       : static_cast<int64_t>(s.parent),
                 s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
