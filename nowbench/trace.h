// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own code around its calls
// into each layer, all on the benchmark's main thread, so a stack of open
// spans gives every span its parent.  Nothing is written until the run ends:
// then the spans go out as Chrome trace-event JSON (opens in Perfetto or
// chrome://tracing) and as per-name totals with self time, a span's
// duration minus the part its children cover.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.h"

namespace now::bench {

struct SpanRecord {
  std::string name;
  std::string cat;  // the layer: apps, omp, tmk, simnet, mpi
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  int parent = -1;  // index of the enclosing span, -1 for a root
};

struct SpanTotals {
  std::string cat;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  int begin(std::string name, std::string cat) {
    SpanRecord s;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.start_ns = now_ns();
    s.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int id) {
    NOW_CHECK(!open_.empty() && open_.back() == id) << "spans must nest";
    spans_[static_cast<std::size_t>(id)].dur_ns =
        now_ns() - spans_[static_cast<std::size_t>(id)].start_ns;
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  std::map<std::string, SpanTotals> totals() const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const SpanRecord& s : spans_)
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.dur_ns;
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      t.cat = spans_[i].cat;
      t.count += 1;
      t.total_ns += spans_[i].dur_ns;
      t.self_ns += spans_[i].dur_ns - std::min(child_ns[i], spans_[i].dur_ns);
    }
    return out;
  }

  // Complete ("X") events on one thread; the parent link rides in args.
  void write_chrome(std::ostream& os) const {
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << "\", \"cat\": \""
         << s.cat << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << static_cast<double>(s.start_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(s.dur_ns) / 1e3
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
  }

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// Scoped span; a null tracer makes it a no-op, so untraced runs pay nothing.
class Span {
 public:
  Span(Tracer* t, std::string name, std::string cat) : t_(t) {
    if (t_) id_ = t_->begin(std::move(name), std::move(cat));
  }
  ~Span() {
    if (t_) t_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_ = -1;
};

}  // namespace now::bench
