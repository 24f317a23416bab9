// Benchmark-local helpers: the result digest and the in-memory span
// recorder of the traced run. Header-only so the self-test links nothing
// but this file.
#pragma once

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// FNV-1a 64 over the exact bit patterns of f64 results (and the names that
/// say which result each value is). Kept in the benchmark rather than
/// borrowed from the library, so a change to the code under test cannot
/// also change the check that judges it.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(std::uint8_t b) noexcept {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// One traced interval: seconds since the tracer's epoch, the index of the
/// enclosing span (-1 for a root) and the id of the run it belongs to.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  int run = 0;
};

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. Children may overlap each other; overlapping
/// coverage is counted once, and coverage outside the parent is clipped.
[[nodiscard]] inline std::vector<double> self_times(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cursor = p.start;
    for (const auto& [a, b] : iv) {
      const double lo = std::max(a, cursor);
      const double hi = std::min(b, p.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (p.end - p.start) - covered;
  }
  return self;
}

/// Per-name totals of span duration and self time, and the longest span.
struct LayerTotals {
  double total = 0;
  double self = 0;
  double max = 0;
  std::uint64_t calls = 0;
};

[[nodiscard]] inline std::map<std::string, LayerTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    const double duration = spans[i].end - spans[i].start;
    t.total += duration;
    t.self += self[i];
    t.max = std::max(t.max, duration);
    ++t.calls;
  }
  return out;
}

/// Records spans in memory, in a strictly nested (single-threaded) order.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(int run) : run_(run), epoch_(Clock::now()) {}

  [[nodiscard]] std::size_t begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    s.run = run_;
    s.start = now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end = now();
    open_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  int run_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::size_t id_;
};

}  // namespace perfbench
