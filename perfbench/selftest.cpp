// Self-test of the benchmark's own arithmetic: the result digest and the
// span self-time computation. Exits non-zero on the first failed check.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::uint64_t digest_of(const std::vector<double>& values) {
  perfbench::Digest d;
  d.add(std::string("N1"));
  for (const double v : values) d.add(v);
  return d.value();
}

void test_digest() {
  const std::vector<double> values = {1.0993, 0.8001, 1.0, 0.25, 3.5e-9};
  check(digest_of(values) == digest_of(values), "digest is stable");
  // FNV-1a 64 of the empty input is its offset basis; of "a" a known value.
  check(perfbench::Digest().value() == 0xcbf29ce484222325ull,
        "empty digest is the FNV offset basis");
  perfbench::Digest one;
  one.add(std::uint64_t{0});
  perfbench::Digest same;
  same.add(0.0);
  check(one.value() == same.value(), "+0.0 digests as its bit pattern");
  same = perfbench::Digest();
  same.add(-0.0);
  check(one.value() != same.value(), "-0.0 differs from +0.0");

  for (std::size_t i = 0; i < values.size(); ++i) {
    for (int bit = 0; bit < 64; ++bit) {
      std::vector<double> flipped = values;
      flipped[i] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(values[i]) ^
                                         (std::uint64_t{1} << bit));
      if (digest_of(flipped) == digest_of(values)) {
        check(false, "one flipped bit changes the digest");
        return;
      }
    }
  }
  perfbench::Digest ab, ba;
  ab.add(std::string("ab"));
  ab.add(std::string("c"));
  ba.add(std::string("a"));
  ba.add(std::string("bc"));
  check(ab.value() != ba.value(), "strings are length-framed");
}

perfbench::Span span(const char* name, double start, double end, int parent) {
  perfbench::Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // root [0,10] with children [1,3] and [2,6] (overlapping: cover [1,6]),
  // and a grandchild [4,5] under the second child.
  const std::vector<perfbench::Span> spans = {
      span("root", 0, 10, -1), span("a", 1, 3, 0), span("b", 2, 6, 0),
      span("c", 4, 5, 2), span("d", 9, 12, 0)};
  const auto self = perfbench::self_times(spans);
  // root covers [1,6] and [9,10] (d is clipped): 10 - 6 = 4.
  check(near(self[0], 4.0), "self time subtracts the union of children");
  check(near(self[1], 2.0), "a leaf's self time is its duration");
  check(near(self[2], 3.0), "only direct children are subtracted");
  check(near(self[3], 1.0), "grandchild leaf");
  check(near(self[4], 3.0), "overhanging leaf");

  const auto totals = perfbench::totals_by_name(
      {span("x", 0, 2, -1), span("y", 0.5, 1, 0), span("x", 3, 4, -1)});
  check(near(totals.at("x").total, 3.0) && near(totals.at("x").self, 2.5) &&
            near(totals.at("x").max, 2.0) && totals.at("x").calls == 2,
        "totals sum duration and self time per name, and keep the longest");

  perfbench::Tracer t(7);
  {
    perfbench::Scope outer(t, "outer");
    perfbench::Scope inner(t, "inner");
  }
  check(t.spans().size() == 2 && t.spans()[1].parent == 0 &&
            t.spans()[0].parent == -1 && t.spans()[0].run == 7 &&
            t.spans()[1].end <= t.spans()[0].end,
        "tracer nests scopes and stamps the run id");
}

}  // namespace

int main() {
  test_digest();
  test_self_time();
  if (failures != 0) return EXIT_FAILURE;
  std::puts("perfbench selftest passed");
  return EXIT_SUCCESS;
}
