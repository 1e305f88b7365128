// Unit tests for the support module: RNG, SHA-1, statistics, factoradic
// helpers, flags, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <sstream>

#include "support/factorial.hpp"
#include "support/flags.hpp"
#include "support/rng.hpp"
#include "support/sha1.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace olb {
namespace {

// ------------------------------------------------------------------- RNG ---

TEST(Rng, Splitmix64MatchesReferenceStream) {
  // Reference values for seed 0 (splitmix64 test vectors used by xoshiro).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xe220a8397b1dcdafull);
  EXPECT_EQ(splitmix64(state), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(splitmix64(state), 0x06c45d188009454full);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRangeAndCoversAll) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, UniformInclusiveBounds) {
  Xoshiro256 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.uniform(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenRange) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanIsCentered) {
  Xoshiro256 rng(17);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

// ------------------------------------------------------------------ SHA-1 ---

TEST(Sha1, Fips180TestVectors) {
  auto hash_str = [](const char* s) {
    return to_hex(Sha1::hash(std::span(reinterpret_cast<const std::uint8_t*>(s),
                                       std::strlen(s))));
  };
  EXPECT_EQ(hash_str(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hash_str("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hash_str("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(to_hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Sha1 h;
    h.update(data.data(), cut);
    h.update(data.data() + cut, data.size() - cut);
    EXPECT_EQ(h.finish(),
              Sha1::hash(std::span(reinterpret_cast<const std::uint8_t*>(data.data()),
                                   data.size())));
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update("xyz", 3);
  (void)h.finish();
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(to_hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// -------------------------------------------------------------- statistics ---

TEST(Stats, SummaryOfKnownSample) {
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_EQ(s.count, 8u);
}

TEST(Stats, SinglePointHasZeroStddev) {
  RunningStats acc;
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 3.5);
  EXPECT_DOUBLE_EQ(acc.max(), 3.5);
}

TEST(Stats, EmptyStatsAreZero) {
  RunningStats acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
}

TEST(Stats, EmptySampleYieldsZeroSummaryAndPercentile) {
  const Summary s = summarize({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_EQ(s.count, 0u);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile(empty, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(empty, 1.0), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs = {5, 2, 4, 1, 3};  // unsorted: selection must cope
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.375), 2.5);  // between the 2nd and 3rd
}

TEST(Stats, PercentileMatchesSortBasedReference) {
  Xoshiro256 rng(71);
  std::vector<double> xs;
  for (int i = 0; i < 257; ++i) xs.push_back(rng.uniform01() * 1e3 - 500.0);
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  auto reference = [&](double p) {
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  // Repeated calls reorder xs in place; results must not depend on the
  // element order left behind by earlier selections.
  for (const double p : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0, 0.5, 0.25}) {
    EXPECT_NEAR(percentile(xs, p), reference(p), 1e-12) << "p=" << p;
  }
}

TEST(Stats, SortedSamplePinsKnownQuantiles) {
  // Pin p50/p99 on a fixed vector so any future change to the
  // interpolation rule (sort-once SortedSample or the selecting free
  // function) shows up as a concrete number, not a drifted report.
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(static_cast<double>(i));
  const SortedSample s(xs);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);          // between the 50th and 51st
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.01);  // 0.99 * 99 = 98.01 → x[98]+.01
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Stats, SortedSampleMatchesSelectingPercentile) {
  Xoshiro256 rng(101);
  std::vector<double> xs;
  for (int i = 0; i < 321; ++i) xs.push_back(rng.uniform01() * 2e3 - 1e3);
  const SortedSample s(xs);  // copy; the original stays for the reference
  EXPECT_TRUE(std::is_sorted(s.sorted().begin(), s.sorted().end()));
  for (const double p : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    std::vector<double> scratch = xs;
    EXPECT_DOUBLE_EQ(s.percentile(p), percentile(scratch, p)) << "p=" << p;
  }
}

TEST(Stats, SortedSampleEmptyYieldsZero) {
  const SortedSample s{std::vector<double>{}};
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Stats, PercentileSingleElement) {
  std::vector<double> one = {42.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 0.7), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 1.0), 42.0);
}

TEST(Stats, WelfordMatchesTwoPass) {
  Xoshiro256 rng(23);
  std::vector<double> xs;
  RunningStats acc;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 100.0;
    xs.push_back(x);
    acc.add(x);
  }
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(acc.mean(), mean, 1e-9);
  EXPECT_NEAR(acc.stddev(), std::sqrt(var), 1e-9);
}

// -------------------------------------------------------------- factoradic ---

TEST(Factorial, KnownValues) {
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(1), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(12), 479001600u);
  EXPECT_EQ(factorial(20), 2432902008176640000u);
}

TEST(Factorial, RankUnrankRoundTripExhaustiveSmall) {
  for (int s = 1; s <= 5; ++s) {
    for (std::uint64_t rank = 0; rank < factorial(s); ++rank) {
      const auto perm = permutation_unrank(rank, s);
      EXPECT_EQ(permutation_rank(perm), rank);
    }
  }
}

TEST(Factorial, UnrankIsLexicographicallyOrdered) {
  const int s = 6;
  auto prev = permutation_unrank(0, s);
  for (std::uint64_t rank = 1; rank < factorial(s); ++rank) {
    const auto cur = permutation_unrank(rank, s);
    EXPECT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(), cur.begin(),
                                             cur.end()));
    prev = cur;
  }
}

TEST(Factorial, RankOfIdentityAndReverse) {
  std::vector<int> identity = {0, 1, 2, 3, 4, 5, 6};
  std::vector<int> reverse = {6, 5, 4, 3, 2, 1, 0};
  EXPECT_EQ(permutation_rank(identity), 0u);
  EXPECT_EQ(permutation_rank(reverse), factorial(7) - 1);
}

// ------------------------------------------------------------------- flags ---

TEST(Flags, ParsesBothForms) {
  Flags flags;
  flags.define("alpha", "1", "").define("beta", "x", "").define("flag", "false", "");
  const char* argv[] = {"prog", "--alpha=7", "--beta", "hello", "--flag"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("alpha"), 7);
  EXPECT_EQ(flags.get("beta"), "hello");
  EXPECT_TRUE(flags.get_bool("flag"));
}

TEST(Flags, DefaultsApply) {
  Flags flags;
  flags.define("n", "42", "").define("ratio", "0.5", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.5);
}

TEST(Flags, UnknownFlagRejected) {
  Flags flags;
  flags.define("n", "1", "")
      .define("x", "0.5", "")
      .define("on", "true", "")
      .define("list", "1,2", "");
  const char* unknown[] = {"prog", "--bogus=3"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(unknown)));

  // Known flags whose value does not parse completely: the reader exits
  // naming the flag and the value instead of returning a prefix or 0.
  const struct {
    const char* arg;
    void (*read)(const Flags&);
    const char* message;
  } rows[] = {
      {"--n=12x", [](const Flags& f) { (void)f.get_int("n"); }, "--n: '12x'"},
      {"--n=abc", [](const Flags& f) { (void)f.get_int("n"); }, "--n: 'abc'"},
      {"--n=", [](const Flags& f) { (void)f.get_int("n"); }, "--n: ''"},
      {"--n=99999999999999999999", [](const Flags& f) { (void)f.get_int("n"); },
       "--n: '99999999999999999999'"},
      {"--x=0.5s", [](const Flags& f) { (void)f.get_double("x"); }, "--x: '0.5s'"},
      {"--x=1e999", [](const Flags& f) { (void)f.get_double("x"); }, "--x: '1e999'"},
      {"--on=maybe", [](const Flags& f) { (void)f.get_bool("on"); }, "--on: 'maybe'"},
      {"--list=1,,2", [](const Flags& f) { (void)f.get_int_list("list"); }, "--list: ''"},
      {"--list=1,2x", [](const Flags& f) { (void)f.get_int_list("list"); },
       "--list: '2x'"},
      {"--list=0,0.1x", [](const Flags& f) { (void)f.get_double_list("list"); },
       "--list: '0.1x'"},
  };
  for (const auto& row : rows) {
    const char* argv[] = {"prog", row.arg};
    ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
    EXPECT_DEATH(row.read(flags), row.message) << row.arg;
  }
}

TEST(Flags, IntListParses) {
  Flags flags;
  flags.define("scales", "100,200,500", "")
      .define("none", "", "")
      .define("drops", "0,0.05,0.1", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  const auto xs = flags.get_int_list("scales");
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_EQ(xs[0], 100);
  EXPECT_EQ(xs[2], 500);
  EXPECT_TRUE(flags.get_int_list("none").empty());
  EXPECT_TRUE(flags.get_double_list("none").empty());
  EXPECT_EQ(flags.get_double_list("drops"), (std::vector<double>{0, 0.05, 0.1}));
}

// ------------------------------------------------------------------- table ---

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({Table::cell(std::int64_t{3}), Table::cell(1.25, 2)});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n3,1.25\n");
}

}  // namespace
}  // namespace olb
