// Tests for util/: rng, inline_vector, stats, timer, args, table.

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <set>
#include <sstream>
#include <vector>

#include "util/args.hpp"
#include "util/inline_vector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pmpl {
namespace {

// --- rng --------------------------------------------------------------

TEST(Rng, SplitMixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(Rng, SplitMixAdvancesState) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Rng, DeriveSeedDistinctPerStream) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t id = 0; id < 10000; ++id)
    seeds.insert(derive_seed(123, id));
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(Rng, DeriveSeedDependsOnGlobalSeed) {
  EXPECT_NE(derive_seed(1, 7), derive_seed(2, 7));
}

TEST(Rng, SameSeedSameStream) {
  Xoshiro256ss a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Xoshiro256ss a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Xoshiro256ss rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformU64CoversRangeUnbiased) {
  Xoshiro256ss rng(13);
  std::vector<int> counts(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_u64(10)];
  for (int c : counts) EXPECT_NEAR(c, kN / 10, kN / 100);
}

TEST(Rng, UniformU64EdgeCases) {
  Xoshiro256ss rng(17);
  EXPECT_EQ(rng.uniform_u64(0), 0u);
  EXPECT_EQ(rng.uniform_u64(1), 0u);
}

TEST(Rng, NormalHasUnitVariance) {
  Xoshiro256ss rng(19);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

// --- inline_vector ----------------------------------------------------

TEST(InlineVector, StartsEmpty) {
  InlineVector<double, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(InlineVector, PushPopBack) {
  InlineVector<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
  v.pop_back();
  EXPECT_EQ(v.back(), 1);
}

TEST(InlineVector, InitializerList) {
  InlineVector<int, 8> v{1, 2, 3};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
}

TEST(InlineVector, CountConstructor) {
  InlineVector<double, 8> v(5, 2.5);
  EXPECT_EQ(v.size(), 5u);
  for (double x : v) EXPECT_EQ(x, 2.5);
}

TEST(InlineVector, ResizeGrowsWithFill) {
  InlineVector<int, 8> v{1};
  v.resize(4, 9);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 9);
  v.resize(2);
  EXPECT_EQ(v.size(), 2u);
}

TEST(InlineVector, Equality) {
  InlineVector<int, 4> a{1, 2}, b{1, 2}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(InlineVector, IterationMatchesIndexing) {
  InlineVector<int, 8> v{4, 5, 6};
  std::size_t i = 0;
  for (int x : v) EXPECT_EQ(x, v[i++]);
  EXPECT_EQ(i, v.size());
}

TEST(InlineVector, FullDetection) {
  InlineVector<int, 2> v{1, 2};
  EXPECT_TRUE(v.full());
}

// --- stats ------------------------------------------------------------

TEST(Stats, EmptySummary) {
  const Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.cv(), 0.0);
}

TEST(Stats, SingleValue) {
  const std::vector<double> v{5.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.mean, 5.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 5.0);
  EXPECT_EQ(s.max, 5.0);
}

TEST(Stats, KnownDistribution) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(v);
  EXPECT_NEAR(s.mean, 5.0, 1e-12);
  EXPECT_NEAR(s.stddev, 2.0, 1e-12);  // classic population-stddev example
  EXPECT_NEAR(s.cv(), 0.4, 1e-12);
}

TEST(Stats, UniformLoadHasZeroCv) {
  const std::vector<double> v(64, 3.25);
  EXPECT_EQ(summarize(v).cv(), 0.0);
  EXPECT_NEAR(summarize(v).imbalance(), 1.0, 1e-12);
}

TEST(Stats, ImbalanceIsMaxOverMean) {
  const std::vector<double> v{1.0, 1.0, 4.0};
  EXPECT_NEAR(summarize(v).imbalance(), 2.0, 1e-12);
}

TEST(Stats, SumAccumulates) {
  const std::vector<double> v{1.5, 2.5, 3.0};
  EXPECT_NEAR(summarize(v).sum, 7.0, 1e-12);
}

// --- timer ------------------------------------------------------------

TEST(Timer, ElapsedIsNonNegativeAndMonotonic) {
  WallTimer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Timer, AccumTimerSumsIntervals) {
  AccumTimer t;
  t.start();
  t.stop();
  t.start();
  t.stop();
  EXPECT_GE(t.total_s(), 0.0);
  t.reset();
  EXPECT_EQ(t.total_s(), 0.0);
}

// --- args -------------------------------------------------------------

TEST(Args, ParsesKeyValuePairs) {
  const char* argv[] = {"prog", "--procs", "64", "--env=med-cube", "--full"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_i64("procs", 0), 64);
  EXPECT_EQ(args.get("env", ""), "med-cube");
  EXPECT_TRUE(args.get_bool("full"));
  EXPECT_FALSE(args.get_bool("absent"));
}

TEST(Args, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get_i64("n", 77), 77);
  EXPECT_DOUBLE_EQ(args.get_f64("x", 1.5), 1.5);
  EXPECT_EQ(args.get("s", "dflt"), "dflt");
}

TEST(Args, FloatParsing) {
  const char* argv[] = {"prog", "--scale=2.5"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_f64("scale", 0.0), 2.5);
}

// Strict parsing: a malformed value or an unread flag exits 2, naming
// the flag.

ArgParser make_args(std::initializer_list<const char*> argv_tail) {
  static std::vector<const char*> argv;
  argv.clear();
  argv.push_back("prog");
  for (const char* a : argv_tail) argv.push_back(a);
  return ArgParser(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()));
}

TEST(ArgsStrict, AcceptsWellFormedValues) {
  const auto args = make_args({"--n", "42", "--x=2.5", "--flag", "--on", "yes"});
  EXPECT_EQ(args.get_i64("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_f64("x", 0.0), 2.5);
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_TRUE(args.get_bool("on"));
  EXPECT_EQ(args.get_i64("absent", 7), 7);
  args.reject_unknown();  // every flag given was read: returns
}

TEST(ArgsStrictDeathTest, RejectsTrailingGarbageInteger) {
  const auto args = make_args({"--n", "10x"});
  EXPECT_EXIT(args.get_i64("n", 0), ::testing::ExitedWithCode(2),
              "flag --n.*not a valid integer");
}

TEST(ArgsStrictDeathTest, RejectsTrailingGarbageFloat) {
  const auto args = make_args({"--x", "1.5.2"});
  EXPECT_EXIT(args.get_f64("x", 0.0), ::testing::ExitedWithCode(2),
              "flag --x.*not a valid number");
}

TEST(ArgsStrictDeathTest, RejectsOutOfRangeValue) {
  const auto args = make_args({"--procs", "0"});
  EXPECT_EXIT(args.get_i64("procs", 1, 1, 4096),
              ::testing::ExitedWithCode(2),
              "flag --procs.*outside permitted range");
}

TEST(ArgsStrictDeathTest, RejectsOverflowingInteger) {
  const auto args = make_args({"--n", "99999999999999999999999"});
  EXPECT_EXIT(args.get_i64("n", 0), ::testing::ExitedWithCode(2),
              "flag --n.*out of range");
}

TEST(ArgsStrictDeathTest, RejectsBadBoolean) {
  const auto args = make_args({"--resume", "maybe"});
  EXPECT_EXIT(args.get_bool("resume"), ::testing::ExitedWithCode(2),
              "flag --resume.*not a valid boolean");
}

TEST(ArgsStrictDeathTest, RejectsNanFloat) {
  const auto args = make_args({"--x", "nan"});
  EXPECT_EXIT(args.get_f64("x", 0.0, 0.0, 100.0),
              ::testing::ExitedWithCode(2), "flag --x");
}

TEST(ArgsStrictDeathTest, RejectsFlagNoLookupRead) {
  const auto args = make_args({"--procs", "64", "--proc=32", "--seed", "3"});
  EXPECT_EQ(args.get_i64("procs", 1), 64);
  EXPECT_EQ(args.get_i64("seed", 0), 3);
  EXPECT_EQ(args.get_i64("absent", 7), 7);
  EXPECT_EXIT(args.reject_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --proc\n");
}

// --- table ------------------------------------------------------------

TEST(Table, PrintsAlignedColumns) {
  TextTable t({"name", "value"});
  t.row().cell("alpha").num(1.5, 1);
  t.row().cell("b").num(std::size_t{42});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

}  // namespace
}  // namespace pmpl
