#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "harness/options.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"

namespace tmx::harness {
namespace {

TEST(Stats, MeanAndStddev) {
  const Summary s = summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, 2.138, 0.001);  // sample stddev
  EXPECT_EQ(s.n, 8u);
  EXPECT_GT(s.ci95, 0.0);
  EXPECT_LT(s.lo(), s.mean);
  EXPECT_GT(s.hi(), s.mean);
}

TEST(Stats, EdgeCases) {
  EXPECT_EQ(summarize({}).n, 0u);
  const Summary one = summarize({3.0});
  EXPECT_DOUBLE_EQ(one.mean, 3.0);
  EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

TEST(Stats, PercentileEdgeCases) {
  // n = 0: defined as 0.0 rather than NaN.
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  // n = 1: every percentile is the single sample.
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
  // n = 2: linear interpolation between the two order statistics.
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({20.0, 10.0}, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 25.0), 12.5);
}

TEST(Stats, MedianAndP95) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // 1..100, reversed
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p95, 95.05, 1e-9);  // rank 0.95*99 = 94.05 -> 95 + 0.05
  EXPECT_NEAR(s.p99, 99.01, 1e-9);  // rank 0.99*99 = 98.01 -> 99 + 0.01
  EXPECT_EQ(s.dropped, 0u);
}

TEST(Stats, TailPercentilesAtSmallN) {
  // With closest-rank interpolation, small samples keep p95/p99 strictly
  // below the maximum instead of snapping to it (the max belongs to p100).
  const Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_NEAR(s.p95, 9.55, 1e-9);  // rank 0.95*9 = 8.55
  EXPECT_NEAR(s.p99, 9.91, 1e-9);  // rank 0.99*9 = 8.91
  EXPECT_LT(s.p95, 10.0);
  EXPECT_LT(s.p99, 10.0);
}

TEST(Stats, NonFiniteSamplesAreDroppedAndCounted) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const Summary s = summarize({1.0, nan, 3.0, inf, 2.0, -inf});
  EXPECT_EQ(s.n, 3u);
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_TRUE(std::isfinite(s.stddev));
  EXPECT_TRUE(std::isfinite(s.ci95));
  // All-non-finite input degenerates to the empty summary, not NaN.
  const Summary none = summarize({nan, nan});
  EXPECT_EQ(none.n, 0u);
  EXPECT_EQ(none.dropped, 2u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
}

TEST(Stats, TTableValues) {
  EXPECT_NEAR(t95(2), 12.706, 1e-3);   // df = 1
  EXPECT_NEAR(t95(31), 2.042, 1e-3);   // df = 30
  EXPECT_NEAR(t95(100), 1.96, 1e-3);   // large sample
}

TEST(Stats, Ci95ShrinksWithSamples) {
  std::vector<double> small = {1, 2, 3};
  std::vector<double> large;
  for (int rep = 0; rep < 10; ++rep) {
    large.push_back(1);
    large.push_back(2);
    large.push_back(3);
  }
  EXPECT_GT(summarize(small).ci95, summarize(large).ci95);
}

TEST(Fmt, Numbers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.171, 1), "17.1%");
  EXPECT_EQ(fmt_si(1'500'000.0, 2), "1.50M");
  EXPECT_EQ(fmt_si(2'500.0, 1), "2.5K");
  EXPECT_EQ(fmt_si(12.0, 0), "12");
}

TEST(Options, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--threads", "1,2,4", "--reps=5", "--flag"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_TRUE(o.has("threads"));
  EXPECT_TRUE(o.has("flag"));
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_long("reps", 1), 5);
  const auto t = o.threads();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], 1);
  EXPECT_EQ(t[2], 4);
}

TEST(Options, DefaultsApply) {
  const char* argv[] = {"prog"};
  Options o(1, const_cast<char**>(argv));
  EXPECT_EQ(o.engine(), sim::EngineKind::Sim);
  EXPECT_EQ(o.reps(7), 7);
  EXPECT_EQ(o.threads().size(), 4u);
  EXPECT_EQ(o.allocators().size(), 4u);
  EXPECT_EQ(o.seed(), 20150207u);
}

TEST(Options, EngineSelection) {
  const char* argv[] = {"prog", "--engine", "threads"};
  Options o(3, const_cast<char**>(argv));
  EXPECT_EQ(o.engine(), sim::EngineKind::Threads);
  const auto rc = o.run_config(3);
  EXPECT_EQ(rc.threads, 3);
  EXPECT_EQ(rc.kind, sim::EngineKind::Threads);
}

TEST(Options, DesignAndCmSelection) {
  const char* argv[] = {"prog", "--design", "ctl", "--cm", "backoff"};
  Options o(5, const_cast<char**>(argv));
  EXPECT_EQ(o.design(), stm::StmDesign::kCommitTimeLocking);
  EXPECT_EQ(o.cm(), stm::ContentionManager::kBackoff);
  const char* none[] = {"prog"};
  Options d(1, const_cast<char**>(none));
  EXPECT_EQ(d.design(), stm::StmDesign::kWriteBackEtl);
  EXPECT_EQ(d.cm(), stm::ContentionManager::kSuicide);
}

// A misspelled design or contention manager must not silently measure the
// default: both accessors exit 2 with a message naming the valid values.
TEST(Options, UnknownDesignExits2) {
  const char* argv[] = {"prog", "--design", "bogus"};
  Options o(3, const_cast<char**>(argv));
  EXPECT_EXIT(o.design(), ::testing::ExitedWithCode(2),
              "unknown --design 'bogus' \\(wb\\|wt\\|ctl\\)");
}

TEST(Options, UnknownCmExits2) {
  const char* argv[] = {"prog", "--cm", "bogus"};
  Options o(3, const_cast<char**>(argv));
  EXPECT_EXIT(o.cm(), ::testing::ExitedWithCode(2),
              "unknown --cm 'bogus' \\(suicide\\|backoff\\)");
}

// A numeric flag with an empty value or trailing junk must not parse as a
// prefix (or fall back to the default): every numeric getter exits 2.
TEST(Options, MalformedNumbersExit2) {
  const char* argv[] = {"prog",       "--scale",     "abc", "--threads",
                        "4x",         "--reps=",     "--seed", "12 ",
                        "--list=1,,2", "--big", "99999999999999999999"};
  Options o(11, const_cast<char**>(argv));
  EXPECT_EXIT(o.scale(), ::testing::ExitedWithCode(2),
              "invalid --scale 'abc' \\(expected a number\\)");
  EXPECT_EXIT(o.threads(), ::testing::ExitedWithCode(2),
              "invalid --threads '4x' \\(expected an integer\\)");
  EXPECT_EXIT(o.thread_count(8), ::testing::ExitedWithCode(2),
              "invalid --threads '4x'");
  EXPECT_EXIT(o.reps(3), ::testing::ExitedWithCode(2), "invalid --reps ''");
  EXPECT_EXIT(o.seed(), ::testing::ExitedWithCode(2), "invalid --seed '12 '");
  EXPECT_EXIT(o.get_int_list("list", "1"), ::testing::ExitedWithCode(2),
              "invalid --list ''");
  EXPECT_EXIT(o.get_long("big", 0), ::testing::ExitedWithCode(2),
              "invalid --big '99999999999999999999'");
}

TEST(Options, WellFormedNumbersParse) {
  const char* argv[] = {"prog", "--scale", "0.25", "--threads", "-3",
                        "--list", "1,-2,3"};
  Options o(7, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(o.get_double("scale", 1.0), 0.25);
  EXPECT_EQ(o.get_long("threads", 1), -3);
  EXPECT_EQ(o.get_int_list("list", ""), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(o.get_long("absent", 42), 42);
  EXPECT_DOUBLE_EQ(o.get_double("absent", 1.5), 1.5);
}

// Thread counts outside [1, kMaxThreads] exit 2 at the flag, instead of
// dying in the engine's assertion.
TEST(Options, ThreadsOutOfRangeExit2) {
  const char* zero[] = {"prog", "--threads", "0"};
  Options z(3, const_cast<char**>(zero));
  EXPECT_EXIT(z.thread_count(8), ::testing::ExitedWithCode(2),
              "--threads 0 out of range \\[1, 256\\]");
  EXPECT_EXIT(z.threads(), ::testing::ExitedWithCode(2),
              "--threads 0 out of range");
  const char* big[] = {"prog", "--threads", "1,257"};
  Options b(3, const_cast<char**>(big));
  EXPECT_EXIT(b.threads(), ::testing::ExitedWithCode(2),
              "--threads 257 out of range \\[1, 256\\]");
  const char* max[] = {"prog", "--threads", "1,256"};
  Options m(3, const_cast<char**>(max));
  EXPECT_EQ(m.threads(), (std::vector<int>{1, kMaxThreads}));
  const char* none[] = {"prog"};
  Options d(1, const_cast<char**>(none));
  EXPECT_EQ(d.thread_count(8), 8);
}

TEST(Table, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  const std::string path = ::testing::TempDir() + "/tmx_table_test.csv";
  t.write_csv(path);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "a,b\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_STREQ(buf, "1,x\n");
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tmx::harness
