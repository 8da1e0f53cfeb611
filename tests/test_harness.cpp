#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/run_spec.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "harness/server_mix.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "obs/metrics.hpp"
#include "prof/prof.hpp"
#include "replay/synth.hpp"
#include "replay/trace_format.hpp"

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
  const stm::RunSpec spec = o.run_spec();
  EXPECT_EQ(spec.engine, sim::EngineKind::Threads);
  EXPECT_EQ(spec.run_config().kind, sim::EngineKind::Threads);
}

// run_spec() reads the shared engine flags and nothing a tool parses for
// itself, so a tool that starts from it accepts no new flag.
TEST(Options, RunSpecReadsOnlyTheSharedFlags) {
  const char* argv[] = {"prog",
                        "--seed", "7",
                        "--cache-model", "0",
                        "--watchdog-run-cycles", "900",
                        "--numa-nodes", "2",
                        "--numa-cores-per-node", "3",
                        "--alloc", "hoard",
                        "--threads", "4",
                        "--shift", "4",
                        "--cm", "backoff"};
  Options o(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const stm::RunSpec spec = o.run_spec();
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_FALSE(spec.cache_model);
  EXPECT_EQ(spec.watchdog_cycles, 900u);
  EXPECT_EQ(spec.topology.nodes, 2u);
  EXPECT_EQ(spec.topology.cores_per_node, 3u);
  const stm::RunSpec def;
  EXPECT_EQ(spec.allocator, def.allocator);
  EXPECT_EQ(spec.threads, def.threads);
  EXPECT_EQ(spec.shift, def.shift);
  EXPECT_EQ(spec.cm, def.cm);
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

// ---- ObsSession: the one writer of --metrics-out and --prof-out ----

Options make_options(std::vector<std::string> args) {
  std::string prog = "prog";
  std::vector<char*> argv{prog.data()};
  for (auto& a : args) argv.push_back(a.data());
  return Options(static_cast<int>(argv.size()), argv.data());
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

// A path whose parent directory does not exist, so every write fails.
std::string unwritable_path() {
  return ::testing::TempDir() + "/tmx_no_such_dir/m.json";
}

// Two cases handed to one session share one header per CSV, and their rows
// follow in hand-off order (server_mix's per-allocator layout).
TEST(ObsSession, ProfCasesShareOneHeaderInHandOffOrder) {
  const std::string prefix = ::testing::TempDir() + "/tmx_obs_session_prof";
  const Options opt = make_options({"--prof", "--prof-out", prefix});
  {
    ObsSession obs(opt);
    for (const char* label : {"a", "b"}) {
      ServerMixConfig cfg;
      cfg.workers = 2;
      cfg.requests = 32;
      cfg.cache_model = false;
      cfg.prof = true;
      cfg.prof_sample_cycles = 20'000;
      (void)run_server_mix(cfg);
      obs.take_prof(label, std::string("prof.") + label + ".");
      EXPECT_FALSE(prof::enabled());
    }
    obs.finish();
    EXPECT_TRUE(obs.ok());
  }
  EXPECT_GT(obs::MetricsRegistry::global().counter("prof.a.mallocs"), 0u);
  EXPECT_GT(obs::MetricsRegistry::global().counter("prof.b.mallocs"), 0u);
  const std::string headers[] = {prof::timeseries_csv_header(),
                                 prof::sites_csv_header()};
  const char* suffixes[] = {".timeseries.csv", ".sites.csv"};
  for (int f = 0; f < 2; ++f) {
    const std::string path = prefix + suffixes[f];
    const std::vector<std::string> lines = read_lines(path);
    ASSERT_GE(lines.size(), 3u) << path;
    EXPECT_EQ(lines[0] + "\n", headers[f]) << path;
    // Labels of the data rows with consecutive repeats collapsed.
    std::vector<std::string> runs;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string label = lines[i].substr(0, lines[i].find(','));
      if (runs.empty() || runs.back() != label) runs.push_back(label);
    }
    EXPECT_EQ(runs, (std::vector<std::string>{"a", "b"})) << path;
    std::remove(path.c_str());
  }
  const std::string folded = prefix + ".folded";
  EXPECT_NE(read_file(folded).find("request;parse"), std::string::npos);
  std::remove(folded.c_str());
}

// One unwritable --prof-out file costs only itself: the other two are
// still written, and ok() reports the loss.
TEST(ObsSession, ProfOutWritesEveryFileItCan) {
  const std::string prefix = ::testing::TempDir() + "/tmx_obs_session_partial";
  const std::string blocked = prefix + ".timeseries.csv";
  ::rmdir(blocked.c_str());  // an earlier run's leftover
  ASSERT_EQ(::mkdir(blocked.c_str(), 0700), 0);
  {
    ObsSession obs(make_options({"--prof", "--prof-out", prefix}));
    ServerMixConfig cfg;
    cfg.workers = 2;
    cfg.requests = 16;
    cfg.cache_model = false;
    cfg.prof = true;
    (void)run_server_mix(cfg);
    obs.take_prof("a", "prof.a.");
    obs.finish();
    EXPECT_FALSE(obs.ok());
  }
  for (const char* suffix : {".sites.csv", ".folded"}) {
    const std::string path = prefix + suffix;
    EXPECT_FALSE(read_file(path).empty()) << path;
    std::remove(path.c_str());
  }
  ::rmdir(blocked.c_str());
}

// A default ServerMixConfig describes the run the harness always ran: its
// inherited RunSpec fields and STM configuration are the old defaults.
TEST(ServerMixConfig, DefaultsUnchanged) {
  const ServerMixConfig cfg;
  EXPECT_EQ(cfg.allocator, "glibc");
  EXPECT_EQ(cfg.engine, sim::EngineKind::Sim);
  EXPECT_TRUE(cfg.cache_model);
  EXPECT_EQ(cfg.seed, 20150207u);
  EXPECT_EQ(cfg.watchdog_cycles, 0u);
  EXPECT_EQ(cfg.workers, 4);
  const stm::Config c = cfg.stm_config(nullptr);
  EXPECT_EQ(c.ort_log2, 20u);
  EXPECT_EQ(c.shift, 5u);
  EXPECT_EQ(c.cm, stm::ContentionManager::kSuicide);
  EXPECT_FALSE(c.tx_alloc_cache);
  // The fields the old hand-built Config left at their defaults.
  const stm::Config def;
  EXPECT_EQ(c.ort_shards, def.ort_shards);
  EXPECT_EQ(c.design, def.design);
  EXPECT_EQ(c.htm.enabled, def.htm.enabled);
  EXPECT_EQ(c.retry_cap, def.retry_cap);
  EXPECT_EQ(c.tx_cycle_budget, def.tx_cycle_budget);
  EXPECT_EQ(c.allocator, nullptr);
}

TEST(ObsSession, UnwritableMetricsPathClearsOk) {
  ObsSession obs(make_options({"--metrics-out", unwritable_path()}));
  EXPECT_TRUE(obs.ok());
  obs.finish();
  EXPECT_FALSE(obs.ok());
}

// ---- run_replay_compare: the shared --replay-trace entry ----

class ReplayCompare : public ::testing::Test {
 protected:
  void SetUp() override {
    replay::SynthConfig sc;
    sc.threads = 2;
    sc.ops_per_thread = 100;
    sc.live_per_thread = 16;
    ASSERT_TRUE(replay::write_trace(trace_, replay::generate_synthetic(sc)));
  }
  void TearDown() override {
    std::remove(trace_.c_str());
    std::remove(metrics_.c_str());
  }

  int run(const std::string& trace, const std::string& metrics) {
    return run_replay_compare(make_options(
        {"--replay-trace", trace, "--alloc", "glibc,tcmalloc",
         "--cache-model", "0", "--metrics-out", metrics}));
  }

  const std::string trace_ =
      ::testing::TempDir() + "/tmx_replay_compare.tmxtrc";
  const std::string metrics_ =
      ::testing::TempDir() + "/tmx_replay_compare.json";
};

TEST_F(ReplayCompare, MissingTraceExits2AndWritesNothing) {
  EXPECT_EQ(run(::testing::TempDir() + "/tmx_no_such.tmxtrc", metrics_), 2);
  EXPECT_FALSE(file_exists(metrics_));
}

// Recording a replay would capture the replayer, not a program: refused
// before the session exists, so no capture file is left behind.
TEST_F(ReplayCompare, RecordTraceIsRefused) {
  const std::string capture = ::testing::TempDir() + "/tmx_replay_rec.tmxtrc";
  std::remove(capture.c_str());
  EXPECT_EQ(run_replay_compare(make_options(
                {"--replay-trace", trace_, "--alloc", "glibc",
                 "--cache-model", "0", "--record-trace", capture})),
            2);
  EXPECT_FALSE(file_exists(capture));
  std::remove(capture.c_str());
}

TEST_F(ReplayCompare, UnwritableMetricsExits3) {
  EXPECT_EQ(run(trace_, unwritable_path()), 3);
}

TEST_F(ReplayCompare, MetricsRoundTrip) {
  ASSERT_EQ(run(trace_, metrics_), 0);
  obs::MetricsRegistry back;
  ASSERT_TRUE(obs::MetricsRegistry::from_json(read_file(metrics_), &back));
  EXPECT_GT(back.counter("replay.glibc.mallocs"), 0u);
  EXPECT_EQ(back.counter("replay.glibc.mallocs"),
            back.counter("replay.tcmalloc.mallocs"));
}

}  // namespace
}  // namespace tmx::harness
