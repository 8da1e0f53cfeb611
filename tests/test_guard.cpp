// tmx::guard — heap-integrity hardening: positive controls for every
// corruption-injection site (with attribution), the zombie-read negative
// control and its Intruder regression, the zero-perturbation
// golden-constant contract, quarantine drain at
// Stm::maintenance_quiescence, and the watchdog x serial-irrevocable
// interplay (an escalated transaction that blows its cycle budget must
// still flush diagnostics and exit 3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "guard/guard_alloc.hpp"
#include "harness/setbench.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "stamp/app.hpp"

namespace tmx::guard {
namespace {

struct GuardFixture : ::testing::Test {
  void TearDown() override {
    clear();
    fault::clear();
  }

  // Guard over the glibc model: the only registered model with in-band
  // boundary tags (tag_offset 7 / tag_bytes 7), so every finding kind is
  // reachable.
  static std::unique_ptr<GuardedAllocator> make_glibc() {
    return std::make_unique<GuardedAllocator>(
        alloc::create_allocator("glibc"));
  }
};

// ---- Positive controls: every injection site detected and attributed ----

TEST_F(GuardFixture, TagScribbleDetectedAtFreeAndAttributed) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 0;  // detection is independent of quarantine
  install(cfg);
  fault::FaultPlan plan;
  plan.corrupt_tag_rate = 1.0;
  plan.corrupt_budget = 1;
  fault::install(plan);

  auto ga = make_glibc();
  void* p = nullptr;
  {
    ScopedSite site("test;alloc");
    p = ga->allocate(40);
  }
  ASSERT_NE(p, nullptr);
  {
    ScopedSite site("test;free");
    ga->deallocate(p);
  }

  EXPECT_EQ(count(FindingKind::kTagSmash), 1u);
  EXPECT_EQ(corruptions(), 1u);
  EXPECT_EQ(
      fault::stats().injected[static_cast<int>(fault::Site::kCorruptTag)],
      1u);
  ASSERT_EQ(findings().size(), 1u);
  EXPECT_EQ(findings()[0].alloc_site, "test;alloc");
  EXPECT_EQ(findings()[0].site, "test;free");
  // Containment: the corrupted block was withheld from the model.
  EXPECT_EQ(stats().leaked, 1u);

  // The budget is spent: a second block round-trips cleanly.
  void* q = ga->allocate(40);
  ASSERT_NE(q, nullptr);
  ga->deallocate(q);
  EXPECT_EQ(corruptions(), 1u);
}

TEST_F(GuardFixture, OverflowDetectedViaCanary) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 0;
  install(cfg);
  fault::FaultPlan plan;
  plan.corrupt_overflow_rate = 1.0;
  plan.corrupt_budget = 1;
  fault::install(plan);

  auto ga = make_glibc();
  // 20 requested < glibc's rounded usable size, so slack exists and the
  // injection (gated on a canary being present) fires.
  void* p = nullptr;
  {
    ScopedSite site("test;overflow");
    p = ga->allocate(20);
  }
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(
      fault::stats().injected[static_cast<int>(fault::Site::kCorruptOverflow)],
      1u);

  // The audit walk catches the smash while the block is still live...
  ga->audit();
  EXPECT_EQ(count(FindingKind::kCanarySmash), 1u);
  ASSERT_EQ(findings().size(), 1u);
  EXPECT_EQ(findings()[0].alloc_site, "test;overflow");
  EXPECT_EQ(findings()[0].site, "audit");
  EXPECT_EQ(findings()[0].requested, 20u);

  // ...and the eventual free dedups (still one finding) and leaks.
  ga->deallocate(p);
  EXPECT_EQ(count(FindingKind::kCanarySmash), 1u);
  EXPECT_EQ(stats().leaked, 1u);
}

TEST_F(GuardFixture, EarlyReuseDetectedAtQuarantineRelease) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 1;
  install(cfg);
  fault::FaultPlan plan;
  plan.corrupt_reuse_rate = 1.0;
  plan.corrupt_budget = 1;
  fault::install(plan);

  auto ga = make_glibc();
  void* p = nullptr;
  {
    ScopedSite site("test;reuse");
    p = ga->allocate(64);
  }
  ASSERT_NE(p, nullptr);
  ga->deallocate(p);
  EXPECT_EQ(ga->quarantine_blocks(), 1u);
  EXPECT_EQ(
      fault::stats().injected[static_cast<int>(fault::Site::kCorruptReuse)],
      1u);
  EXPECT_EQ(corruptions(), 0u);  // not yet: caught at release

  ga->on_quiescence(false);  // proven quiescent: drain + audit
  EXPECT_EQ(ga->quarantine_blocks(), 0u);
  EXPECT_EQ(count(FindingKind::kPoisonWrite), 1u);
  ASSERT_EQ(findings().size(), 1u);
  EXPECT_EQ(findings()[0].alloc_site, "test;reuse");
}

TEST_F(GuardFixture, DoubleFreeAndInvalidFreeSwallowed) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 1;
  install(cfg);

  auto ga = make_glibc();
  void* p = ga->allocate(32);
  ASSERT_NE(p, nullptr);
  ga->deallocate(p);           // parked
  ga->deallocate(p);           // double free of a quarantined block
  EXPECT_EQ(count(FindingKind::kDoubleFree), 1u);

  std::uint64_t on_stack = 0;
  ga->deallocate(&on_stack);   // never allocated: swallowed, not forwarded
  EXPECT_EQ(count(FindingKind::kInvalidFree), 1u);

  ga->on_quiescence(false);
  EXPECT_EQ(ga->quarantine_blocks(), 0u);
}

TEST_F(GuardFixture, UsableSizeReportsRequestedNotSlack) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 0;
  install(cfg);
  auto ga = make_glibc();
  void* p = ga->allocate(20);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(ga->usable_size(p), 20u);       // canary slack is not theirs
  EXPECT_GE(ga->inner().usable_size(p), 24u);  // the model granted more
  ga->deallocate(p);
  EXPECT_EQ(corruptions(), 0u);
}

// ---- Negative control: zombie reads of quarantined memory are benign ----

TEST_F(GuardFixture, ZombieReadOfQuarantinedMemoryRaisesNoFinding) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 1;
  install(cfg);

  auto ga = make_glibc();
  void* p = ga->allocate(128);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 128);
  ga->deallocate(p);
  ASSERT_EQ(ga->quarantine_blocks(), 1u);

  // A doomed transaction reading the freed block (zombie read): reads do
  // not alter the poison, so release verification stays clean.
  volatile const unsigned char* z = static_cast<const unsigned char*>(p);
  unsigned sum = 0;
  for (std::size_t i = 0; i < 128; ++i) sum += z[i];
  EXPECT_EQ(sum, 128u * cfg.poison);  // poisoned, still mapped, readable

  ga->on_quiescence(false);
  EXPECT_EQ(ga->quarantine_blocks(), 0u);
  EXPECT_EQ(corruptions(), 0u);
  EXPECT_EQ(stats().released, 1u);

  // The same scenario with a *write* is exactly one poison-write finding.
  void* q = ga->allocate(128);
  ASSERT_NE(q, nullptr);
  ga->deallocate(q);
  static_cast<unsigned char*>(q)[17] = 0x00;  // use-after-free store
  ga->on_quiescence(false);
  EXPECT_EQ(count(FindingKind::kPoisonWrite), 1u);
  EXPECT_EQ(corruptions(), 1u);
}

// A zombie read is harmless only while its value is not followed: a doomed
// transaction in Intruder's red-black tree used to load the poison word of
// a quarantined node and dereference it as a pointer, killing the process.
// The read barriers now revalidate on a poison load and abort the zombie.
TEST_F(GuardFixture, ZombieNeverFollowsPoisonAsPointer) {
  install(GuardConfig{});  // default quarantine
  stamp::StampRun run;
  run.app = "intruder";
  run.allocator = "glibc";
  run.threads = 8;
  run.seed = 7;
  run.cache_model = false;
  const stamp::StampOutcome out = stamp::run_stamp(run);
  EXPECT_TRUE(out.result.verified) << out.result.detail;
  EXPECT_EQ(corruptions(), 0u);
  EXPECT_GT(stats().quarantined, 0u);
}

// ---- Quarantine drains fully at Stm::maintenance_quiescence ----

TEST_F(GuardFixture, QuarantineDrainsAtMaintenanceQuiescence) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 4;          // far from aging out on its own
  cfg.commits_per_epoch = 1u << 30;   // commit-driven epochs effectively off
  install(cfg);

  auto ga = make_glibc();
  GuardedAllocator* gap = ga.get();
  stm::Config scfg;
  scfg.allocator = gap;
  stm::Stm stm(scfg);

  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Sim;
  rc.threads = 2;
  rc.cache_model = false;
  sim::run_parallel(rc, [&](int) {
    alloc::RegionScope par(alloc::Region::Par);
    for (int i = 0; i < 8; ++i) {
      void* p = nullptr;
      stm.atomically([&](stm::Tx& tx) { p = tx.malloc(48); });
      stm.atomically([&](stm::Tx& tx) { tx.free(p); });
    }
  });
  EXPECT_GT(gap->quarantine_blocks(), 0u);  // parked, epochs never aged

  stm.maintenance_quiescence();  // proven quiescent: full drain + audit
  EXPECT_EQ(gap->quarantine_blocks(), 0u);
  EXPECT_EQ(corruptions(), 0u);
  EXPECT_GT(stats().released, 0u);
  EXPECT_GT(stats().audits, 0u);
}

// ---- Zero-perturbation contract: guard-on reproduces the golden
// constants bit-for-bit in detect-only mode ----

struct Outcome {
  std::uint64_t cycles = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  bool operator==(const Outcome& o) const {
    return cycles == o.cycles && commits == o.commits && aborts == o.aborts;
  }
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << "{cycles=" << o.cycles << ", commits=" << o.commits
            << ", aborts=" << o.aborts << "}";
}

// Identical configuration to test_determinism's run_golden: same seed, same
// shape, cache model off.
Outcome run_golden(harness::SetKind kind, const std::string& alloc) {
  harness::SetBenchConfig cfg;
  cfg.kind = kind;
  cfg.allocator = alloc;
  cfg.threads = 4;
  cfg.cache_model = false;
  cfg.initial = 512;
  cfg.key_range = 1024;
  cfg.ops_per_thread = 200;
  cfg.seed = 20150207;
  const harness::SetBenchResult r = harness::run_set_bench(cfg);
  EXPECT_TRUE(r.size_consistent);
  Outcome o;
  o.cycles = static_cast<std::uint64_t>(std::llround(r.seconds * 2.0e9));
  o.commits = r.stats.commits;
  o.aborts = r.stats.aborts;
  return o;
}

TEST_F(GuardFixture, DetectOnlyGuardReproducesGoldenConstants) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 0;  // detect-only: placement-neutral by contract
  install(cfg);

  // The exact constants test_determinism pins for guard-OFF runs.
  EXPECT_EQ(run_golden(harness::SetKind::kList, "glibc"),
            (Outcome{1764310, 800, 131}));
  EXPECT_EQ(run_golden(harness::SetKind::kList, "hoard"),
            (Outcome{2214571, 800, 297}));
  EXPECT_EQ(run_golden(harness::SetKind::kList, "tbb"),
            (Outcome{2175833, 800, 270}));
  EXPECT_EQ(run_golden(harness::SetKind::kList, "tcmalloc"),
            (Outcome{2185014, 800, 296}));
  EXPECT_EQ(run_golden(harness::SetKind::kHashSet, "glibc"),
            (Outcome{23150, 800, 47}));
  EXPECT_EQ(run_golden(harness::SetKind::kRbTree, "glibc"),
            (Outcome{84668, 800, 80}));

  // The guard genuinely ran: every one of those runs verified its frees.
  EXPECT_GT(stats().blocks_guarded, 0u);
  EXPECT_GT(stats().frees_verified, 0u);
  EXPECT_EQ(corruptions(), 0u);
}

// Quarantine mode perturbs placement (deferred frees change reuse), so it
// pins no committed constants — but it must still be exactly reproducible.
TEST_F(GuardFixture, QuarantineModeIsSelfReproducible) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 1;
  cfg.commits_per_epoch = 64;
  install(cfg);

  const Outcome a = run_golden(harness::SetKind::kList, "glibc");
  const Outcome b = run_golden(harness::SetKind::kList, "glibc");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.commits, 800u);
  EXPECT_EQ(corruptions(), 0u);
}

// ---- Metrics plumbing ----

TEST_F(GuardFixture, PublishMetricsEmitsGuardCounters) {
  GuardConfig cfg;
  cfg.quarantine_epochs = 1;
  install(cfg);
  auto ga = make_glibc();
  void* p = ga->allocate(32);
  ga->deallocate(p);
  ga->on_quiescence(false);

  obs::MetricsRegistry reg;
  publish_metrics(reg);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("guard.findings"), std::string::npos);
  EXPECT_NE(json.find("guard.blocks_guarded"), std::string::npos);
  EXPECT_NE(json.find("guard.quarantined"), std::string::npos);
  EXPECT_NE(json.find("guard.released"), std::string::npos);
}

// ---- Watchdog x serial-irrevocable interplay (exit code 3) ----
//
// An irrevocable transaction can never abort, so the rollback-path budget
// check cannot see it: the budget must be re-checked when the escalated
// attempt commits. The trip must still run the flush hook (diagnostics
// survive) and exit with the watchdog code, distinct from guard's 5.
TEST(GuardWatchdog, EscalatedTransactionStillTripsTxBudget) {
  EXPECT_EXIT(
      {
        fault::FaultPlan plan;
        plan.spurious_abort_rate = 1.0;  // aborts until the cap escalates
        fault::install(plan);
        sim::install_watchdog_flush(
            [] { std::fprintf(stderr, "obs-flushed\n"); });
        auto allocator = alloc::create_allocator("tcmalloc");
        stm::Config cfg;
        cfg.allocator = allocator.get();
        cfg.retry_cap = 2;          // escalate on the third attempt
        cfg.tx_cycle_budget = 50000;
        stm::Stm stm(cfg);
        sim::RunConfig rc;
        rc.kind = sim::EngineKind::Sim;
        rc.threads = 1;
        rc.cache_model = false;
        sim::run_parallel(rc, [&](int) {
          alloc::RegionScope par(alloc::Region::Par);
          std::uint64_t word = 0;
          int attempts = 0;
          stm.atomically([&](stm::Tx& tx) {
            ++attempts;
            // Pre-escalation attempts stay cheap (under budget); only the
            // shielded, irrevocable attempt burns past it.
            if (attempts > 2) sim::tick(300000);
            tx.store(&word, word + 1);
          });
        });
      },
      ::testing::ExitedWithCode(sim::kWatchdogExitCode), "obs-flushed");
}

}  // namespace
}  // namespace tmx::guard
