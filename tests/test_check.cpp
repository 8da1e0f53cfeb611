// tmx::check — the transactional race/lifetime checker.
//
// The deliberately buggy micro-apps here are the checker's positive
// controls (ISSUE: a naked-access race and a tx-leak/double-free app, each
// asserted down to the exact reporting site), and the STAMP/structs sweeps
// are its negative controls: every shipped workload must run check-clean.
// Every test installs its own checker and clears it on teardown so the rest
// of the suite — including the golden determinism constants — runs with all
// hooks off.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "alloc/allocator.hpp"
#include "alloc/instrument.hpp"
#include "check/check.hpp"
#include "check/check_alloc.hpp"
#include "core/stm.hpp"
#include "harness/setbench.hpp"
#include "obs/metrics.hpp"
#include "phase/phase.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "stamp/app.hpp"

namespace tmx::check {
namespace {

struct CheckFixture : ::testing::Test {
  void TearDown() override { clear(); }
};

sim::RunConfig sim_config(int threads) {
  sim::RunConfig rc;
  rc.kind = sim::EngineKind::Sim;
  rc.threads = threads;
  rc.cache_model = false;
  return rc;
}

// The exact site string TMX_NAKED_ACCESS stamps on the access `delta` lines
// below the call site.
std::string site_at(int line) {
  return std::string(__FILE__) + ":" + std::to_string(line);
}

// ---------------------------------------------------------------------------
// Race prong: the seeded naked-access race micro-app
// ---------------------------------------------------------------------------

// Two fibers store to the same word with no synchronization between them.
// The checker must report exactly one race, attributed to the right
// threads, virtual cycles, and file:line sites of both accesses.
TEST_F(CheckFixture, NakedRaceReportedWithExactAttribution) {
  install(CheckConfig{});
  std::uint64_t shared = 0;
  std::string site[2];
  std::uint64_t cycle[2] = {0, 0};
  sim::run_parallel(sim_config(2), [&](int tid) {
    sim::tick(100 * static_cast<std::uint64_t>(tid + 1));
    cycle[tid] = sim::now_cycles();
    site[tid] = site_at(__LINE__ + 1);
    TMX_NAKED_ACCESS(&shared, sizeof(shared), /*is_write=*/true);
    shared = static_cast<std::uint64_t>(tid + 1);
  });

  ASSERT_EQ(count(ReportKind::kRace), 1u);
  EXPECT_EQ(hard_count(), 1u);
  ASSERT_EQ(reports().size(), 1u);
  const Report& r = reports()[0];
  EXPECT_EQ(r.kind, ReportKind::kRace);
  // Fiber 0 reaches its access first in virtual time; fiber 1's later
  // access trips the detector.
  EXPECT_EQ(r.tid, 1);
  EXPECT_EQ(r.other_tid, 0);
  EXPECT_EQ(r.site, site[1]);
  EXPECT_EQ(r.other_site, site[0]);
  EXPECT_EQ(r.cycle, cycle[1]);
  EXPECT_EQ(r.other_cycle, cycle[0]);
  EXPECT_EQ(r.addr, reinterpret_cast<std::uintptr_t>(&shared));
}

// The same conflicting pair, but ordered by a SpinLock release->acquire
// edge (and, for a second word, by a barrier arrive->depart edge): no race.
TEST_F(CheckFixture, LockAndBarrierEdgesSuppressRaces) {
  install(CheckConfig{});
  std::uint64_t locked_word = 0;
  std::uint64_t phased_word = 0;
  sim::SpinLock lock;
  sim::Barrier barrier(2);
  sim::run_parallel(sim_config(2), [&](int tid) {
    {
      sim::SpinGuard g(lock);
      TMX_NAKED_ACCESS(&locked_word, sizeof(locked_word), true);
      locked_word += 1;
    }
    if (tid == 0) {
      TMX_NAKED_ACCESS(&phased_word, sizeof(phased_word), true);
      phased_word = 42;
    }
    barrier.arrive_and_wait();
    if (tid == 1) {
      TMX_NAKED_ACCESS(&phased_word, sizeof(phased_word), false);
      EXPECT_EQ(phased_word, 42u);
    }
  });
  EXPECT_EQ(count(ReportKind::kRace), 0u);
  EXPECT_EQ(hard_count(), 0u);
}

// Transactional conflicts on the same word are the STM's business, not a
// race: the checker must stay quiet however many aborts the conflict costs.
TEST_F(CheckFixture, TxTxConflictsAreNotRaces) {
  install(CheckConfig{});
  auto allocator =
      std::make_unique<CheckedAllocator>(alloc::create_allocator("glibc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);
  std::uint64_t word = 0;
  sim::run_parallel(sim_config(4), [&](int) {
    for (int i = 0; i < 16; ++i) {
      stm.atomically([&](stm::Tx& tx) { tx.store(&word, tx.load(&word) + 1); });
    }
  });
  EXPECT_EQ(word, 64u);
  EXPECT_EQ(count(ReportKind::kRace), 0u);
}

// The global-version-clock edge: a commit's fetch_add releases, a later
// begin's acquire load synchronizes with it. A naked write published via a
// committed transaction and read after a later begin is therefore ordered —
// while the same read without the intervening begin must race.
TEST_F(CheckFixture, CommitToBeginEdgeOrdersNakedAccesses) {
  install(CheckConfig{});
  auto allocator =
      std::make_unique<CheckedAllocator>(alloc::create_allocator("glibc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);
  std::uint64_t naked_word = 0;
  std::uint64_t tx_word = 0;
  sim::run_parallel(sim_config(2), [&](int tid) {
    if (tid == 0) {
      TMX_NAKED_ACCESS(&naked_word, sizeof(naked_word), true);
      naked_word = 7;
      // Non-empty write set: the commit bumps the clock (release).
      stm.atomically(
          [&](stm::Tx& tx) { tx.store(&tx_word, std::uint64_t{1}); });
    } else {
      sim::tick(100000);  // stay behind thread 0's commit in virtual time
      // The begin acquire-loads the clock thread 0's commit bumped.
      stm.atomically([&](stm::Tx& tx) { (void)tx.load(&tx_word); });
      TMX_NAKED_ACCESS(&naked_word, sizeof(naked_word), false);
      EXPECT_EQ(naked_word, 7u);
    }
  });
  EXPECT_EQ(count(ReportKind::kRace), 0u);
}

// ---------------------------------------------------------------------------
// Lifetime prong: the seeded tx-leak / double-free micro-app
// ---------------------------------------------------------------------------

// A transaction allocates, then commits without freeing or publishing the
// block: a tx-leak, attributed to the allocation's scoped site.
TEST_F(CheckFixture, TxLeakReportedWithAllocationSite) {
  install(CheckConfig{});
  auto allocator =
      std::make_unique<CheckedAllocator>(alloc::create_allocator("glibc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);
  sim::run_parallel(sim_config(1), [&](int) {
    // Outside the body: an abort would jump past the guard's destructor.
    ScopedSite site("leaky-alloc");
    stm.atomically([&](stm::Tx& tx) {
      void* p = tx.malloc(48);
      static_cast<void>(p);  // dropped: neither stored anywhere nor freed
    });
  });

  ASSERT_EQ(count(ReportKind::kTxLeak), 1u);
  EXPECT_EQ(hard_count(), 1u);
  ASSERT_EQ(reports().size(), 1u);
  const Report& r = reports()[0];
  EXPECT_EQ(r.kind, ReportKind::kTxLeak);
  EXPECT_EQ(r.tid, 0);
  EXPECT_EQ(r.site, "leaky-alloc");
}

// The two legitimate escapes from the leak verdict: a committed store
// publishing the pointer, and privatization (the committing thread frees
// its own unpublished allocation later through a local).
TEST_F(CheckFixture, PublishedAndPrivatizedAllocationsAreNotLeaks) {
  install(CheckConfig{});
  auto allocator =
      std::make_unique<CheckedAllocator>(alloc::create_allocator("glibc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);
  std::uint64_t slot = 0;
  void* published = nullptr;
  void* privatized = nullptr;
  sim::run_parallel(sim_config(1), [&](int) {
    stm.atomically([&](stm::Tx& tx) {
      published = tx.malloc(32);
      tx.store(&slot, reinterpret_cast<std::uint64_t>(published));
    });
    stm.atomically([&](stm::Tx& tx) { privatized = tx.malloc(32); });
    // The privatization pattern (STAMP Intruder): the pointer lives on in a
    // local and is freed naked after the commit.
    allocator->deallocate(privatized);
  });
  stm.seq_free(published);

  EXPECT_EQ(count(ReportKind::kTxLeak), 0u);
  EXPECT_EQ(hard_count(), 0u);
}

// Naked double free: reported with both free sites, and the second call is
// swallowed — the inner allocator sees exactly one deallocation.
TEST_F(CheckFixture, NakedDoubleFreeReportedAndSwallowed) {
  install(CheckConfig{});
  auto inner = std::make_unique<alloc::InstrumentingAllocator>(
      alloc::create_allocator("glibc"));
  alloc::InstrumentingAllocator* probe = inner.get();
  CheckedAllocator ca(std::move(inner));
  const auto inner_frees = [&] {
    std::uint64_t total = 0;
    for (const alloc::RegionProfile& r : probe->profile().regions) {
      total += r.frees;
    }
    return total;
  };

  void* p = ca.allocate(64);
  ASSERT_NE(p, nullptr);
  {
    ScopedSite site("first-free");
    ca.deallocate(p);
  }
  EXPECT_EQ(inner_frees(), 1u);
  {
    ScopedSite site("second-free");
    ca.deallocate(p);
  }
  EXPECT_EQ(inner_frees(), 1u);  // swallowed, not forwarded

  ASSERT_EQ(count(ReportKind::kDoubleFree), 1u);
  ASSERT_EQ(reports().size(), 1u);
  const Report& r = reports()[0];
  EXPECT_EQ(r.kind, ReportKind::kDoubleFree);
  EXPECT_EQ(r.site, "second-free");
  EXPECT_EQ(r.other_site, "first-free");
}

// Double free across transactions: one transaction's deferred free executes
// at its commit; a later transaction freeing the same block is caught.
TEST_F(CheckFixture, TxDoubleFreeAcrossCommitsReported) {
  install(CheckConfig{});
  auto allocator =
      std::make_unique<CheckedAllocator>(alloc::create_allocator("glibc"));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);
  sim::run_parallel(sim_config(1), [&](int) {
    void* p = allocator->allocate(64);
    ASSERT_NE(p, nullptr);
    stm.atomically([&](stm::Tx& tx) { tx.free(p); });
    stm.atomically([&](stm::Tx& tx) { tx.free(p); });  // already gone
  });
  EXPECT_GE(count(ReportKind::kDoubleFree), 1u);
  EXPECT_GE(hard_count(), 1u);
}

TEST_F(CheckFixture, NakedUseAfterFreeIsAlwaysHard) {
  install(CheckConfig{});
  CheckedAllocator ca(alloc::create_allocator("glibc"));
  void* p = ca.allocate(64);
  ASSERT_NE(p, nullptr);
  {
    ScopedSite site("the-free");
    ca.deallocate(p);
  }
  sim::run_parallel(sim_config(1), [&](int) {
    naked_access(p, 8, /*write=*/false, "stale-read");
  });
  ASSERT_EQ(count(ReportKind::kUseAfterFree), 1u);
  EXPECT_EQ(hard_count(), 1u);
  const Report& r = reports()[0];
  EXPECT_EQ(r.site, "stale-read");
  EXPECT_EQ(r.other_site, "the-free");
  EXPECT_EQ(zombie_reads(), 0u);
}

TEST_F(CheckFixture, InvalidFreeReportedAndSwallowed) {
  install(CheckConfig{});
  CheckedAllocator ca(alloc::create_allocator("glibc"));
  void* p = ca.allocate(32);  // turns allocation tracking on
  std::uint64_t local = 0;
  ca.deallocate(&local);  // never allocated; must not reach the model
  ca.deallocate(p);
  EXPECT_EQ(count(ReportKind::kInvalidFree), 1u);
  EXPECT_EQ(count(ReportKind::kDoubleFree), 0u);
}

// ---------------------------------------------------------------------------
// Negative controls: every shipped workload runs check-clean
// ---------------------------------------------------------------------------

// All eight STAMP ports, under the checker with the allocator routed
// through CheckedAllocator (run_stamp interposes it when a checker is
// installed). Zombie reads are benign by construction and allowed; any hard
// finding fails, with the reports printed for diagnosis.
TEST_F(CheckFixture, StampAppsRunCheckClean) {
  CheckConfig cc;
  install(cc);
  for (const std::string& app : stamp::app_names()) {
    reset();
    stamp::StampRun run;
    run.app = app;
    run.allocator = "glibc";
    run.threads = 2;
    run.scale = 0.25;
    run.cache_model = false;
    const stamp::StampOutcome out = stamp::run_stamp(run);
    EXPECT_TRUE(out.result.verified) << app << ": " << out.result.detail;
    if (hard_count() != 0) {
      print_reports(stderr);
    }
    EXPECT_EQ(hard_count(), 0u) << app << " is not check-clean";
  }
}

TEST_F(CheckFixture, StructBenchesRunCheckClean) {
  install(CheckConfig{});
  for (const harness::SetKind kind :
       {harness::SetKind::kList, harness::SetKind::kHashSet,
        harness::SetKind::kRbTree}) {
    reset();
    harness::SetBenchConfig cfg;
    cfg.kind = kind;
    cfg.allocator = "glibc";
    cfg.threads = 4;
    cfg.cache_model = false;
    cfg.initial = 256;
    cfg.key_range = 512;
    cfg.ops_per_thread = 200;
    const harness::SetBenchResult r = harness::run_set_bench(cfg);
    EXPECT_TRUE(r.size_consistent);
    if (hard_count() != 0) {
      print_reports(stderr);
    }
    EXPECT_EQ(hard_count(), 0u) << "set bench " << static_cast<int>(kind)
                                << " is not check-clean";
  }
}

// ---------------------------------------------------------------------------
// The zero-perturbation contract
// ---------------------------------------------------------------------------

// The checker never touches virtual time: a checker-ON run must reproduce
// the checker-OFF schedule bit-for-bit (cycles, commits, aborts). This is
// the same configuration family as the golden determinism tests.
TEST_F(CheckFixture, CheckerOnDoesNotPerturbVirtualTime) {
  const auto run_once = [] {
    harness::SetBenchConfig cfg;
    cfg.kind = harness::SetKind::kList;
    cfg.allocator = "glibc";
    cfg.threads = 4;
    cfg.cache_model = false;  // address-independent (see test_determinism)
    cfg.initial = 512;
    cfg.key_range = 1024;
    cfg.ops_per_thread = 200;
    cfg.seed = 20150207;
    return harness::run_set_bench(cfg);
  };
  const harness::SetBenchResult off = run_once();
  install(CheckConfig{});
  const harness::SetBenchResult on = run_once();
  EXPECT_EQ(hard_count(), 0u);
  clear();

  EXPECT_EQ(off.seconds, on.seconds);  // virtual cycles, exactly
  EXPECT_EQ(off.stats.commits, on.stats.commits);
  EXPECT_EQ(off.stats.aborts, on.stats.aborts);
  EXPECT_EQ(off.stats.extensions, on.stats.extensions);
}

TEST_F(CheckFixture, MetricsPublishFindingCounters) {
  install(CheckConfig{});
  CheckedAllocator ca(alloc::create_allocator("glibc"));
  void* p = ca.allocate(16);
  ca.deallocate(p);
  ca.deallocate(p);
  obs::MetricsRegistry reg;
  publish_metrics(reg);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("check.double_frees"), std::string::npos);
  EXPECT_NE(json.find("check.races"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Phase compaction gated by the publication analysis (full stack)
// ---------------------------------------------------------------------------

struct RelocCapture {
  void* from = nullptr;
  void* to = nullptr;
  int calls = 0;
};

void capture_reloc(void* from, void* to, std::size_t, void* ctx) {
  auto* c = static_cast<RelocCapture*>(ctx);
  c->from = from;
  c->to = to;
  ++c->calls;
}

// The whole pipeline at once: STM commits feed the checker's publication
// fixpoint, a maintenance window compacts the retired phase, and only the
// block the analysis proved private moves. The published block and the
// naked-origin block are vetoed — exactly the conservative gate
// --phase-compact checked promises.
TEST_F(CheckFixture, PhaseCompactionMovesOnlyProvenPrivateBlocks) {
  install(CheckConfig{});
  phase::PhaseConfig pc;
  pc.commits_per_epoch = 1;
  pc.compact = phase::PhaseConfig::Compact::kChecked;
  auto inner = std::make_unique<phase::PhaseAllocator>(pc);
  phase::PhaseAllocator* pa = inner.get();
  RelocCapture moved;
  pa->set_relocation_listener(&capture_reloc, &moved);
  auto allocator = std::make_unique<CheckedAllocator>(std::move(inner));
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);

  std::uint64_t slot = 0;
  void* priv = nullptr;
  void* pub = nullptr;
  void* naked_blk = nullptr;
  sim::run_parallel(sim_config(1), [&](int) {
    naked_blk = allocator->allocate(32);  // non-tx origin: never movable
    stm.atomically([&](stm::Tx& tx) {
      priv = tx.malloc(48);  // commits unpublished: proven private
      pub = tx.malloc(48);
      tx.store(&slot, reinterpret_cast<std::uint64_t>(pub));  // escapes
    });
    std::memset(priv, 0x5d, 48);
    // That commit advanced the epoch and retired phase 0, leaving all
    // three blocks stragglers; the maintenance window compacts them.
    stm.maintenance_quiescence();
  });

  const phase::PhaseStats st = pa->stats();
  EXPECT_EQ(st.compactions, 1u);
  EXPECT_EQ(st.blocks_relocated, 1u);
  EXPECT_GE(st.relocation_vetoes, 2u);  // the published + the naked block
  ASSERT_EQ(moved.calls, 1);
  ASSERT_EQ(moved.from, priv);
  ASSERT_NE(moved.to, nullptr);
  auto* np = static_cast<unsigned char*>(moved.to);
  for (int i = 0; i < 48; ++i) {
    ASSERT_EQ(np[i], 0x5d) << "byte " << i;
  }

  // Positive control: a stale touch of the old range is a hard
  // use-after-free attributed to the compaction tombstone, not a silent
  // read of dead memory.
  sim::run_parallel(sim_config(1), [&](int) {
    naked_access(priv, 8, /*write=*/false, "stale-read");
  });

  // Frees through the stale pointer are redirected to the moved block
  // (checker relocation table + allocator forwarding agree), so every
  // block is accounted for. This must happen before querying findings:
  // the first query flushes still-unfreed privatized blocks as leaks.
  allocator->deallocate(priv);
  allocator->deallocate(pub);
  allocator->deallocate(naked_blk);
  EXPECT_EQ(pa->live_bytes(), 0u);

  ASSERT_EQ(count(ReportKind::kUseAfterFree), 1u);
  EXPECT_EQ(hard_count(), 1u);
  bool saw_uaf = false;
  for (const Report& r : reports()) {
    if (r.kind != ReportKind::kUseAfterFree) continue;
    saw_uaf = true;
    EXPECT_EQ(r.site, "stale-read");
    EXPECT_EQ(r.other_site, "phase-compaction");
  }
  EXPECT_TRUE(saw_uaf);
  EXPECT_EQ(count(ReportKind::kInvalidFree), 0u);
  EXPECT_EQ(count(ReportKind::kDoubleFree), 0u);
  EXPECT_EQ(count(ReportKind::kTxLeak), 0u);
}

// An in-flight reader pins its begin-epoch: maintenance during the window
// must neither reclaim nor relocate anything the reader could still touch.
TEST_F(CheckFixture, InflightTransactionBlocksCompactionOfItsEpoch) {
  install(CheckConfig{});
  phase::PhaseConfig pc;
  pc.commits_per_epoch = 1;
  pc.compact = phase::PhaseConfig::Compact::kChecked;
  auto inner = std::make_unique<phase::PhaseAllocator>(pc);
  phase::PhaseAllocator* pa = inner.get();
  auto allocator = std::make_unique<CheckedAllocator>(std::move(inner));

  // Thread 1 opens a transaction in epoch 0 and stays in flight (hinting
  // directly, the way a stalled reader looks to the allocator).
  allocator->tx_begin_hint(1);
  allocator->tx_begin_hint(0);
  void* p = allocator->allocate(48);
  allocator->tx_commit_hint(0);  // epoch -> 1, phase 0 retired
  void* q = allocator->allocate(16);  // detach thread 0 from phase 0

  // force_quiesce: the sim-external quiescent point (on_quiescence is a
  // no-op outside run_parallel, where the STM would call it).
  pa->force_quiesce();
  EXPECT_EQ(pa->stats().blocks_relocated, 0u);
  EXPECT_EQ(pa->stats().phases_reclaimed, 0u);

  allocator->tx_commit_hint(1);
  allocator->deallocate(p);
  allocator->deallocate(q);
  pa->force_quiesce();
  EXPECT_GE(pa->stats().phases_reclaimed, 1u);
  EXPECT_EQ(hard_count(), 0u);
}

}  // namespace
}  // namespace tmx::check
