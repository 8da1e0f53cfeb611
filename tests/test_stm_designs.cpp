// The STM's alternative designs: write-through ETL and the hybrid
// (best-effort HTM + STM fallback) execution mode.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "harness/setbench.hpp"
#include "obs/metrics.hpp"
#include "prof/prof.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tmx::stm {
namespace {

sim::RunConfig sim_cfg(int threads) {
  sim::RunConfig rc;
  rc.threads = threads;
  rc.cache_model = false;
  return rc;
}

struct DesignFixture : ::testing::TestWithParam<StmDesign> {
  void SetUp() override {
    allocator = alloc::create_allocator("system");
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.design = GetParam();
    stm = std::make_unique<Stm>(cfg);
  }
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<Stm> stm;
};

TEST_P(DesignFixture, CommitMakesWritesVisible) {
  alignas(8) std::uint64_t x = 1;
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{7}); });
  EXPECT_EQ(x, 7u);
}

TEST_P(DesignFixture, AbortLeavesMemoryUntouched) {
  alignas(8) std::uint64_t x = 5;
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{99});
    if (++attempts == 1) tx.restart();
  });
  EXPECT_EQ(x, 99u);
  EXPECT_EQ(attempts, 2);
}

TEST_P(DesignFixture, ReadOwnWrite) {
  alignas(8) std::uint64_t x = 1;
  stm->atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{2});
    EXPECT_EQ(tx.load(&x), 2u);
    tx.store(&x, std::uint64_t{3});
    EXPECT_EQ(tx.load(&x), 3u);
  });
  EXPECT_EQ(x, 3u);
}

TEST_P(DesignFixture, PartialWordWrites) {
  struct alignas(8) S {
    std::uint32_t a, b;
  } s{1, 2};
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    tx.store(&s.a, std::uint32_t{10});
    if (++attempts == 1) tx.restart();
    EXPECT_EQ(tx.load(&s.b), 2u);
  });
  EXPECT_EQ(s.a, 10u);
  EXPECT_EQ(s.b, 2u);
}

TEST_P(DesignFixture, ConcurrentCountersStayAtomic) {
  alignas(8) std::uint64_t counter = 0;
  sim::run_parallel(sim_cfg(8), [&](int) {
    for (int i = 0; i < 100; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&counter, tx.load(&counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, 800u);
}

TEST_P(DesignFixture, IsolationUnderConcurrentTransfers) {
  std::vector<std::uint64_t> accounts(32, 100);
  sim::run_parallel(sim_cfg(6), [&](int tid) {
    Rng rng(thread_seed(17, tid));
    for (int i = 0; i < 80; ++i) {
      const std::size_t a = rng.below(32), b = rng.below(32);
      if (a == b) continue;
      stm->atomically([&](Tx& tx) {
        const std::uint64_t va = tx.load(&accounts[a]);
        if (va == 0) return;
        tx.store(&accounts[a], va - 1);
        tx.store(&accounts[b], tx.load(&accounts[b]) + 1);
      });
    }
  });
  std::uint64_t total = 0;
  for (auto v : accounts) total += v;
  EXPECT_EQ(total, 3200u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, DesignFixture,
    ::testing::Values(StmDesign::kWriteBackEtl, StmDesign::kWriteThroughEtl,
                      StmDesign::kCommitTimeLocking),
    [](const auto& pinfo) {
      switch (pinfo.param) {
        case StmDesign::kWriteBackEtl: return "WriteBack";
        case StmDesign::kWriteThroughEtl: return "WriteThrough";
        case StmDesign::kCommitTimeLocking: return "CommitTime";
      }
      return "?";
    });

TEST(CommitTimeLocking, StoresDoNotLockUntilCommit) {
  auto allocator = alloc::create_allocator("system");
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.design = StmDesign::kCommitTimeLocking;
  Stm ctl(cfg);
  alignas(8) std::uint64_t x = 1;
  // A concurrent reader between a CTL store and its commit does not see a
  // lock (encounter-time designs would abort it).
  sim::RunConfig rc;
  rc.threads = 2;
  rc.cache_model = false;
  std::atomic<int> reader_aborts{-1};
  sim::run_parallel(rc, [&](int tid) {
    if (tid == 0) {
      ctl.atomically([&](Tx& tx) {
        tx.store(&x, std::uint64_t{5});
        sim::tick(5000);  // long window before commit
      });
    } else {
      sim::tick(100);  // read inside the writer's pre-commit window
      ctl.atomically([&](Tx& tx) { tx.load(&x); });
      reader_aborts = static_cast<int>(ctl.thread_stats(1).aborts);
    }
  });
  EXPECT_EQ(x, 5u);
  // The reader may abort at most on commit-time validation, never on a
  // read-locked stripe during the window.
  EXPECT_EQ(ctl.stats().aborts_by_cause[static_cast<int>(
                AbortCause::kReadLocked)], 0u);
}

TEST(WriteThrough, MemoryUpdatedBeforeCommit) {
  auto allocator = alloc::create_allocator("system");
  Config cfg;
  cfg.allocator = allocator.get();
  cfg.design = StmDesign::kWriteThroughEtl;
  Stm stm(cfg);
  alignas(8) std::uint64_t x = 1;
  stm.atomically([&](Tx& tx) {
    tx.store(&x, std::uint64_t{2});
    EXPECT_EQ(x, 2u);  // write-through: memory already holds the value
  });
}

TEST(WriteThrough, SetBenchSemanticsHold) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kRbTree;
  cfg.allocator = "tbb";
  cfg.threads = 6;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 64;
  cfg.design = StmDesign::kWriteThroughEtl;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
}

// ---------------------------------------------------------------------------
// Hybrid mode
// ---------------------------------------------------------------------------

struct HybridFixture : ::testing::Test {
  void SetUp() override { make(0.0); }
  void make(double spurious, int attempts = 3) {
    allocator = alloc::create_allocator("tcmalloc");
    Config cfg;
    cfg.allocator = allocator.get();
    cfg.htm.enabled = true;
    cfg.htm.attempts = attempts;
    cfg.htm.spurious_abort = spurious;
    stm = std::make_unique<Stm>(cfg);
  }
  std::unique_ptr<alloc::Allocator> allocator;
  std::unique_ptr<Stm> stm;
};

TEST_F(HybridFixture, UncontendedTransactionsCommitInHardware) {
  alignas(8) std::uint64_t x = 0;
  for (int i = 0; i < 50; ++i) {
    stm->atomically([&](Tx& tx) { tx.store(&x, tx.load(&x) + 1); });
  }
  EXPECT_EQ(x, 50u);
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_commits, 50u);
  EXPECT_EQ(st.commits, 0u);  // never needed the software path
  EXPECT_EQ(st.fallbacks, 0u);
}

TEST_F(HybridFixture, CapacityOverflowFallsBackToSoftware) {
  std::vector<std::uint64_t> big(256, 0);  // > max_write_entries stripes
  stm->atomically([&](Tx& tx) {
    for (auto& w : big) tx.store(&w, std::uint64_t{1});
  });
  for (auto w : big) EXPECT_EQ(w, 1u);
  const auto st = stm->stats();
  EXPECT_GT(st.hw_aborts_by_cause[static_cast<int>(
                HwAbortCause::kCapacity)], 0u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.commits, 1u);  // the software path finished the job
}

TEST_F(HybridFixture, SpuriousAbortsAreSurvivable) {
  make(1.0, 2);  // every hardware commit aborts spuriously
  alignas(8) std::uint64_t x = 0;
  stm->atomically([&](Tx& tx) { tx.store(&x, std::uint64_t{1}); });
  EXPECT_EQ(x, 1u);
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_commits, 0u);
  EXPECT_EQ(st.hw_aborts_by_cause[static_cast<int>(
                HwAbortCause::kSpurious)], 2u);
  EXPECT_EQ(st.fallbacks, 1u);
}

TEST_F(HybridFixture, AbortedHardwareAllocationsAreReleased) {
  make(1.0, 1);
  void* hw_ptr = nullptr;
  stm->atomically([&](Tx& tx) {
    void* p = tx.malloc(64);
    if (hw_ptr == nullptr) hw_ptr = p;
  });
  // The hardware attempt's allocation went back to the allocator; the
  // software retry got the same block (tcmalloc LIFO cache).
  EXPECT_NE(hw_ptr, nullptr);
}

TEST_F(HybridFixture, ContendedCountersStayAtomic) {
  alignas(8) std::uint64_t counter = 0;
  sim::run_parallel(sim_cfg(8), [&](int) {
    for (int i = 0; i < 100; ++i) {
      stm->atomically([&](Tx& tx) {
        tx.store(&counter, tx.load(&counter) + 1);
      });
    }
  });
  EXPECT_EQ(counter, 800u);
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_commits + st.commits, 800u);
  EXPECT_GT(st.hw_commits, 0u);
}

TEST_F(HybridFixture, MixedHardwareSoftwareTransfersStayIsolated) {
  make(0.2);  // force frequent fallbacks so both paths run concurrently
  std::vector<std::uint64_t> accounts(16, 100);
  sim::run_parallel(sim_cfg(8), [&](int tid) {
    Rng rng(thread_seed(23, tid));
    for (int i = 0; i < 60; ++i) {
      const std::size_t a = rng.below(16), b = rng.below(16);
      if (a == b) continue;
      stm->atomically([&](Tx& tx) {
        const std::uint64_t va = tx.load(&accounts[a]);
        if (va == 0) return;
        tx.store(&accounts[a], va - 1);
        tx.store(&accounts[b], tx.load(&accounts[b]) + 1);
      });
    }
  });
  std::uint64_t total = 0;
  for (auto v : accounts) total += v;
  EXPECT_EQ(total, 1600u);
  const auto st = stm->stats();
  EXPECT_GT(st.hw_commits, 0u);
  EXPECT_GT(st.commits, 0u);  // both paths exercised
}

TEST_F(HybridFixture, SetBenchWorksInHybridMode) {
  harness::SetBenchConfig cfg;
  cfg.kind = harness::SetKind::kHashSet;
  cfg.allocator = "hoard";
  cfg.threads = 4;
  cfg.initial = 256;
  cfg.key_range = 512;
  cfg.ops_per_thread = 64;
  cfg.htm_enabled = true;
  const auto res = harness::run_set_bench(cfg);
  EXPECT_TRUE(res.size_consistent);
  EXPECT_GT(res.stats.hw_commits, 0u);
}

TEST_F(HybridFixture, RestartInsideHardwareFallsThrough) {
  int attempts = 0;
  stm->atomically([&](Tx& tx) {
    ++attempts;
    if (attempts <= 4) tx.restart();  // exhausts 3 hw attempts + 1 sw abort
  });
  const auto st = stm->stats();
  EXPECT_EQ(st.hw_aborts_by_cause[static_cast<int>(
                HwAbortCause::kExplicit)], 3u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.commits, 1u);
  EXPECT_EQ(attempts, 5);
}

// Refuses the first `refusals` allocations, then forwards.
class RefuseFirst final : public alloc::ForwardingAllocator {
 public:
  RefuseFirst(std::unique_ptr<alloc::Allocator> inner, int refusals)
      : ForwardingAllocator(std::move(inner)), refusals_(refusals) {}
  void* allocate(std::size_t size) override {
    if (refusals_ > 0) {
      --refusals_;
      return nullptr;
    }
    return inner_->allocate(size);
  }
  void deallocate(void* p) override { inner_->deallocate(p); }

 private:
  int refusals_;
};

// A software abort cause raised on the hardware path (here Tx::malloc's
// OOM) rolls the attempt back as HwAbortCause::kExplicit, exactly like
// restart(); the software fallback then allocates and commits.
TEST(HybridOom, OomInsideHardwareIsExplicitAndFallsBack) {
  RefuseFirst refusing(alloc::create_allocator("tcmalloc"), 3);
  Config cfg;
  cfg.allocator = &refusing;
  cfg.htm.enabled = true;
  cfg.htm.attempts = 3;
  cfg.htm.spurious_abort = 0.0;
  Stm stm(cfg);
  alignas(8) std::uint64_t* published = nullptr;
  int attempts = 0;
  stm.atomically([&](Tx& tx) {
    ++attempts;
    auto* p = static_cast<std::uint64_t*>(tx.malloc(32));
    tx.store(p, std::uint64_t{5});
    tx.store(&published, p);
  });
  ASSERT_NE(published, nullptr);
  EXPECT_EQ(*published, 5u);
  const TxStats st = stm.stats();
  EXPECT_EQ(attempts, 4);
  EXPECT_EQ(st.hw_aborts_by_cause[static_cast<int>(HwAbortCause::kExplicit)],
            3u);
  EXPECT_EQ(st.hw_aborts(), 3u);
  EXPECT_EQ(st.oom_nulls, 3u);
  EXPECT_EQ(st.fallbacks, 1u);
  EXPECT_EQ(st.aborts, 0u);  // the software attempt committed first time
  EXPECT_EQ(st.commits, 1u);
  stm.seq_free(published);
}

// ---------------------------------------------------------------------------
// Lifecycle events balance on every commit and abort path
// ---------------------------------------------------------------------------

// Counts the STM's transaction hints per thread.
class HintRecorder final : public alloc::ForwardingAllocator {
 public:
  using ForwardingAllocator::ForwardingAllocator;
  void* allocate(std::size_t size) override { return inner_->allocate(size); }
  void deallocate(void* p) override { inner_->deallocate(p); }
  bool wants_tx_hints() const override { return true; }
  void tx_begin_hint(int tid) override { ++begins[tid]; }
  void tx_commit_hint(int tid) override { ++commits[tid]; }
  void tx_abort_hint(int tid) override { ++aborts[tid]; }

  std::array<std::uint64_t, kMaxThreads> begins{};
  std::array<std::uint64_t, kMaxThreads> commits{};
  std::array<std::uint64_t, kMaxThreads> aborts{};
};

struct LifecycleCase {
  const char* name;
  StmDesign design = StmDesign::kWriteBackEtl;
  bool hybrid = false;
  unsigned retry_cap = 0;
  bool tx_alloc_cache = false;
};

std::ostream& operator<<(std::ostream& os, const LifecycleCase& c) {
  return os << c.name;
}

std::string lifecycle_case_name(
    const ::testing::TestParamInfo<LifecycleCase>& info) {
  return info.param.name;
}

class LifecycleBalance : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(LifecycleBalance, EveryBeginEndsInOneCommitOrAbortEvent) {
  const LifecycleCase& c = GetParam();
  HintRecorder rec(alloc::create_allocator("glibc"));
  Config cfg;
  cfg.allocator = &rec;
  cfg.design = c.design;
  cfg.retry_cap = c.retry_cap;
  cfg.tx_alloc_cache = c.tx_alloc_cache;
  cfg.htm.enabled = c.hybrid;
  cfg.htm.attempts = 2;
  cfg.htm.spurious_abort = 0.3;
  prof::ProfConfig pcfg;
  pcfg.sample_cycles = 0;
  prof::install(pcfg);
  std::uint64_t prof_commits = 0;
  std::uint64_t prof_aborts = 0;
  TxStats total;
  {
    Stm stm(cfg);
    constexpr int kThreads = 4;
    alignas(8) std::uint64_t counters[2] = {};
    sim::run_parallel(sim_cfg(kThreads), [&](int) {
      void* held = nullptr;
      for (int i = 0; i < 40; ++i) {
        void* next = nullptr;
        bool restarted = false;
        stm.atomically([&](Tx& tx) {
          // Shared counters make the threads conflict; the allocation and
          // the free of the previous block exercise tx_allocs_/tx_frees_
          // on every exit, and an explicit restart hits each path's
          // explicit-abort handling.
          std::uint64_t* ctr = &counters[i % 2];
          tx.store(ctr, tx.load(ctr) + 1);
          next = tx.malloc(48);
          tx.free(held);
          if (i % 7 == 0 && !restarted) {
            restarted = true;
            tx.restart();
          }
        });
        held = next;
        // A read-only transaction: the other commit exit.
        stm.atomically([&](Tx& tx) { (void)tx.load(&counters[0]); });
      }
      stm.atomically([&](Tx& tx) { tx.free(held); });
    });
    EXPECT_EQ(counters[0] + counters[1], kThreads * 40u);
    for (int t = 0; t < kThreads; ++t) {
      const TxStats& st = stm.thread_stats(t);
      EXPECT_EQ(rec.begins[t], rec.commits[t] + rec.aborts[t]) << "tid " << t;
      EXPECT_EQ(rec.commits[t], st.commits + st.hw_commits) << "tid " << t;
      EXPECT_EQ(rec.aborts[t], st.aborts + st.hw_aborts()) << "tid " << t;
    }
    total = stm.stats();
    prof_commits = prof::op_count(prof::Op::kTxCommit);
    obs::MetricsRegistry reg;
    prof::publish_metrics(reg);
    prof_aborts = reg.counter("prof.aborts");
  }
  prof::uninstall();
  EXPECT_EQ(prof_commits, total.commits + total.hw_commits);
  EXPECT_EQ(prof_aborts, total.aborts + total.hw_aborts());
  // Each configuration reached the paths it is meant to cover.
  EXPECT_GT(total.aborts, 0u);
  if (c.hybrid) {
    EXPECT_GT(total.hw_commits, 0u);
    EXPECT_GT(total.hw_aborts(), 0u);
    EXPECT_GT(total.fallbacks, 0u);
  }
  if (c.retry_cap != 0) {
    EXPECT_GT(total.irrevocable_commits, 0u);
  }
  if (c.tx_alloc_cache) {
    EXPECT_GT(total.alloc_cache_hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paths, LifecycleBalance,
    ::testing::Values(
        LifecycleCase{"WriteBackEtl"},
        LifecycleCase{"CommitTimeLocking", StmDesign::kCommitTimeLocking},
        LifecycleCase{"HybridWithFallback", StmDesign::kWriteBackEtl,
                      /*hybrid=*/true},
        LifecycleCase{"Irrevocable", StmDesign::kWriteBackEtl,
                      /*hybrid=*/false, /*retry_cap=*/1},
        LifecycleCase{"TxAllocCache", StmDesign::kWriteBackEtl,
                      /*hybrid=*/false, /*retry_cap=*/0,
                      /*tx_alloc_cache=*/true}),
    lifecycle_case_name);

}  // namespace
}  // namespace tmx::stm
