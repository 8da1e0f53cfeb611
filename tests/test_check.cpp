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

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
#include "util/rng.hpp"

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
// Vector-clock width across regions
// ---------------------------------------------------------------------------

// Joins cover only the clock components of threads seen so far. An 8-thread
// region followed by a 4-thread region must keep the edges of threads 4..7:
// the join after the wide region orders every worker's write before the
// narrow region's reads, so no race may be reported.
TEST_F(CheckFixture, NarrowRegionAfterWideRegionKeepsEdges) {
  install(CheckConfig{});
  std::uint64_t words[8] = {};
  sim::run_parallel(sim_config(8), [&](int tid) {
    sim::tick(10 * static_cast<std::uint64_t>(tid + 1));
    TMX_NAKED_ACCESS(&words[tid], sizeof(words[tid]), /*is_write=*/true);
    words[tid] = static_cast<std::uint64_t>(tid + 1);
  });
  sim::run_parallel(sim_config(4), [&](int tid) {
    sim::tick(10 * static_cast<std::uint64_t>(tid + 1));
    for (std::uint64_t& w : words) {
      TMX_NAKED_ACCESS(&w, sizeof(w), /*is_write=*/false);
      EXPECT_NE(w, 0u);
    }
  });
  EXPECT_EQ(count(ReportKind::kRace), 0u);
  EXPECT_EQ(hard_count(), 0u);
}

// ---------------------------------------------------------------------------
// Differential: the checker against an ordered-map reference
// ---------------------------------------------------------------------------

// The race prong and the tombstone lookups written the straightforward way:
// one std::map entry and one record vector per word ever touched, tombstones
// probed with upper_bound, full-width vector clocks. Fed the same hook
// stream as the checker, it must produce the same counts and the same
// report list, in the same order.
class MapChecker {
 public:
  void fork(int threads) {
    in_parallel_ = true;
    for (int t = 1; t < threads; ++t) {
      join_into(vc_[t], vc_[0]);
      ++vc_[t][t];
    }
    ++vc_[0][0];
  }
  void join(int threads) {
    in_parallel_ = false;
    for (int t = 1; t < threads; ++t) {
      ++vc_[t][t];
      join_into(vc_[0], vc_[t]);
    }
  }
  void lock_acquired(int tid, const void* l) {
    if (!in_parallel_) return;
    auto it = locks_.find(l);
    if (it != locks_.end()) join_into(vc_[tid], it->second);
  }
  void lock_released(int tid, const void* l) {
    if (!in_parallel_) return;
    join_into(locks_[l], vc_[tid]);
    ++vc_[tid][tid];
  }
  void tx_begin(int tid) {
    if (in_parallel_) join_into(vc_[tid], global_);
  }
  void tx_commit(int tid, const std::vector<std::uintptr_t>& words) {
    for (std::uintptr_t w : words) race(tid, w, 8, true, true, nullptr);
    if (!words.empty() && in_parallel_) {
      join_into(global_, vc_[tid]);
      ++vc_[tid][tid];
    }
  }
  void naked(int tid, std::uintptr_t a, std::size_t n, bool write,
             const char* site) {
    if (tracking_ && touches_tomb(a, n)) {
      freed_touch(ReportKind::kUseAfterFree, tid, a, write, site);
    }
    race(tid, a, n, write, false, site);
  }
  bool tx_access(int tid, std::uintptr_t a, std::size_t n, bool write,
                 bool in_place) {
    if (!write || in_place) race(tid, a, n, write, true, nullptr);
    return tracking_ && touches_tomb(a, n);
  }
  void tx_freed(int tid, std::uintptr_t a, bool write, bool doomed) {
    freed_touch(doomed ? ReportKind::kZombieRead : ReportKind::kUseAfterFree,
                tid, a, write, nullptr);
  }
  void alloc(std::uintptr_t a, std::size_t size) {
    tracking_ = true;
    const std::uintptr_t end = a + size;
    auto t = tombs_.upper_bound(a);
    if (t != tombs_.begin() &&
        std::prev(t)->first + std::prev(t)->second.size > a) {
      --t;
    }
    while (t != tombs_.end() && t->first < end) t = tombs_.erase(t);
    auto w = shadow_.lower_bound(a & ~std::uintptr_t{7});
    while (w != shadow_.end() && w->first < end) w = shadow_.erase(w);
    live_[a] = size;
  }
  void free(int tid, std::uintptr_t a) {
    tombs_[a] = Tomb{live_.at(a), tid, sim::now_cycles()};
    live_.erase(a);
  }

  std::vector<Report> reports;
  std::uint64_t counts[kNumReportKinds] = {};

 private:
  using Clock = std::array<std::uint64_t, kMaxThreads>;
  struct Rec {
    std::uint64_t clk;
    std::uint64_t cycle;
    const char* site;
    int tid;
    std::uint8_t mask;
    bool is_write;
    bool is_tx;
  };
  struct Tomb {
    std::size_t size;
    int free_tid;
    std::uint64_t free_cycle;
  };

  static void join_into(Clock& into, const Clock& from) {
    for (int i = 0; i < kMaxThreads; ++i) into[i] = std::max(into[i], from[i]);
  }
  static const char* label(const char* site) { return site ? site : "?"; }

  Report base(ReportKind kind, int tid, std::uintptr_t addr,
              const char* site) const {
    Report r;
    r.kind = kind;
    r.tid = tid;
    r.cycle = sim::now_cycles();
    r.addr = addr;
    r.stripe = (addr >> 5) & ((std::size_t{1} << 20) - 1);
    r.site = label(site);
    return r;
  }
  void emit(Report r) {
    ++counts[static_cast<int>(r.kind)];
    for (const Report& prev : reports) {
      if (prev.kind == r.kind && prev.site == r.site &&
          prev.other_site == r.other_site) {
        return;
      }
    }
    if (reports.size() < CheckConfig{}.max_reports) reports.push_back(r);
  }
  const std::pair<const std::uintptr_t, Tomb>* find_tomb(
      std::uintptr_t a) const {
    auto it = tombs_.upper_bound(a);
    if (it == tombs_.begin()) return nullptr;
    --it;
    return a < it->first + it->second.size ? &*it : nullptr;
  }
  bool touches_tomb(std::uintptr_t a, std::size_t n) const {
    return find_tomb(a) != nullptr ||
           (n > 1 && find_tomb(a + n - 1) != nullptr);
  }
  void freed_touch(ReportKind kind, int tid, std::uintptr_t a, bool write,
                   const char* site) {
    Report r = base(kind, tid, a, site);
    if (const auto* t = find_tomb(a)) {
      r.other_tid = t->second.free_tid;
      r.other_cycle = t->second.free_cycle;
      r.other_site = "?";
      r.detail = std::string(write ? "write to" : "read of") +
                 " freed block (allocated at ?)";
    } else {
      r.detail = write ? "write to freed memory" : "read of freed memory";
    }
    emit(std::move(r));
  }
  void race(int tid, std::uintptr_t a, std::size_t n, bool write, bool is_tx,
            const char* site) {
    if (!in_parallel_) return;
    while (n > 0) {
      const std::uintptr_t word = a & ~std::uintptr_t{7};
      const unsigned off = static_cast<unsigned>(a - word);
      const unsigned take =
          static_cast<unsigned>(std::min<std::size_t>(n, 8 - off));
      word_access(tid, word,
                  static_cast<std::uint8_t>(((1u << take) - 1u) << off),
                  write, is_tx, site);
      a += take;
      n -= take;
    }
  }
  void word_access(int tid, std::uintptr_t word, std::uint8_t mask,
                   bool write, bool is_tx, const char* site) {
    const Clock& my = vc_[tid];
    std::vector<Rec>& recs = shadow_[word];
    for (const Rec& rec : recs) {
      if ((rec.mask & mask) == 0 || (!write && !rec.is_write) ||
          rec.tid == tid || (is_tx && rec.is_tx) ||
          rec.clk <= my[rec.tid]) {
        continue;
      }
      Report r = base(ReportKind::kRace, tid, word, site);
      r.other_tid = rec.tid;
      r.other_cycle = rec.cycle;
      r.other_site = rec.site;
      r.detail = std::string(is_tx ? "tx " : "naked ") +
                 (write ? "write" : "read") + " races with " +
                 (rec.is_tx ? "tx " : "naked ") +
                 (rec.is_write ? "write" : "read");
      emit(std::move(r));
    }
    for (Rec& rec : recs) {
      if ((rec.mask & mask) != 0 &&
          (write || (rec.tid == tid && !rec.is_write))) {
        rec.mask &= static_cast<std::uint8_t>(~mask);
      }
    }
    std::erase_if(recs, [](const Rec& r) { return r.mask == 0; });
    recs.push_back(Rec{my[tid], sim::now_cycles(), label(site), tid, mask,
                       write, is_tx});
  }

  bool in_parallel_ = false;
  bool tracking_ = false;
  std::array<Clock, kMaxThreads> vc_{};
  Clock global_{};
  std::map<const void*, Clock> locks_;
  std::map<std::uintptr_t, std::vector<Rec>> shadow_;
  std::map<std::uintptr_t, Tomb> tombs_;
  std::map<std::uintptr_t, std::size_t> live_;
};

// One step of the stream, run by thread `tid`.
struct StreamOp {
  enum Kind { kNaked, kTx, kLock, kAlloc, kFree } kind;
  int tid;
  std::uint64_t delay;
  // kNaked: one access. kTx: a whole transaction (reads, buffered or
  // write-through writes), committed. kAlloc/kFree: a block of the arena.
  struct Access {
    std::uintptr_t addr;
    std::size_t bytes;
    bool write;
    bool in_place;
    bool doomed;
  };
  std::vector<Access> accesses;
  const char* site = nullptr;
  int lock = 0;
  std::uintptr_t block = 0;
  std::size_t size = 0;
};

// A seeded stream over a small synthetic arena (never dereferenced) that
// straddles a 4 KiB page and a 16 MiB region boundary. Blocks start on 4- or
// 8-byte boundaries with sizes of 1..96 bytes, so recycling a range clears
// partial words and overlaps older tombstones.
std::vector<StreamOp> make_stream(std::uint64_t seed, int threads,
                                  std::size_t n) {
  static const char* const kSites[] = {"site:a", "site:b", "site:c",
                                       "site:d", "site:e"};
  constexpr std::uintptr_t kBase = (std::uintptr_t{3} << 24) - 3000;
  constexpr std::size_t kArena = 6000;
  Rng rng(seed);
  std::map<std::uintptr_t, std::size_t> live;
  const auto pick_range = [&](std::size_t max_bytes) {
    const std::size_t bytes = rng.range(1, max_bytes);
    return std::pair{kBase + rng.below(kArena - bytes), bytes};
  };
  std::vector<StreamOp> ops;
  while (ops.size() < n) {
    StreamOp op{};
    op.tid = static_cast<int>(rng.below(static_cast<std::uint64_t>(threads)));
    op.delay = rng.below(40);
    const std::uint64_t roll = rng.below(100);
    if (roll < 30) {
      op.kind = StreamOp::kNaked;
      const auto [a, bytes] = pick_range(16);
      op.accesses.push_back({a, bytes, rng.below(2) == 0, false, false});
      op.site = kSites[rng.below(5)];
    } else if (roll < 70) {
      op.kind = StreamOp::kTx;
      const std::uint64_t k = rng.range(1, 4);
      const bool in_place = rng.below(4) == 0;
      for (std::uint64_t i = 0; i < k; ++i) {
        const auto [a, bytes] = pick_range(16);
        op.accesses.push_back(
            {a, bytes, rng.below(3) == 0, in_place, rng.below(2) == 0});
      }
    } else if (roll < 82) {
      op.kind = StreamOp::kLock;
      op.lock = static_cast<int>(rng.below(3));
    } else if (roll < 93 || live.empty()) {
      op.kind = StreamOp::kAlloc;
      op.size = rng.range(1, 96);
      op.block = kBase + 4 * rng.below((kArena - op.size) / 4);
      auto next = live.lower_bound(op.block);
      const bool clear_after =
          next == live.end() || next->first >= op.block + op.size;
      const bool clear_before =
          next == live.begin() ||
          std::prev(next)->first + std::prev(next)->second <= op.block;
      if (!clear_after || !clear_before) continue;  // blocks never overlap
      live[op.block] = op.size;
    } else {
      op.kind = StreamOp::kFree;
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      op.block = it->first;
      live.erase(it);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

// Runs `ops` in stream order, each by its own thread, through both the
// checker's public hooks and the reference.
void run_stream(const std::vector<StreamOp>& ops, int threads,
                MapChecker& ref) {
  sim::SpinLock locks[3];
  std::size_t cursor = 0;
  ref.fork(threads);
  sim::run_parallel(sim_config(threads), [&](int tid) {
    for (;;) {
      while (cursor < ops.size() && ops[cursor].tid != tid) {
        sim::tick(1);
        sim::yield();
      }
      if (cursor == ops.size()) return;
      const StreamOp& op = ops[cursor];
      sim::tick(op.delay);
      switch (op.kind) {
        case StreamOp::kNaked: {
          const StreamOp::Access& x = op.accesses[0];
          naked_access(reinterpret_cast<const void*>(x.addr), x.bytes,
                       x.write, op.site);
          ref.naked(tid, x.addr, x.bytes, x.write, op.site);
          break;
        }
        case StreamOp::kTx: {
          on_tx_begin(tid);
          ref.tx_begin(tid);
          std::vector<CommittedWrite> cw;
          std::vector<std::uintptr_t> words;
          for (const StreamOp::Access& x : op.accesses) {
            const void* p = reinterpret_cast<const void*>(x.addr);
            const bool freed =
                on_tx_access(tid, p, x.bytes, x.write, x.in_place);
            EXPECT_EQ(freed,
                      ref.tx_access(tid, x.addr, x.bytes, x.write, x.in_place));
            if (freed) {
              on_tx_freed_access(tid, p, x.write, x.doomed);
              ref.tx_freed(tid, x.addr, x.write, x.doomed);
            }
            if (!x.write) continue;
            for (std::uintptr_t w = x.addr & ~std::uintptr_t{7};
                 w < x.addr + x.bytes; w += 8) {
              if (std::find(words.begin(), words.end(), w) != words.end()) {
                continue;
              }
              words.push_back(w);
              cw.push_back(CommittedWrite{w, 0xff, 0});
            }
          }
          on_tx_commit(tid, cw.data(), cw.size(), nullptr, 0, nullptr, 0,
                       !cw.empty());
          ref.tx_commit(tid, words);
          break;
        }
        case StreamOp::kLock: {
          sim::SpinLock& l = locks[op.lock];
          l.lock();
          ref.lock_acquired(tid, &l);
          l.unlock();
          ref.lock_released(tid, &l);
          break;
        }
        case StreamOp::kAlloc:
          on_block_alloc(reinterpret_cast<void*>(op.block), op.size);
          ref.alloc(op.block, op.size);
          break;
        case StreamOp::kFree:
          EXPECT_TRUE(on_block_free(reinterpret_cast<void*>(op.block)));
          ref.free(tid, op.block);
          break;
      }
      ++cursor;
    }
  });
  ref.join(threads);
}

// The flat shadow, the freed-word filter and the bounded vector clocks
// against the reference, over seeded streams of naked and transactional
// accesses, lock and commit edges, and alloc/free/recycle, in regions of
// 4-8 threads (a narrow region after a wide one included).
TEST_F(CheckFixture, MatchesOrderedMapReferenceOnSeededStreams) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    install(CheckConfig{});
    MapChecker ref;
    Rng rng(seed * 7919);
    for (int region = 0; region < 3; ++region) {
      const int threads = static_cast<int>(rng.range(4, 8));
      run_stream(make_stream(seed * 31 + region, threads, 1500), threads,
                 ref);
    }
    for (int k = 0; k < kNumReportKinds; ++k) {
      EXPECT_EQ(count(static_cast<ReportKind>(k)), ref.counts[k])
          << report_kind_name(static_cast<ReportKind>(k));
    }
    EXPECT_GT(ref.counts[static_cast<int>(ReportKind::kRace)], 0u);
    EXPECT_GT(ref.counts[static_cast<int>(ReportKind::kUseAfterFree)], 0u);
    EXPECT_GT(ref.counts[static_cast<int>(ReportKind::kZombieRead)], 0u);
    const std::vector<Report>& got = reports();
    ASSERT_EQ(got.size(), ref.reports.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("report " + std::to_string(i));
      const Report& a = got[i];
      const Report& b = ref.reports[i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.tid, b.tid);
      EXPECT_EQ(a.cycle, b.cycle);
      EXPECT_EQ(a.addr, b.addr);
      EXPECT_EQ(a.stripe, b.stripe);
      EXPECT_EQ(a.site, b.site);
      EXPECT_EQ(a.other_tid, b.other_tid);
      EXPECT_EQ(a.other_cycle, b.other_cycle);
      EXPECT_EQ(a.other_site, b.other_site);
      EXPECT_EQ(a.detail, b.detail);
    }
    clear();
  }
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
