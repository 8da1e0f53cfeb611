// Deeper properties of the simulation engine: virtual-time semantics of
// locks (busy_until propagation), advance_to, scheduling fairness across
// thread counts, and probe behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"

namespace tmx::sim {
namespace {

RunConfig cfg(int threads, bool cache = false) {
  RunConfig rc;
  rc.threads = threads;
  rc.cache_model = cache;
  return rc;
}

TEST(AdvanceTo, OnlyMovesForward) {
  run_parallel(cfg(1), [&](int) {
    tick(100);
    advance_to(50);  // backward: no-op
    EXPECT_EQ(now_cycles(), 100u);
    advance_to(500);
    EXPECT_EQ(now_cycles(), 500u);
  });
}

TEST(SpinLock, BusyUntilPropagatesThroughHandoffChains) {
  // T0 holds the lock for 10k cycles; T1 takes it next and holds for
  // another 10k; T2 must end past 20k — release times must accumulate
  // through the chain even though the sim interleaves coarsely.
  SpinLock lock;
  const RunResult r = run_parallel(cfg(3), [&](int tid) {
    tick(tid);  // fix the acquisition order 0, 1, 2
    lock.lock();
    tick(10'000);
    lock.unlock();
  });
  EXPECT_GE(r.thread_cycles[1], 20'000u);
  EXPECT_GE(r.thread_cycles[2], 30'000u);
}

TEST(SpinLock, UncontendedLockIsCheap) {
  SpinLock lock;
  const RunResult r = run_parallel(cfg(1), [&](int) {
    for (int i = 0; i < 100; ++i) {
      lock.lock();
      lock.unlock();
    }
  });
  EXPECT_LT(r.cycles, 100u * 200u);  // ~2 atomic costs per pair
}

class SchedulingSweep : public ::testing::TestWithParam<int> {};

TEST_P(SchedulingSweep, EqualWorkFinishesTogether) {
  const int n = GetParam();
  const RunResult r = run_parallel(cfg(n), [&](int) {
    for (int i = 0; i < 50; ++i) {
      tick(100);
      yield();
    }
  });
  ASSERT_EQ(static_cast<int>(r.thread_cycles.size()), n);
  for (int t = 0; t < n; ++t) EXPECT_EQ(r.thread_cycles[t], 5000u);
  EXPECT_EQ(r.cycles, 5000u);  // perfect parallelism for independent work
}

TEST_P(SchedulingSweep, MakespanIsMaxNotSum) {
  const int n = GetParam();
  const RunResult r = run_parallel(cfg(n), [&](int tid) {
    tick(1000 * (tid + 1));
  });
  EXPECT_EQ(r.cycles, 1000u * n);
}

INSTANTIATE_TEST_SUITE_P(Threads, SchedulingSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 16, 32));

TEST(Probe, ChargesPerLineNotPerByte) {
  RunConfig rc = cfg(1, true);
  alignas(64) static char buf[256];
  const RunResult r = run_parallel(rc, [&](int) {
    probe(buf, 64, false);       // one line
    probe(buf + 64, 128, false); // two lines
  });
  EXPECT_EQ(r.cache.accesses, 3u);
}

TEST(Probe, SequentialPhaseDoesNotPollute) {
  static int x;
  probe(&x, 4, true);  // outside run_parallel: no-op
  const RunResult r = run_parallel(cfg(2, true), [&](int) {
    probe(&x, 4, false);
  });
  EXPECT_EQ(r.cache.accesses, 2u);
}

TEST(Engine, ManyFibersBeyondCoreCountStillComplete) {
  std::atomic<int> done{0};
  run_parallel(cfg(32), [&](int) {
    for (int i = 0; i < 10; ++i) {
      tick(10);
      yield();
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 32);
}

TEST(Engine, BackToBackRunsAreIndependent) {
  const RunResult a = run_parallel(cfg(2), [&](int) { tick(100); });
  const RunResult b = run_parallel(cfg(2), [&](int) { tick(200); });
  EXPECT_EQ(a.cycles, 100u);
  EXPECT_EQ(b.cycles, 200u);
}

TEST(Engine, FibersSeeSharedMemorySequentially) {
  // Two fibers alternate incrementing; because the engine runs on one OS
  // thread, plain memory is safe between yields — the foundation the
  // whole simulation builds on.
  int counter = 0;
  run_parallel(cfg(2), [&](int) {
    for (int i = 0; i < 1000; ++i) {
      ++counter;
      if (i % 10 == 0) yield();
    }
  });
  EXPECT_EQ(counter, 2000);
}

TEST(Engine, LargeStacksSurviveDeepRecursion) {
  RunConfig rc = cfg(2);
  rc.stack_size = 1 << 20;
  std::vector<int> depths(2, 0);
  run_parallel(rc, [&](int tid) {
    // ~1000 frames with some locals each.
    struct Rec {
      static int go(int depth, int tid) {
        char pad[512];
        pad[0] = static_cast<char>(depth);
        if (depth >= 1000) return pad[0];
        if (depth % 100 == 0) yield();
        return go(depth + 1, tid) + (pad[0] != 0 ? 0 : 1);
      }
    };
    Rec::go(0, tid);
    depths[tid] = 1000;
  });
  EXPECT_EQ(depths[0], 1000);
  EXPECT_EQ(depths[1], 1000);
}

TEST(Barrier, WorksAcrossManyPhasesAndThreadCounts) {
  for (int n : {2, 3, 5, 8}) {
    Barrier b(n);
    std::vector<int> phase(n, 0);
    run_parallel(cfg(n), [&](int tid) {
      for (int p = 0; p < 10; ++p) {
        phase[tid] = p;
        b.arrive_and_wait();
        for (int t = 0; t < n; ++t) EXPECT_EQ(phase[t], p);
        b.arrive_and_wait();
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Schedule identity: the run heap must resume fibers in exactly the order a
// brute-force O(n) scan for the smallest (vtime, id) produces. Each fiber
// runs a seeded script of small random ticks (zeros included, so equal
// clocks and id tie-breaks are common), yielding after each one, and
// records (self_tid, now_cycles) every time a yield returns. Scripts have
// different lengths, so fibers also finish mid-run.
// ---------------------------------------------------------------------------

using Resume = std::pair<int, std::uint64_t>;

struct Expected {
  std::vector<Resume> log;
  SchedStats sched;
};

std::vector<std::vector<std::uint64_t>> tick_scripts(int fibers,
                                                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::uint64_t>> scripts(fibers);
  for (auto& s : scripts) {
    s.resize(20 + rng() % 40);
    for (auto& t : s) t = rng() % 6;
  }
  return scripts;
}

// Replays the scripts under the min-(vtime, id) rule by linear scan. Each
// pick runs one step of the picked fiber: record the resume (unless it is
// the fiber's first entry), then either finish or tick and yield.
Expected reference_schedule(
    const std::vector<std::vector<std::uint64_t>>& scripts, unsigned cores) {
  const int n = static_cast<int>(scripts.size());
  std::vector<std::uint64_t> vtime(n, 0);
  std::vector<std::size_t> step(n, 0);
  std::vector<bool> done(n, false);
  Expected e;
  e.sched.heap_ops = static_cast<std::uint64_t>(n);  // one seed push each
  int running = -1;  // fiber that just yielded, -1 after a finish
  int last = -1;     // fiber whose core the next resume is compared with
  for (;;) {
    int pick = -1;
    for (int f = 0; f < n; ++f) {
      if (done[f]) continue;
      if (pick < 0 || vtime[f] < vtime[pick]) pick = f;
    }
    if (pick < 0) break;
    if (pick == running) {
      ++e.sched.fast_resumes;
    } else {
      ++e.sched.switches;
      ++e.sched.heap_ops;
      if (last >= 0 && static_cast<unsigned>(pick) % cores !=
                           static_cast<unsigned>(last) % cores) {
        ++e.sched.queue_migrations;
      }
    }
    if (step[pick] > 0) e.log.emplace_back(pick, vtime[pick]);
    last = pick;
    if (step[pick] == scripts[pick].size()) {
      done[pick] = true;
      running = -1;
      continue;
    }
    vtime[pick] += scripts[pick][step[pick]++];
    running = pick;
  }
  return e;
}

void expect_reference_schedule(int fibers, Topology topo, std::uint64_t seed) {
  const auto scripts = tick_scripts(fibers, seed);
  RunConfig rc = cfg(fibers);
  rc.topology = topo;
  rc.stack_size = 64 << 10;
  std::vector<Resume> log;
  const RunResult r = run_parallel(rc, [&](int tid) {
    for (const std::uint64_t t : scripts[tid]) {
      tick(t);
      yield();
      log.emplace_back(self_tid(), now_cycles());
    }
  });
  const unsigned nodes = topo.nodes == 0 ? 1 : topo.nodes;
  const unsigned cores =
      nodes * topo.resolved_cores_per_node(static_cast<unsigned>(fibers));
  const Expected e = reference_schedule(scripts, cores);
  ASSERT_EQ(log.size(), e.log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    ASSERT_EQ(log[i], e.log[i]) << "resume " << i;
  }
  EXPECT_EQ(r.sched.switches, e.sched.switches);
  EXPECT_EQ(r.sched.fast_resumes, e.sched.fast_resumes);
  EXPECT_EQ(r.sched.queue_migrations, e.sched.queue_migrations);
  EXPECT_EQ(r.sched.heap_ops, e.sched.heap_ops);
  // One seed push per fiber, then exactly one heap operation per resume.
  EXPECT_EQ(r.sched.heap_ops,
            r.sched.switches + static_cast<std::uint64_t>(fibers));
  EXPECT_GT(r.sched.fast_resumes, 0u);
}

TEST(RunHeap, MatchesMinScanAt8Fibers) {
  expect_reference_schedule(8, Topology{}, 101);
}

TEST(RunHeap, MatchesMinScanAt64Fibers) {
  expect_reference_schedule(64, Topology{}, 102);
}

TEST(RunHeap, MatchesMinScanAt256Fibers) {
  expect_reference_schedule(256, Topology{}, 103);
}

TEST(RunHeap, MatchesMinScanOversubscribed) {
  // 64 fibers on 2 nodes x 4 cores: eight fibers share each core.
  expect_reference_schedule(64, Topology{2, 4}, 104);
}

}  // namespace
}  // namespace tmx::sim
