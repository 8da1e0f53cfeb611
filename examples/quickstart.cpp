// Quickstart: the smallest complete tmx program.
//
// Creates an allocator model and an STM runtime, runs concurrent bank
// transfers on the simulated multicore, and prints the outcome. Build and
// run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--alloc tcmalloc] [--threads 8]
#include <cstdio>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/stm.hpp"
#include "harness/options.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  harness::Options opt(argc, argv);
  const std::string alloc_name = opt.get("alloc", "tcmalloc");
  const int threads = opt.thread_count(8);

  // 1. Pick an allocator model (the study's LD_PRELOAD equivalent).
  auto allocator = alloc::create_allocator(alloc_name);

  // 2. Configure the STM exactly like the paper: WB-ETL, 2^20-entry ORT,
  //    shift 5, SUICIDE contention management.
  stm::Config cfg;
  cfg.allocator = allocator.get();
  stm::Stm stm(cfg);

  // 3. Shared state: a small bank.
  constexpr int kAccounts = 64;
  constexpr std::uint64_t kInitial = 1000;
  std::vector<std::uint64_t> accounts(kAccounts, kInitial);

  // 4. Run transfers on the simulated multicore (or real threads with
  //    --engine threads).
  const auto rr = sim::run_parallel(opt.run_config(threads), [&](int tid) {
    Rng rng(thread_seed(opt.seed(), tid));
    for (int i = 0; i < 500; ++i) {
      const std::size_t from = rng.below(kAccounts);
      const std::size_t to = rng.below(kAccounts);
      if (from == to) continue;
      stm.atomically([&](stm::Tx& tx) {
        const std::uint64_t f = tx.load(&accounts[from]);
        if (f == 0) return;
        tx.store(&accounts[from], f - 1);
        tx.store(&accounts[to], tx.load(&accounts[to]) + 1);
      });
    }
  });

  // 5. Inspect the results.
  std::uint64_t total = 0;
  for (auto v : accounts) total += v;
  const auto st = stm.stats();
  std::printf("allocator:      %s\n", allocator->traits().name.c_str());
  std::printf("threads:        %d\n", threads);
  std::printf("total money:    %llu (expected %llu -> %s)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(kAccounts * kInitial),
              total == kAccounts * kInitial ? "consistent" : "BROKEN");
  std::printf("commits:        %llu\n",
              static_cast<unsigned long long>(st.commits));
  std::printf("aborts:         %llu (%.1f%% of starts)\n",
              static_cast<unsigned long long>(st.aborts),
              100.0 * st.abort_ratio());
  if (rr.simulated) {
    std::printf("virtual time:   %.6f s (%llu cycles)\n", rr.seconds,
                static_cast<unsigned long long>(rr.cycles));
    std::printf("L1 miss ratio:  %.2f%%\n",
                100.0 * rr.cache.l1_miss_ratio());
  } else {
    std::printf("wall time:      %.6f s\n", rr.seconds);
  }
  return total == kAccounts * kInitial ? 0 : 1;
}
