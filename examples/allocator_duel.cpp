// allocator_duel: head-to-head comparison of two allocators on one
// transactional data-structure workload — the paper's Figure 1 scenario in
// miniature, with the abort/locality diagnosis printed alongside.
//
//   ./build/examples/allocator_duel --a glibc --b tcmalloc
//       --struct list --threads 8 --updates 60
#include <cstdio>

#include "harness/options.hpp"
#include "harness/setbench.hpp"

int main(int argc, char** argv) {
  using namespace tmx;
  harness::Options opt(argc, argv);
  opt.apply_phase_config();
  if (harness::handle_list_allocators(opt)) return 0;
  if (opt.has("help")) {
    std::printf(
        "usage: allocator_duel [--a NAME --b NAME] [--struct "
        "list|hashset|rbtree]\n                      [--threads N] "
        "[--updates PCT] [--reps N] [--cm suicide|backoff]\n"
        "                      [--list-allocators]\n");
    return 0;
  }
  const std::string a = opt.get("a", "glibc");
  const std::string b = opt.get("b", "tcmalloc");
  const std::string which = opt.get("struct", "list");
  const int threads = opt.thread_count(8);
  const double updates = opt.get_double("updates", 60.0) / 100.0;
  const int reps = opt.reps(3);

  harness::SetKind kind = harness::SetKind::kList;
  if (which == "hashset") kind = harness::SetKind::kHashSet;
  if (which == "rbtree") kind = harness::SetKind::kRbTree;

  std::printf("duel: %s vs %s on %s, %d threads, %.0f%% updates\n\n",
              a.c_str(), b.c_str(), which.c_str(), threads, updates * 100);

  struct Side {
    double tput = 0, aborts = 0, l1 = 0;
  };
  Side sides[2];
  const std::string names[2] = {a, b};
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < reps; ++r) {
      harness::SetBenchConfig cfg;
      cfg.kind = kind;
      cfg.allocator = names[s];
      cfg.threads = threads;
      cfg.update_pct = updates;
      cfg.engine = opt.engine();
      cfg.initial = static_cast<std::size_t>(1024 * opt.scale());
      cfg.key_range = static_cast<std::uint64_t>(2048 * opt.scale());
      cfg.ops_per_thread =
          static_cast<std::size_t>((kind == harness::SetKind::kList ? 48
                                                                    : 256) *
                                   opt.scale());
      cfg.seed = opt.seed() + 1000003ull * r;
      cfg.cm = opt.cm();
      cfg.topology = opt.topology();
      cfg.numa = opt.numa_options();
      cfg.ort_shards = opt.ort_shards();
      const auto res = harness::run_set_bench(cfg);
      sides[s].tput += res.throughput / reps;
      sides[s].aborts += res.stats.abort_ratio() / reps;
      sides[s].l1 += res.cache.l1_miss_ratio() / reps;
    }
    std::printf("%-10s  throughput %10.0f tx/s   aborts %5.1f%%   "
                "L1 miss %5.2f%%\n",
                names[s].c_str(), sides[s].tput, 100 * sides[s].aborts,
                100 * sides[s].l1);
  }

  const int w = sides[0].tput >= sides[1].tput ? 0 : 1;
  std::printf("\nwinner: %s (+%.1f%%)\n", names[w].c_str(),
              100.0 * (sides[w].tput / sides[1 - w].tput - 1.0));
  if (sides[w].aborts < sides[1 - w].aborts * 0.8) {
    std::printf("diagnosis: fewer aborts — the loser's block layout maps "
                "disjoint objects to shared\nORT stripes or cache lines "
                "(see Figure 5 of the paper / fig05_false_aborts).\n");
  } else if (sides[w].l1 < sides[1 - w].l1 * 0.8) {
    std::printf("diagnosis: better locality — smaller blocks / denser "
                "packing.\n");
  } else {
    std::printf("diagnosis: mixed — inspect with table4_aborts_l1 and "
                "fig06_shift.\n");
  }
  return 0;
}
