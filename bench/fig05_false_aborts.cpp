// Figure 5: the allocator/ORT interaction causing false aborts. Two
// threads operate on logically disjoint nodes x and y allocated in
// sequence: with 16-byte spacing (Hoard/TBB/TCMalloc exact classes) both
// nodes share one versioned lock under shift=5 and the reader of y falsely
// aborts against the writer of x; with Glibc's 32-byte blocks they map to
// distinct locks and no aborts occur.
#include "bench_common.hpp"
#include "core/run_spec.hpp"
#include "harness/obs_session.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"

namespace {

struct CaseResult {
  std::uintptr_t x, y;
  std::size_t ort_x, ort_y;
  std::uint64_t aborts;
  tmx::stm::TxStats stats;
};

CaseResult run_case(const std::string& alloc_name, unsigned shift,
                    int rounds) {
  using namespace tmx;
  const stm::AllocatorStack stack = stm::build_stack(alloc_name);
  alloc::Allocator* const allocator = stack.top.get();
  stm::Config cfg;
  cfg.allocator = allocator;
  cfg.shift = shift;
  stm::Stm stm(cfg);

  // Allocate two 16-byte nodes in sequence, exactly as the list benchmark
  // main thread does (Figure 5's setup).
  auto* x = static_cast<std::uint64_t*>(allocator->allocate(16));
  auto* y = static_cast<std::uint64_t*>(allocator->allocate(16));
  *x = *y = 0;

  sim::RunConfig rc;
  rc.threads = 2;
  rc.cache_model = false;
  sim::run_parallel(rc, [&](int tid) {
    for (int i = 0; i < rounds; ++i) {
      if (tid == 0) {
        stm.atomically([&](stm::Tx& tx) {
          tx.store(x, tx.load(x) + 1);  // transaction 1 writes node x
          sim::tick(300);               // ...and stays busy a while
        });
      } else {
        stm.atomically([&](stm::Tx& tx) {
          tx.load(y);  // transaction 2 merely reads node y
          sim::tick(300);
        });
      }
    }
  });

  CaseResult r;
  r.x = reinterpret_cast<std::uintptr_t>(x);
  r.y = reinterpret_cast<std::uintptr_t>(y);
  r.ort_x = stm.ort_index(x);
  r.ort_y = stm.ort_index(y);
  r.stats = stm.stats();
  r.aborts = r.stats.aborts;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tmx;
  harness::Options opt(argc, argv);
  if (opt.has("help")) {
    opt.print_help("fig05_false_aborts: ORT aliasing demonstration");
    return 0;
  }
  bench::banner("Figure 5: allocator-induced false aborts",
                "Figure 5 (Section 5.1) of the paper");

  harness::ObsSession obs_session(opt);
  const int rounds = static_cast<int>(200 * opt.scale());
  harness::Table t({"allocator", "shift", "node spacing", "same ORT entry?",
                    "aborts (reader is logically disjoint)"});
  for (const auto& name : opt.allocators()) {
    for (unsigned shift : {5u, 4u}) {
      obs_session.set_trace_meta(name, shift, 20, opt.seed());
      const CaseResult r = run_case(name, shift, rounds);
      t.add_row({name, std::to_string(shift),
                 std::to_string(r.y - r.x) + " B",
                 r.ort_x == r.ort_y ? "yes" : "no",
                 std::to_string(r.aborts)});
      stm::publish_metrics(r.stats, obs::MetricsRegistry::global(),
                           "fig05." + name + ".shift" +
                               std::to_string(shift) + ".stm.");
      obs_session.report_attribution_and_clear(name + " shift=" +
                                               std::to_string(shift));
    }
  }
  t.print();
  t.write_csv(opt.csv());
  std::printf(
      "\nWith shift=5 (32-byte stripes), 16-byte-spaced nodes share a "
      "versioned lock -> false aborts;\n32-byte spacing (glibc) or "
      "shift=4 separates them.\n");
  obs_session.finish();
  return obs_session.ok() ? 0 : 3;
}
