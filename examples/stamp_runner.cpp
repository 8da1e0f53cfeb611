// stamp_runner: run any STAMP application port under any allocator,
// engine, thread count and STM configuration.
//
//   ./build/examples/stamp_runner --app yada --alloc glibc --threads 8
//   ./build/examples/stamp_runner --app intruder --alloc tcmalloc
//       --engine threads --scale 2 --txcache 1 --shift 4
#include <cstdio>

#include "alloc/allocator.hpp"
#include "check/check.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "harness/obs_session.hpp"
#include "harness/options.hpp"
#include "obs/metrics.hpp"
#include "replay/replayer.hpp"
#include "sim/engine.hpp"
#include "stamp/app.hpp"

namespace {

// --replay-trace: feed a recorded capture through every --alloc model and
// print the side-by-side placement comparison instead of running an app.
int replay_mode(const tmx::harness::Options& opt) {
  using namespace tmx;
  replay::Trace trace;
  const replay::ReadStatus st =
      replay::read_trace(opt.replay_trace(), &trace);
  if (st != replay::ReadStatus::kOk) {
    std::fprintf(stderr, "replay: cannot load %s: %s\n",
                 opt.replay_trace().c_str(), replay::read_status_name(st));
    return 2;
  }
  replay::ReplayConfig cfg;
  cfg.shift = static_cast<unsigned>(opt.get_long("shift", 0));
  cfg.ort_log2 = static_cast<unsigned>(opt.get_long("ort-log2", 0));
  cfg.cache_model = opt.get_long("cache-model", 1) != 0;
  cfg.strict_gaps = opt.has("strict-gaps");
  cfg.seed = opt.seed();
  const auto results = replay::replay_compare(trace, opt.allocators(), cfg);
  replay::print_comparison(trace, results, stdout);
  bool all_ok = true;
  for (const auto& r : results) {
    if (r.ok) {
      replay::publish_metrics(r, obs::MetricsRegistry::global(),
                              "replay." + r.allocator + ".");
    } else {
      all_ok = false;
    }
  }
  if (!opt.metrics_out().empty()) {
    obs::MetricsRegistry::global().write_json(opt.metrics_out());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tmx;
  harness::Options opt(argc, argv);
  opt.apply_phase_config();
  if (harness::handle_list_allocators(opt)) return 0;
  if (!opt.replay_trace().empty()) return replay_mode(opt);
  const std::string app = opt.get("app", "");
  if (app.empty() || opt.has("help") || !stamp::app_exists(app)) {
    std::printf("usage: stamp_runner --app NAME [options]\napps:");
    for (const auto& n : stamp::app_names()) std::printf(" %s", n.c_str());
    std::printf("\noptions: --alloc A --threads N --engine sim|threads "
                "--scale X --seed S\n         --shift K --txcache 0|1 "
                "--cm suicide|backoff --profile\n         --design "
                "wb|wt|ctl --hybrid 0|1\n         --check race,lifetime "
                "--record-trace PATH --replay-trace PATH\n         "
                "--list-allocators --prof --prof-out PREFIX "
                "--prof-sample-cycles N\n         --numa-nodes N "
                "--numa-cores-per-node C --numa-policy "
                "first-touch|interleave|bind[:N]\n         --ort-shards N "
                "--guard --guard-quarantine-epochs N --guard-hard-cap N\n"
                "         --fault-corrupt-tag-rate P "
                "--fault-corrupt-overflow-rate P\n         "
                "--fault-corrupt-reuse-rate P --fault-corrupt-budget N\n");
    return app.empty() || opt.has("help") ? 0 : 2;
  }

  harness::ObsSession obs(opt);

  const bool faults = opt.fault_enabled();
  if (faults) {
    fault::install(opt.fault_plan());
    // Breaching either watchdog must still leave the metrics/trace evidence
    // behind: the trip path exits via std::_Exit, so flush through the
    // session first.
    sim::install_watchdog_flush([&obs] { obs.finish(); });
  }

  stamp::StampRun run;
  run.app = app;
  run.allocator = opt.get("alloc", "glibc");
  run.threads = opt.thread_count(8);
  run.engine = opt.engine();
  run.cache_model = opt.get_long("cache-model", 1) != 0;
  run.seed = opt.seed();
  run.scale = opt.scale();
  run.shift = static_cast<unsigned>(opt.get_long("shift", 5));
  run.tx_alloc_cache = opt.get_long("txcache", 0) != 0;
  run.cm = opt.cm();
  run.design = opt.design();
  run.htm_enabled = opt.get_long("hybrid", 0) != 0;
  // Under injected faults, escalation is the liveness guarantee (an OOM
  // storm would otherwise retry forever), so it defaults on.
  run.retry_cap = opt.stm_retry_cap(faults ? 64 : 0);
  run.tx_cycle_budget = opt.watchdog_tx_cycles();
  run.watchdog_cycles = opt.watchdog_run_cycles();
  run.topology = opt.topology();
  run.numa = opt.numa_options();
  run.ort_shards = opt.ort_shards();
  // Any listening tracer (--trace, --attribution, --record-trace) adds the
  // instrumenting layer itself; see stm::build_stack.
  run.instrument = opt.has("profile");
  run.prof = opt.prof();
  run.prof_sample_cycles = opt.prof_sample_cycles();
  obs.set_trace_meta(run.allocator, run.shift, run.ort_log2, run.seed);

  const bool checking = opt.check_enabled();
  if (checking) {
    // The checker's happens-before state rides on the deterministic fiber
    // engine (one OS thread, virtual-time ordering) and observes memory
    // through the software barriers and the CheckedAllocator; real threads,
    // the hardware path and the object cache all bypass one of those.
    if (run.engine != sim::EngineKind::Sim) {
      std::fprintf(stderr, "error: --check requires --engine sim\n");
      return 2;
    }
    if (run.htm_enabled) {
      std::fprintf(stderr, "error: --check requires --hybrid 0 (the "
                           "hardware path is not instrumented)\n");
      return 2;
    }
    if (run.tx_alloc_cache) {
      std::fprintf(stderr, "error: --check requires --txcache 0 (the "
                           "transactional object cache recycles blocks "
                           "outside the checked allocator)\n");
      return 2;
    }
    check::install(opt.check_config(run.shift, run.ort_log2));
  }

  const bool guarding = opt.guard_enabled();
  if (guarding) {
    // Same foundation as --check: host-side block tables with no internal
    // synchronization, valid only under the deterministic fiber engine.
    if (run.engine != sim::EngineKind::Sim) {
      std::fprintf(stderr, "error: --guard requires --engine sim\n");
      return 2;
    }
    if (run.tx_alloc_cache) {
      std::fprintf(stderr, "error: --guard requires --txcache 0 (the object "
                           "cache bins by usable_size, which the guard "
                           "narrows to the requested size)\n");
      return 2;
    }
    if (opt.phase_config().compact != phase::PhaseConfig::Compact::kOff) {
      std::fprintf(stderr, "error: --guard requires --phase-compact off "
                           "(relocation breaks the guard's address-keyed "
                           "tables)\n");
      return 2;
    }
    guard::install(opt.guard_config());
    // A hard-cap trip exits via std::_Exit: flush the obs evidence first,
    // mirroring the watchdog flush hook.
    static harness::ObsSession* s_obs = &obs;
    guard::install_exit_flush([] { s_obs->finish(); });
  }

  const auto out = stamp::run_stamp(run);
  const auto& r = out.result;
  std::printf("app=%s alloc=%s threads=%d shift=%u txcache=%d design=%s "
              "hybrid=%d\n",
              app.c_str(), run.allocator.c_str(), run.threads, run.shift,
              run.tx_alloc_cache ? 1 : 0, opt.get("design", "wb").c_str(),
              run.htm_enabled ? 1 : 0);
  std::printf("verified:  %s (%s)\n", r.verified ? "yes" : "NO",
              r.detail.c_str());
  std::printf("time:      %.6f s (%s)\n", r.seconds,
              run.engine == sim::EngineKind::Sim ? "virtual" : "wall");
  std::printf("commits:   %llu   aborts: %llu (%.1f%%)   extensions: %llu\n",
              static_cast<unsigned long long>(r.stats.commits),
              static_cast<unsigned long long>(r.stats.aborts),
              100.0 * r.stats.abort_ratio(),
              static_cast<unsigned long long>(r.stats.extensions));
  std::printf("tx mallocs: %llu   tx frees: %llu   cache hits: %llu\n",
              static_cast<unsigned long long>(r.stats.tx_mallocs),
              static_cast<unsigned long long>(r.stats.tx_frees),
              static_cast<unsigned long long>(r.stats.alloc_cache_hits));
  if (run.htm_enabled) {
    std::printf("hw commits: %llu   hw aborts: %llu   fallbacks: %llu\n",
                static_cast<unsigned long long>(r.stats.hw_commits),
                static_cast<unsigned long long>(r.stats.hw_aborts()),
                static_cast<unsigned long long>(r.stats.fallbacks));
  }
  if (run.engine == sim::EngineKind::Sim) {
    std::printf("L1 miss:   %.2f%%   false-sharing invalidations: %llu\n",
                100.0 * r.cache.l1_miss_ratio(),
                static_cast<unsigned long long>(r.cache.false_sharing));
  }
  if (run.instrument) {
    std::printf("\nallocation profile (Table 5 format):\n");
    std::printf("%-6s", "region");
    for (int b = 0; b < alloc::kNumSizeBuckets; ++b) {
      std::printf(" %8s", alloc::size_bucket_name(b));
    }
    std::printf(" %10s %10s %12s\n", "#mallocs", "#frees", "bytes");
    for (int reg = 0; reg < alloc::kNumRegions; ++reg) {
      const auto& p = out.profile.regions[reg];
      std::printf("%-6s",
                  alloc::region_name(static_cast<alloc::Region>(reg)));
      for (int b = 0; b < alloc::kNumSizeBuckets; ++b) {
        std::printf(" %8llu",
                    static_cast<unsigned long long>(p.by_bucket[b]));
      }
      std::printf(" %10llu %10llu %12llu\n",
                  static_cast<unsigned long long>(p.mallocs),
                  static_cast<unsigned long long>(p.frees),
                  static_cast<unsigned long long>(p.bytes));
    }
  }
  stm::publish_metrics(r.stats, obs::MetricsRegistry::global());
  if (faults) {
    fault::publish_metrics(obs::MetricsRegistry::global());
    const fault::FaultStats fs = fault::stats();
    std::printf("faults:    oom=%llu reserve=%llu spurious=%llu "
                "delayed-free=%llu   irrevocable entries: %llu\n",
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kMalloc)]),
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kReserve)]),
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kSpurious)]),
                static_cast<unsigned long long>(
                    fs.injected[static_cast<int>(fault::Site::kDelayFree)]),
                static_cast<unsigned long long>(r.stats.irrevocable_entries));
  }
  int rc = r.verified ? 0 : 1;
  if (checking) {
    check::publish_metrics(obs::MetricsRegistry::global());
    std::printf("check:     races=%llu leaks=%llu uaf=%llu double-free=%llu "
                "unpublished=%llu invalid=%llu zombie-reads=%llu\n",
                static_cast<unsigned long long>(
                    check::count(check::ReportKind::kRace)),
                static_cast<unsigned long long>(
                    check::count(check::ReportKind::kTxLeak)),
                static_cast<unsigned long long>(
                    check::count(check::ReportKind::kUseAfterFree)),
                static_cast<unsigned long long>(
                    check::count(check::ReportKind::kDoubleFree)),
                static_cast<unsigned long long>(
                    check::count(check::ReportKind::kFreeUnpublished)),
                static_cast<unsigned long long>(
                    check::count(check::ReportKind::kInvalidFree)),
                static_cast<unsigned long long>(check::zombie_reads()));
    if (check::hard_count() > 0) {
      check::print_reports(stdout);
      rc = 4;  // dirty run: distinct from verification failure (1)
    }
    check::clear();
  }
  if (guarding) {
    guard::publish_metrics(obs::MetricsRegistry::global());
    const guard::GuardStats gs = guard::stats();
    std::printf("guard:     canary=%llu tag=%llu poison=%llu double-free=%llu "
                "invalid=%llu   quarantined=%llu released=%llu leaked=%llu "
                "audits=%llu\n",
                static_cast<unsigned long long>(
                    guard::count(guard::FindingKind::kCanarySmash)),
                static_cast<unsigned long long>(
                    guard::count(guard::FindingKind::kTagSmash)),
                static_cast<unsigned long long>(
                    guard::count(guard::FindingKind::kPoisonWrite)),
                static_cast<unsigned long long>(
                    guard::count(guard::FindingKind::kDoubleFree)),
                static_cast<unsigned long long>(
                    guard::count(guard::FindingKind::kInvalidFree)),
                static_cast<unsigned long long>(gs.quarantined),
                static_cast<unsigned long long>(gs.released),
                static_cast<unsigned long long>(gs.leaked),
                static_cast<unsigned long long>(gs.audits));
    if (guard::corruptions() > 0) {
      guard::print_findings(stderr);
      rc = guard::kExitCode;  // corruption: distinct from check (4)
    }
    guard::clear();
  }
  // finish() explicitly so a failed --metrics-out/--trace write turns into
  // a nonzero exit instead of a stderr line nobody checks.
  obs.finish();
  if (!obs.ok()) return 3;
  return rc;
}
