// Common interface for the eight STAMP application ports.
//
// Each application is a library with a single entry point taking an
// AppContext (configured STM runtime + execution parameters) and returning
// an AppResult (timing of the parallel phase, transaction statistics, and a
// self-verification verdict). Workload sizes derive from the paper's
// recommended "large" configurations, scaled down by `scale` so the default
// full-suite run stays in the minutes range (REPRO_SCALE restores larger
// runs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/run_spec.hpp"
#include "sim/engine.hpp"

namespace tmx::stamp {

struct AppContext {
  stm::Stm* stm = nullptr;
  int threads = 1;
  sim::EngineKind engine = sim::EngineKind::Sim;
  bool cache_model = true;
  std::uint64_t seed = 20150207;
  double scale = 1.0;  // multiplies the default workload size
  std::uint64_t watchdog_cycles = 0;  // whole-run budget (0 = off)
  sim::Topology topology{};  // NUMA shape (nodes=1 = flat machine)

  alloc::Allocator& allocator() const { return stm->allocator(); }
  sim::RunConfig run_config() const {
    sim::RunConfig rc;
    rc.kind = engine;
    rc.threads = threads;
    rc.seed = seed;
    rc.cache_model = cache_model;
    rc.watchdog_cycles = watchdog_cycles;
    rc.topology = topology;
    return rc;
  }
};

struct AppResult {
  double seconds = 0.0;  // parallel-phase makespan (virtual or wall)
  stm::TxStats stats{};
  sim::CacheStats cache{};
  bool verified = false;
  std::string detail;  // human-readable verification note
};

// Applications, in the paper's Table 5 order.
AppResult run_bayes(const AppContext& ctx);
AppResult run_genome(const AppContext& ctx);
AppResult run_intruder(const AppContext& ctx);
AppResult run_kmeans(const AppContext& ctx);
AppResult run_labyrinth(const AppContext& ctx);
AppResult run_ssca2(const AppContext& ctx);
AppResult run_vacation(const AppContext& ctx);
AppResult run_yada(const AppContext& ctx);

// Name-based dispatch (the bench binaries and examples use this).
std::vector<std::string> app_names();
bool app_exists(const std::string& name);
AppResult run_app(const std::string& name, const AppContext& ctx);

// Convenience: builds the allocator stack (stm::build_stack) + STM, runs
// the app, tears everything down. The engine, STM and NUMA knobs come from
// stm::RunSpec.
struct StampRun : stm::RunSpec {
  std::string app;
  double scale = 1.0;
  bool instrument = false;  // Table 5 profile (see stm::build_stack)
  // Latency/heap profiling plane (tmx::prof), layered by stm::build_stack;
  // a final time-series sample is taken before teardown. Zero-perturbation:
  // the virtual-time results are bit-identical with prof on or off.
  bool prof = false;
  std::uint64_t prof_sample_cycles = 100'000;  // 0 = sampler off
};

struct StampOutcome {
  AppResult result;
  alloc::AllocationProfile profile{};  // filled when instrumented
};

StampOutcome run_stamp(const StampRun& run);

}  // namespace tmx::stamp
