// One run's allocator stack and STM configuration, assembled in one place.
//
// Every harness (set benchmarks, STAMP, server_mix, the Figure 5 demo) must
// put the same decoration stack between the STM and the allocator model —
// the paper's results are about the model, so nothing else may differ
// between two allocators' runs. build_stack is that stack; RunSpec is the
// engine/STM/NUMA knob set shared by SetBenchConfig and StampRun.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "alloc/instrument.hpp"
#include "alloc/page_provider.hpp"
#include "core/stm.hpp"
#include "sim/engine.hpp"

namespace tmx::stm {

struct AllocatorStack {
  std::unique_ptr<alloc::Allocator> top;
  alloc::InstrumentingAllocator* instrument = nullptr;  // null if unwrapped
};

// Creates the registered model `model` and wraps it, innermost first, as
//
//   Profiling(Instrumenting(Faulty(Guarded(Checked(model)))))
//
// with each layer present only when its plane asks for it:
//
//  * Checked (check::enabled()) sits directly on the model: it owns the
//    authoritative live-block / tombstone tables, so it must see exactly
//    the blocks the model hands out and takes back.
//  * Guarded (guard::enabled()) sits directly above the checker: a
//    quarantined free reaches the checker's lifetime tables only when the
//    quarantine releases it, so a zombie read of parked (poisoned) memory
//    is still "live" from the checker's point of view.
//  * Faulty (fault::enabled()) sits above both and under instrumentation:
//    traces and profiles record the post-fault reality, so an injected OOM
//    is captured as a null allocation and replays as one.
//  * Instrumenting (`instrument`, or a tracer listening in a TMX_TRACING
//    build) emits the kAlloc/kFree events and the Table 5 region profile.
//    Untraced runs that did not ask for the profile keep the direct call
//    path.
//  * Profiling (`prof`) sits outermost, so its latencies are what the
//    application experienced through every other layer. prof::install is
//    called here with the returned top; exporting and prof::uninstall()
//    are the caller's job.
//
// No layer ticks virtual time. Only injected faults and the guard's
// quarantine change what the model sees.
AllocatorStack build_stack(const std::string& model, bool instrument = false,
                           bool prof = false,
                           std::uint64_t prof_sample_cycles = 100'000);

// Engine, STM and NUMA settings common to every configured run.
struct RunSpec {
  std::string allocator = "glibc";
  int threads = 1;
  sim::EngineKind engine = sim::EngineKind::Sim;
  bool cache_model = true;
  std::uint64_t seed = 20150207;

  // NUMA topology for the sim engine (nodes=1 keeps the flat machine) and
  // the placement policy applied to the allocator's page provider.
  sim::Topology topology{};
  alloc::NumaOptions numa{};
  // Per-node ORT stripe tables (0/1 = single global table; see Config).
  unsigned ort_shards = 0;

  unsigned ort_log2 = 20;
  unsigned shift = 5;
  StmDesign design = StmDesign::kWriteBackEtl;
  ContentionManager cm = ContentionManager::kSuicide;
  bool tx_alloc_cache = false;
  bool htm_enabled = false;  // hybrid execution (hardware path + fallback)
  // Degradation knobs (see Config); 0 = off.
  unsigned retry_cap = 0;
  std::uint64_t tx_cycle_budget = 0;
  std::uint64_t watchdog_cycles = 0;  // whole-run virtual-cycle budget

  // Installs the NUMA view. Call before building the allocator: page
  // providers snapshot the default policy at construction, and the STM's
  // ORT shards consult the registry when they are created.
  void configure_numa() const;
  Config stm_config(alloc::Allocator* top) const;
};

}  // namespace tmx::stm
