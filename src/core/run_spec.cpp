#include "core/run_spec.hpp"

#include "check/check_alloc.hpp"
#include "fault/fault.hpp"
#include "fault/fault_alloc.hpp"
#include "guard/guard.hpp"
#include "guard/guard_alloc.hpp"
#include "obs/tracer.hpp"
#include "prof/prof.hpp"
#include "prof/prof_alloc.hpp"

namespace tmx::stm {

AllocatorStack build_stack(const std::string& model, bool instrument,
                           bool prof, std::uint64_t prof_sample_cycles) {
  AllocatorStack s;
  s.top = alloc::create_allocator(model);
  if (check::enabled()) {
    s.top = std::make_unique<check::CheckedAllocator>(std::move(s.top));
  }
  if (guard::enabled()) {
    s.top = std::make_unique<guard::GuardedAllocator>(std::move(s.top));
  }
  if (fault::enabled()) {
    s.top = std::make_unique<fault::FaultyAllocator>(std::move(s.top));
  }
  // Without TMX_TRACING the wrapper emits no events, so a listening tracer
  // alone is no reason to wrap (and libtmx_core stays free of obs calls).
  if (instrument || (obs::kTracingCompiledIn && obs::trace_enabled())) {
    auto wrapped =
        std::make_unique<alloc::InstrumentingAllocator>(std::move(s.top));
    s.instrument = wrapped.get();
    s.top = std::move(wrapped);
  }
  if (prof) {
    s.top = std::make_unique<prof::ProfilingAllocator>(std::move(s.top));
    prof::ProfConfig pcfg;
    pcfg.sample_cycles = prof_sample_cycles;
    pcfg.allocator = s.top.get();
    prof::install(pcfg);
  }
  return s;
}

void RunSpec::configure_numa() const {
  sim::numa_configure(topology, static_cast<unsigned>(threads));
  alloc::set_default_numa(numa);
}

Config RunSpec::stm_config(alloc::Allocator* top) const {
  Config c;
  c.ort_log2 = ort_log2;
  c.shift = shift;
  c.ort_shards = ort_shards;
  c.design = design;
  c.cm = cm;
  c.tx_alloc_cache = tx_alloc_cache;
  c.htm.enabled = htm_enabled;
  c.allocator = top;
  c.retry_cap = retry_cap;
  c.tx_cycle_budget = tx_cycle_budget;
  return c;
}

sim::RunConfig RunSpec::run_config() const {
  sim::RunConfig rc;
  rc.kind = engine;
  rc.threads = threads;
  rc.seed = seed;
  rc.cache_model = cache_model;
  rc.watchdog_cycles = watchdog_cycles;
  rc.topology = topology;
  return rc;
}

}  // namespace tmx::stm
