// ProfilingAllocator: measures per-call latency of an allocator model in
// virtual cycles and feeds the prof plane's histograms and site registry.
//
// stm::build_stack (core/run_spec.hpp) places it outermost, so a malloc's
// recorded latency is what the *application* experienced — model cost plus
// lock waits — and frees are recorded at the moment application code (or
// the STM's deferred-free drain) called them.
//
// The wrapper itself never ticks: latency is the difference of two
// sim::now_cycles() reads around the inner call, which advances time on its
// own. With the prof plane idle, allocate and deallocate cost one
// predictable branch each; every other call is ForwardingAllocator's.
#pragma once

#include <memory>

#include "alloc/allocator.hpp"
#include "prof/prof.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::prof {

class ProfilingAllocator final : public alloc::ForwardingAllocator {
 public:
  using ForwardingAllocator::ForwardingAllocator;

  void* allocate(std::size_t size) override {
    if (TMX_UNLIKELY(enabled())) {
      const std::uint64_t t0 = sim::now_cycles();
      void* p = inner_->allocate(size);
      const std::uint64_t t1 = sim::now_cycles();
      on_alloc(p, p != nullptr ? inner_->usable_size(p) : 0, t1 - t0);
      return p;
    }
    return inner_->allocate(size);
  }

  void deallocate(void* p) override {
    if (TMX_UNLIKELY(enabled())) {
      const std::uint64_t t0 = sim::now_cycles();
      inner_->deallocate(p);
      const std::uint64_t t1 = sim::now_cycles();
      if (p != nullptr) on_free(p, t1 - t0);
      return;
    }
    inner_->deallocate(p);
  }
};

}  // namespace tmx::prof
