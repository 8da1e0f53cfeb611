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
// own. With the prof plane idle the wrapper forwards with one predictable
// branch per call.
#pragma once

#include <memory>

#include "alloc/allocator.hpp"
#include "prof/prof.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::prof {

class ProfilingAllocator final : public alloc::Allocator {
 public:
  explicit ProfilingAllocator(std::unique_ptr<alloc::Allocator> inner)
      : inner_(std::move(inner)) {}

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

  std::size_t usable_size(const void* p) const override {
    return inner_->usable_size(p);
  }
  const alloc::AllocatorTraits& traits() const override {
    return inner_->traits();
  }
  std::size_t os_reserved() const override { return inner_->os_reserved(); }
  std::size_t live_bytes() const override { return inner_->live_bytes(); }
  alloc::PageProvider* page_provider() override { return inner_->page_provider(); }
  bool wants_tx_hints() const override { return inner_->wants_tx_hints(); }
  void tx_begin_hint(int tid) override { inner_->tx_begin_hint(tid); }
  void tx_commit_hint(int tid) override { inner_->tx_commit_hint(tid); }
  void tx_abort_hint(int tid) override { inner_->tx_abort_hint(tid); }
  void on_quiescence(bool serial) override { inner_->on_quiescence(serial); }
  alloc::Allocator* inner_allocator() override { return inner_.get(); }

  alloc::Allocator& inner() { return *inner_; }

 private:
  std::unique_ptr<alloc::Allocator> inner_;
};

}  // namespace tmx::prof
