// CheckedAllocator: routes every allocation and deallocation of a model
// through the tmx::check lifetime maps, without touching the model itself.
//
// Its place in the allocator stack is set by stm::build_stack
// (core/run_spec.hpp): innermost, directly on the model, owning the single
// authoritative live-block / tombstone tables. On allocate it registers the
// block (scrubbing tombstones and stale race shadow the recycled range may
// carry); on deallocate it consults check::on_block_free, which detects
// double and invalid frees — and in that case the call is swallowed instead
// of forwarded, so a reported bug does not additionally corrupt the real
// heap and a deliberately buggy test program still runs to completion.
//
// With no checker installed the wrapper forwards with one predictable
// branch per call; build_stack only interposes it when a checker is
// installed anyway.
#pragma once

#include <memory>

#include "alloc/allocator.hpp"
#include "check/check.hpp"

namespace tmx::check {

class CheckedAllocator final : public alloc::Allocator {
 public:
  explicit CheckedAllocator(std::unique_ptr<alloc::Allocator> inner)
      : inner_(std::move(inner)) {}

  void* allocate(std::size_t size) override {
    void* p = inner_->allocate(size);
    if (TMX_UNLIKELY(enabled()) && p != nullptr) {
      on_block_alloc(p, inner_->usable_size(p));
    }
    return p;
  }

  void deallocate(void* p) override {
    if (p == nullptr) return;
    if (TMX_UNLIKELY(enabled()) && !on_block_free(p)) return;
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

}  // namespace tmx::check
