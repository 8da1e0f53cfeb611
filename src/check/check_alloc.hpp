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
// With no checker installed, allocate and deallocate cost one predictable
// branch each (build_stack only interposes the wrapper when a checker is
// installed anyway); every other call is ForwardingAllocator's.
#pragma once

#include <memory>

#include "alloc/allocator.hpp"
#include "check/check.hpp"

namespace tmx::check {

class CheckedAllocator final : public alloc::ForwardingAllocator {
 public:
  using ForwardingAllocator::ForwardingAllocator;

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
};

}  // namespace tmx::check
