// stm::build_stack and stm::RunSpec: the allocator decoration stack is
// assembled in one place, in one order, and only with the layers a run
// asked for; RunSpec carries every STM knob into stm::Config.
#include <gtest/gtest.h>

#include "alloc/instrument.hpp"
#include "check/check.hpp"
#include "check/check_alloc.hpp"
#include "core/run_spec.hpp"
#include "fault/fault.hpp"
#include "fault/fault_alloc.hpp"
#include "guard/guard.hpp"
#include "guard/guard_alloc.hpp"
#include "obs/tracer.hpp"
#include "phase/phase.hpp"
#include "prof/prof.hpp"
#include "prof/prof_alloc.hpp"

namespace tmx::stm {
namespace {

// Untraced runs with no plane installed keep the direct call path: the
// model itself is the top of the stack.
TEST(BuildStack, BareModelWhenNothingAsks) {
  ASSERT_FALSE(check::enabled() || guard::enabled() || fault::enabled() ||
               prof::enabled() || obs::trace_enabled());
  const AllocatorStack s = build_stack("glibc");
  ASSERT_NE(s.top, nullptr);
  EXPECT_EQ(s.top->inner_allocator(), nullptr);
  EXPECT_EQ(s.instrument, nullptr);
}

TEST(BuildStack, EveryLayerInOrder) {
  check::install(check::CheckConfig{});
  guard::install(guard::GuardConfig{});
  fault::install(fault::FaultPlan{});
  {
    const AllocatorStack s = build_stack("glibc", /*instrument=*/true,
                                         /*prof=*/true);
    EXPECT_TRUE(prof::enabled());
    alloc::Allocator* a = s.top.get();
    EXPECT_NE(dynamic_cast<prof::ProfilingAllocator*>(a), nullptr);
    a = a->inner_allocator();
    EXPECT_NE(dynamic_cast<alloc::InstrumentingAllocator*>(a), nullptr);
    EXPECT_EQ(a, s.instrument);
    a = a->inner_allocator();
    EXPECT_NE(dynamic_cast<fault::FaultyAllocator*>(a), nullptr);
    a = a->inner_allocator();
    EXPECT_NE(dynamic_cast<guard::GuardedAllocator*>(a), nullptr);
    a = a->inner_allocator();
    EXPECT_NE(dynamic_cast<check::CheckedAllocator*>(a), nullptr);
    a = a->inner_allocator();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->inner_allocator(), nullptr);
    EXPECT_EQ(a->traits().name, "glibc");
  }
  prof::uninstall();
  fault::clear();
  guard::clear();
  check::clear();
  EXPECT_FALSE(check::enabled() || guard::enabled() || fault::enabled() ||
               prof::enabled());
}

// Every shell forwards the queries and the hint opt-in it does not
// override, so the top of a fully decorated stack answers like the model.
TEST(BuildStack, TopForwardsEveryQueryToTheModel) {
  check::install(check::CheckConfig{});
  guard::install(guard::GuardConfig{});
  fault::install(fault::FaultPlan{});
  {
    const AllocatorStack s = build_stack("phase", /*instrument=*/true,
                                         /*prof=*/true);
    alloc::Allocator* top = s.top.get();
    alloc::Allocator* model = top;
    while (model->inner_allocator() != nullptr) {
      model = model->inner_allocator();
    }
    ASSERT_NE(model, top);
    void* p = top->allocate(64);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(model->wants_tx_hints());
    EXPECT_EQ(top->wants_tx_hints(), model->wants_tx_hints());
    ASSERT_NE(model->page_provider(), nullptr);
    EXPECT_EQ(top->page_provider(), model->page_provider());
    EXPECT_GT(model->os_reserved(), 0u);
    EXPECT_EQ(top->os_reserved(), model->os_reserved());
    EXPECT_GT(model->live_bytes(), 0u);
    EXPECT_EQ(top->live_bytes(), model->live_bytes());
    EXPECT_EQ(top->traits().name, "phase");
    EXPECT_EQ(top->traits().name, model->traits().name);
    EXPECT_EQ(phase::as_phase(top), model);
    top->deallocate(p);
  }
  prof::uninstall();
  fault::clear();
  guard::clear();
  check::clear();
}

TEST(RunSpec, DefaultsMatchStmConfigDefaults) {
  const Config def;
  const Config c = RunSpec{}.stm_config(nullptr);
  EXPECT_EQ(c.ort_log2, def.ort_log2);
  EXPECT_EQ(c.shift, def.shift);
  EXPECT_EQ(c.ort_shards, def.ort_shards);
  EXPECT_EQ(c.design, def.design);
  EXPECT_EQ(c.cm, def.cm);
  EXPECT_EQ(c.tx_alloc_cache, def.tx_alloc_cache);
  EXPECT_EQ(c.htm.enabled, def.htm.enabled);
  EXPECT_EQ(c.retry_cap, def.retry_cap);
  EXPECT_EQ(c.tx_cycle_budget, def.tx_cycle_budget);
}

TEST(RunSpec, StmConfigCarriesEveryKnob) {
  RunSpec spec;
  spec.ort_log2 = 12;
  spec.shift = 4;
  spec.ort_shards = 2;
  spec.design = StmDesign::kCommitTimeLocking;
  spec.cm = ContentionManager::kBackoff;
  spec.tx_alloc_cache = true;
  spec.htm_enabled = true;
  spec.retry_cap = 8;
  spec.tx_cycle_budget = 1000;
  const AllocatorStack s = build_stack("glibc");
  const Config c = spec.stm_config(s.top.get());
  EXPECT_EQ(c.ort_log2, 12u);
  EXPECT_EQ(c.shift, 4u);
  EXPECT_EQ(c.ort_shards, 2u);
  EXPECT_EQ(c.design, StmDesign::kCommitTimeLocking);
  EXPECT_EQ(c.cm, ContentionManager::kBackoff);
  EXPECT_TRUE(c.tx_alloc_cache);
  EXPECT_TRUE(c.htm.enabled);
  EXPECT_EQ(c.allocator, s.top.get());
  EXPECT_EQ(c.retry_cap, 8u);
  EXPECT_EQ(c.tx_cycle_budget, 1000u);
}

}  // namespace
}  // namespace tmx::stm
