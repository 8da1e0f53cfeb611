// tmx::check plumbing: install/clear, report bookkeeping, site scopes, and
// the trampolines that feed engine events (fork/join/lock/barrier) into the
// race prong.

#include "check/check.hpp"

#include <cinttypes>
#include <memory>

#include "check/check_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "phase/phase.hpp"
#include "sim/engine.hpp"

namespace tmx::check {

namespace detail {

bool g_enabled = false;
bool g_race = false;
bool g_lifetime = false;

State* g_state = nullptr;

// Internal setter shared by install/clear/reset below.
static void set_state(std::unique_ptr<State> s) {
  delete g_state;
  g_state = s.release();
}

std::size_t stripe_of(std::uintptr_t addr) {
  const State* s = state();
  const unsigned shift = s != nullptr ? s->cfg.shift : 5u;
  const unsigned log2 = s != nullptr ? s->cfg.ort_log2 : 20u;
  return (addr >> shift) & ((std::size_t{1} << log2) - 1);
}

void emit(Report r) {
  State* s = state();
  if (s == nullptr) return;
  ++s->counts[static_cast<std::size_t>(r.kind)];
  TMX_OBS_EVENT(obs::EventKind::kCheckReport, r.addr, r.stripe,
                static_cast<std::uint8_t>(r.kind));
  // One stored report per (kind, site, other-site): a racy loop floods the
  // counters, not the report list.
  for (const Report& prev : s->reports) {
    if (prev.kind == r.kind && prev.site == r.site &&
        prev.other_site == r.other_site) {
      return;
    }
  }
  if (s->reports.size() < s->cfg.max_reports) {
    s->reports.push_back(std::move(r));
  }
}

}  // namespace detail

using detail::State;

const char* report_kind_name(ReportKind k) {
  switch (k) {
    case ReportKind::kRace: return "race";
    case ReportKind::kTxLeak: return "tx_leak";
    case ReportKind::kUseAfterFree: return "use_after_free";
    case ReportKind::kDoubleFree: return "double_free";
    case ReportKind::kFreeUnpublished: return "free_unpublished";
    case ReportKind::kInvalidFree: return "invalid_free";
    case ReportKind::kZombieRead: return "zombie_read";
  }
  return "?";
}

namespace {

// Engine trampolines: translate raw engine events into race-prong edges.
// The lock hooks also fire outside parallel regions (sequential allocator
// use); the race prong ignores those itself.

void hook_run_fork(int threads) { detail::race_fork(threads); }
void hook_run_join(int threads) { detail::race_join(threads); }
void hook_lock_acquired(const void* l) {
  detail::race_lock_acquired(sim::self_tid(), l);
}
void hook_lock_released(const void* l) {
  detail::race_lock_released(sim::self_tid(), l);
}
void hook_barrier_arrive(const void* b) {
  detail::race_barrier_arrive(sim::self_tid(), b);
}
void hook_barrier_depart(const void* b) {
  detail::race_barrier_depart(sim::self_tid(), b);
}

}  // namespace

void install(const CheckConfig& cfg) {
  clear();
  if (!cfg.any()) return;
  auto s = std::make_unique<State>();
  s->cfg = cfg;
  detail::set_state(std::move(s));
  detail::g_race = cfg.race;
  detail::g_lifetime = cfg.lifetime;
  detail::g_enabled = true;
  if (cfg.race) {
    sim::CheckHooks hooks;
    hooks.run_fork = &hook_run_fork;
    hooks.run_join = &hook_run_join;
    hooks.lock_acquired = &hook_lock_acquired;
    hooks.lock_released = &hook_lock_released;
    hooks.barrier_arrive = &hook_barrier_arrive;
    hooks.barrier_depart = &hook_barrier_depart;
    sim::install_check_hooks(hooks);
  } else {
    // The lifetime prong still wants fork/join so reset points are known,
    // but needs no lock/barrier edges.
    sim::CheckHooks hooks;
    hooks.run_fork = &hook_run_fork;
    hooks.run_join = &hook_run_join;
    sim::install_check_hooks(hooks);
  }
  if (cfg.lifetime) {
    // Gate phase compaction on the publication analysis: tmx::phase asks
    // before moving a block and reports every completed move back.
    phase::CheckBridge bridge;
    bridge.relocatable = &relocatable;
    bridge.on_relocated = &on_block_relocate;
    phase::install_check_bridge(bridge);
  }
}

void clear() {
  detail::g_enabled = false;
  detail::g_race = false;
  detail::g_lifetime = false;
  sim::install_check_hooks(sim::CheckHooks{});
  phase::clear_check_bridge();
  detail::set_state(nullptr);
}

const CheckConfig& config() {
  static const CheckConfig kOff{false, false};
  State* s = detail::state();
  return s != nullptr ? s->cfg : kOff;
}

const std::vector<Report>& reports() {
  static const std::vector<Report> kEmpty;
  State* s = detail::state();
  if (s == nullptr) return kEmpty;
  detail::flush_leak_suspects(*s);
  return s->reports;
}

std::uint64_t count(ReportKind k) {
  State* s = detail::state();
  if (s == nullptr) return 0;
  detail::flush_leak_suspects(*s);
  return s->counts[static_cast<std::size_t>(k)];
}

std::uint64_t hard_count() {
  State* s = detail::state();
  if (s == nullptr) return 0;
  detail::flush_leak_suspects(*s);
  std::uint64_t n = 0;
  for (int k = 0; k < kNumReportKinds; ++k) {
    if (static_cast<ReportKind>(k) == ReportKind::kZombieRead) continue;
    n += s->counts[static_cast<std::size_t>(k)];
  }
  return n;
}

std::uint64_t zombie_reads() { return count(ReportKind::kZombieRead); }

void reset() {
  State* s = detail::state();
  if (s == nullptr) return;
  const CheckConfig cfg = s->cfg;
  detail::set_state(std::make_unique<State>());
  detail::state()->cfg = cfg;
}

void print_reports(std::FILE* out) {
  State* s = detail::state();
  if (s == nullptr) return;
  detail::flush_leak_suspects(*s);
  std::uint64_t total = 0;
  for (std::uint64_t c : s->counts) total += c;
  std::fprintf(out, "tmx::check: %" PRIu64 " finding(s) (%" PRIu64
                    " hard), %zu distinct:\n",
               total, hard_count(), s->reports.size());
  for (const Report& r : s->reports) {
    std::fprintf(out,
                 "  [%s] tid=%d cycle=%" PRIu64 " addr=0x%" PRIxPTR
                 " stripe=%zu site=%s",
                 report_kind_name(r.kind), r.tid, r.cycle, r.addr, r.stripe,
                 r.site.empty() ? "?" : r.site.c_str());
    if (r.other_tid >= 0) {
      std::fprintf(out, " other{tid=%d cycle=%" PRIu64 " site=%s}",
                   r.other_tid, r.other_cycle,
                   r.other_site.empty() ? "?" : r.other_site.c_str());
    }
    if (!r.detail.empty()) std::fprintf(out, " — %s", r.detail.c_str());
    std::fputc('\n', out);
  }
}

void publish_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
  State* s = detail::state();
  if (s == nullptr) return;
  detail::flush_leak_suspects(*s);
  const auto c = [&](ReportKind k) {
    return s->counts[static_cast<std::size_t>(k)];
  };
  reg.set_counter(prefix + "races", c(ReportKind::kRace));
  reg.set_counter(prefix + "leaks", c(ReportKind::kTxLeak));
  reg.set_counter(prefix + "use_after_free", c(ReportKind::kUseAfterFree));
  reg.set_counter(prefix + "double_frees", c(ReportKind::kDoubleFree));
  reg.set_counter(prefix + "free_unpublished",
                  c(ReportKind::kFreeUnpublished));
  reg.set_counter(prefix + "invalid_frees", c(ReportKind::kInvalidFree));
  reg.set_counter(prefix + "zombie_reads", c(ReportKind::kZombieRead));
  reg.set_counter(prefix + "reports",
                  static_cast<std::uint64_t>(s->reports.size()));
}

const char* current_site() { return detail::site_or(sim::self_tid(), "?"); }

ScopedSite::ScopedSite(const char* site) {
  State* s = detail::state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    saved_ = s->scoped_site[static_cast<std::size_t>(tid)];
    s->scoped_site[static_cast<std::size_t>(tid)] = site;
  } else {
    saved_ = nullptr;
  }
}

ScopedSite::~ScopedSite() {
  State* s = detail::state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    s->scoped_site[static_cast<std::size_t>(tid)] = saved_;
  }
}

}  // namespace tmx::check
