// tmx::guard plumbing: install/clear, finding bookkeeping, site scopes, the
// hard-cap trip. The heavy lifting (tables, canaries, quarantine) lives in
// guard_alloc.cpp.

#include "guard/guard.hpp"

#include <cinttypes>
#include <cstdlib>
#include <memory>

#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/macros.hpp"

namespace tmx::guard {

namespace detail {

bool g_enabled = false;
bool g_quarantine_armed = false;
std::uint64_t g_poison_word = 0;

namespace {

struct State {
  GuardConfig cfg;
  const char* scoped_site[kMaxThreads] = {};
  std::uint64_t counts[kNumFindingKinds] = {};
  std::vector<Finding> findings;
  GuardStats stats;
};

std::unique_ptr<State>& state_holder() {
  static std::unique_ptr<State> holder;
  return holder;
}

State* state() { return state_holder().get(); }

void (*g_flush)() = nullptr;

}  // namespace

const char* site_or(int tid, const char* fallback) {
  State* s = state();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads &&
      s->scoped_site[tid] != nullptr) {
    return s->scoped_site[tid];
  }
  return fallback != nullptr ? fallback : "?";
}

GuardStats* stats_mut() {
  State* s = state();
  return s != nullptr ? &s->stats : nullptr;
}

void emit(Finding f) {
  State* s = state();
  if (s == nullptr) return;
  ++s->counts[static_cast<int>(f.kind)];
  // One stored finding per (kind, detection site, alloc site): a corrupting
  // loop floods the counters, not the finding list.
  bool dup = false;
  for (const Finding& prev : s->findings) {
    if (prev.kind == f.kind && prev.site == f.site &&
        prev.alloc_site == f.alloc_site) {
      dup = true;
      break;
    }
  }
  if (!dup && s->findings.size() < s->cfg.max_findings) {
    s->findings.push_back(std::move(f));
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : s->counts) total += c;
  if (s->cfg.hard_cap != 0 && total >= s->cfg.hard_cap) {
    std::fprintf(stderr,
                 "tmx::guard: hard corruption cap reached (%" PRIu64
                 " findings, cap %" PRIu64 ")\n",
                 total, s->cfg.hard_cap);
    print_findings(stderr);
    if (g_flush != nullptr) g_flush();
    std::_Exit(kExitCode);
  }
}

}  // namespace detail

using detail::state;

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::kCanarySmash: return "canary_smash";
    case FindingKind::kTagSmash: return "tag_smash";
    case FindingKind::kPoisonWrite: return "poison_write";
    case FindingKind::kDoubleFree: return "double_free";
    case FindingKind::kInvalidFree: return "invalid_free";
  }
  return "?";
}

void install(const GuardConfig& cfg) {
  clear();
  auto s = std::make_unique<detail::State>();
  s->cfg = cfg;
  detail::state_holder() = std::move(s);
  detail::g_enabled = true;
  detail::g_quarantine_armed = cfg.quarantine_epochs >= 1;
  detail::g_poison_word = 0x0101010101010101ull * cfg.poison;
}

void clear() {
  detail::g_enabled = false;
  detail::g_quarantine_armed = false;
  detail::state_holder() = nullptr;
}

const GuardConfig& config() {
  static const GuardConfig kOff{};
  detail::State* s = state();
  return s != nullptr ? s->cfg : kOff;
}

const std::vector<Finding>& findings() {
  static const std::vector<Finding> kEmpty;
  detail::State* s = state();
  return s != nullptr ? s->findings : kEmpty;
}

std::uint64_t count(FindingKind k) {
  detail::State* s = state();
  return s != nullptr ? s->counts[static_cast<int>(k)] : 0;
}

std::uint64_t corruptions() {
  detail::State* s = state();
  if (s == nullptr) return 0;
  std::uint64_t n = 0;
  for (std::uint64_t c : s->counts) n += c;
  return n;
}

GuardStats stats() {
  detail::State* s = state();
  return s != nullptr ? s->stats : GuardStats{};
}

void reset() {
  detail::State* s = state();
  if (s == nullptr) return;
  const GuardConfig cfg = s->cfg;
  detail::state_holder() = std::make_unique<detail::State>();
  state()->cfg = cfg;
}

void print_findings(std::FILE* out) {
  detail::State* s = state();
  if (s == nullptr) return;
  std::uint64_t total = 0;
  for (std::uint64_t c : s->counts) total += c;
  std::fprintf(out, "tmx::guard: %" PRIu64 " corruption finding(s), %zu "
                    "distinct:\n",
               total, s->findings.size());
  for (const Finding& f : s->findings) {
    std::fprintf(out,
                 "  [%s] tid=%d cycle=%" PRIu64 " addr=0x%" PRIxPTR
                 " requested=%zu usable=%zu alloc_site=%s site=%s",
                 finding_kind_name(f.kind), f.tid, f.cycle, f.addr,
                 f.requested, f.usable,
                 f.alloc_site.empty() ? "?" : f.alloc_site.c_str(),
                 f.site.empty() ? "?" : f.site.c_str());
    if (!f.detail.empty()) std::fprintf(out, " — %s", f.detail.c_str());
    std::fputc('\n', out);
  }
}

void publish_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
  detail::State* s = state();
  if (s == nullptr) return;
  const auto c = [&](FindingKind k) {
    return s->counts[static_cast<int>(k)];
  };
  reg.set_counter(prefix + "canary_smashes", c(FindingKind::kCanarySmash));
  reg.set_counter(prefix + "tag_smashes", c(FindingKind::kTagSmash));
  reg.set_counter(prefix + "poison_writes", c(FindingKind::kPoisonWrite));
  reg.set_counter(prefix + "double_frees", c(FindingKind::kDoubleFree));
  reg.set_counter(prefix + "invalid_frees", c(FindingKind::kInvalidFree));
  reg.set_counter(prefix + "findings", corruptions());
  const GuardStats& st = s->stats;
  reg.set_counter(prefix + "blocks_guarded", st.blocks_guarded);
  reg.set_counter(prefix + "canaries_placed", st.canaries_placed);
  reg.set_counter(prefix + "frees_verified", st.frees_verified);
  reg.set_counter(prefix + "quarantined", st.quarantined);
  reg.set_counter(prefix + "quarantined_bytes", st.quarantined_bytes);
  reg.set_counter(prefix + "released", st.released);
  reg.set_counter(prefix + "leaked", st.leaked);
  reg.set_counter(prefix + "audits", st.audits);
  reg.set_counter(prefix + "audit_blocks", st.audit_blocks);
  reg.set_counter(prefix + "epochs", st.epochs);
}

void install_exit_flush(void (*flush)()) { detail::g_flush = flush; }

const char* current_site() { return detail::site_or(sim::self_tid(), "?"); }

ScopedSite::ScopedSite(const char* site) {
  detail::State* s = state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    saved_ = s->scoped_site[tid];
    s->scoped_site[tid] = site;
  } else {
    saved_ = nullptr;
  }
}

ScopedSite::~ScopedSite() {
  detail::State* s = state();
  const int tid = sim::self_tid();
  if (s != nullptr && tid >= 0 && tid < kMaxThreads) {
    s->scoped_site[tid] = saved_;
  }
}

}  // namespace tmx::guard
