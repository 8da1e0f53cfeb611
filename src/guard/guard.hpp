// tmx::guard — heap-integrity hardening with quiescence-aware quarantine.
//
// tmx::fault injects allocator failure and tmx::check verifies the
// *program's* transactional discipline; neither defends the allocator's own
// metadata, which the paper shows is the hot, contended surface of every TM
// workload. This module hardens every registered model from the outside,
// through one chokepoint wrapper (GuardedAllocator, guard_alloc.hpp):
//
//  * Canaries & tag checksums — each allocation gets a deterministic tail
//    canary written into the model's slack ([requested, usable)), and a
//    snapshot of the model's in-band boundary tag (AllocatorTraits
//    tag_offset/tag_bytes: the bytes below the payload that are bit-stable
//    for the block's live span and feed usable_size). Both are verified on
//    free, on usable_size queries, and by a whole-heap audit walk at
//    quiescent points. The guard's usable_size reports the *requested*
//    size, so no caller can legally touch the canary.
//
//  * Quiescence-aware quarantine — frees are poisoned and parked for a
//    configurable number of guard epochs, released only at points the STM
//    proves quiescent (zero in-flight transactions at a commit boundary,
//    the serial-irrevocable window, Stm::maintenance_quiescence). This is
//    the TM-specific part: a doomed transaction may legally read freed
//    memory (a zombie read) until its next validation, so an allocator that
//    recycled the block immediately could see "corruption" that is really a
//    benign stale read. Quarantined memory stays mapped and poisoned until
//    no speculating reader can exist; reads never alter the poison, so
//    zombie reads raise no finding, while a *write* into quarantined memory
//    (early reuse, use-after-free store) is caught at release. A zombie
//    read is not harmless by itself, though: the doomed transaction gets
//    the poison word back, and following it as a pointer faults (Intruder's
//    red-black tree did exactly that). So while the quarantine is armed,
//    the STM read barriers revalidate whenever they load the poison word
//    and abort the reader if its snapshot no longer holds.
//
//  * Containment — a block whose tag or canary fails verification is never
//    forwarded to the model: the guard restores the tag bytes from its
//    snapshot (so neighbors scanning the heap never read scribbled
//    metadata) and leaks the block. Below the hard cap the run degrades
//    gracefully; at the cap the guard flushes diagnostics and exits with
//    the distinct code 5 (watchdog is 3, check hard findings are 4).
//
// Determinism contract: with quarantine_epochs = 0 (detect-only) the guard
// performs host-only work — no tick()/yield()/probe(), no placement change —
// and guard-on runs reproduce the golden determinism constants bit-for-bit
// (enforced by test_guard). With quarantine_epochs >= 1 frees are deferred,
// which necessarily changes block reuse and therefore the schedule; such
// runs are still fully deterministic for a fixed seed (byte-stable across
// processes, the chaos-smoke CI contract) but pin different constants.
//
// Layering: guard sits beside check/fault, above sim+alloc. The wrapper
// order in the harnesses is Prof(Instr(Faulty(Guarded(Checked(model))))):
// the guard asks tmx::fault for corruption-injection decisions (it is the
// only layer that knows block layout, so it carries out the injections it
// must then detect) and sits above the checker so lifetime bookkeeping sees
// frees when the quarantine actually releases them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::guard {

struct GuardConfig {
  // 0 = detect-only: verify tag+canary at free and forward immediately.
  // Placement-neutral; reproduces the golden determinism constants.
  // >= 1 = full quarantine: poison every free and park it for this many
  // guard epochs, releasing only at proven quiescent points.
  std::uint64_t quarantine_epochs = 1;
  // Epoch cadence: the guard epoch advances after this many commits, at the
  // first commit boundary with zero in-flight transactions (and always at
  // maintenance/serial quiescence, which also drains the quarantine fully).
  std::uint64_t commits_per_epoch = 256;
  // Findings kept verbatim (deduped per kind+site); counters keep counting.
  std::size_t max_findings = 64;
  // Total corruption count that trips an immediate flush + _Exit(5).
  // 0 = never trip mid-run (the harness still exits 5 at end of run).
  std::uint64_t hard_cap = 64;
  std::uint8_t poison = 0xF5;
};

enum class FindingKind : int {
  kCanarySmash = 0,  // tail canary overwritten: overflow past requested size
  kTagSmash = 1,     // in-band boundary tag mutated under a live block
  kPoisonWrite = 2,  // quarantined (freed+poisoned) memory written
  kDoubleFree = 3,   // free of a block already freed/quarantined
  kInvalidFree = 4,  // free of a pointer the guard never saw allocated
};
inline constexpr int kNumFindingKinds = 5;

const char* finding_kind_name(FindingKind k);

struct Finding {
  FindingKind kind;
  int tid = 0;               // thread that triggered detection
  std::uint64_t cycle = 0;   // virtual cycle at detection
  std::uintptr_t addr = 0;   // block payload address
  std::size_t requested = 0; // size the application asked for
  std::size_t usable = 0;    // size the model granted
  std::string alloc_site;    // ScopedSite label at allocation
  std::string site;          // ScopedSite label at detection (free/audit)
  std::string detail;        // one-line explanation
};

// Exit code for hard corruption: distinct from watchdog (3) and check (4).
inline constexpr int kExitCode = 5;

// Aggregate counters, process-global across all GuardedAllocator instances.
struct GuardStats {
  std::uint64_t blocks_guarded = 0;   // allocations registered
  std::uint64_t canaries_placed = 0;  // blocks that had slack for a canary
  std::uint64_t frees_verified = 0;
  std::uint64_t quarantined = 0;      // frees parked (quarantine mode)
  std::uint64_t quarantined_bytes = 0;
  std::uint64_t released = 0;         // quarantine entries forwarded
  std::uint64_t leaked = 0;           // corrupted blocks withheld from model
  std::uint64_t audits = 0;           // whole-heap walks at quiescence
  std::uint64_t audit_blocks = 0;     // live blocks verified by audits
  std::uint64_t epochs = 0;           // guard epoch advances
};

namespace detail {
// The one-branch guard the harness wrapping decision reads.
extern bool g_enabled;
// Set by install() only when the quarantine is armed (quarantine_epochs
// >= 1), so detect-only runs never compare a read against the poison.
extern bool g_quarantine_armed;
extern std::uint64_t g_poison_word;
}  // namespace detail

inline bool enabled() { return detail::g_enabled; }

// The STM read barriers test these on every transactional load: a loaded
// word equal to poison_word() may be a zombie read of quarantined memory.
inline bool quarantine_armed() { return detail::g_quarantine_armed; }
inline std::uint64_t poison_word() { return detail::g_poison_word; }

// Installs the guard process-wide and resets findings/stats. Not
// thread-safe: install before run_parallel, like fault and check. Only
// supported under the deterministic Sim engine (the block tables are
// unsynchronized host maps).
void install(const GuardConfig& cfg);

// Uninstalls; drops findings, stats and site labels.
void clear();

const GuardConfig& config();

// ---- Findings ----
const std::vector<Finding>& findings();
std::uint64_t count(FindingKind k);
// Total corruption findings (every kind is hard for the guard): the
// "guard-clean" predicate behind harness exit code 5 and the CI gate.
std::uint64_t corruptions();
GuardStats stats();
// Drops findings and stats, keeping the guard installed (used between
// independent bench cases; per-block tables live in the wrapper instances
// and die with them).
void reset();

void print_findings(std::FILE* out);

// Publishes "guard.canary_smashes", "guard.tag_smashes",
// "guard.poison_writes", "guard.double_frees", "guard.invalid_frees",
// "guard.findings" plus the GuardStats fields under `prefix`.
void publish_metrics(obs::MetricsRegistry& reg,
                     const std::string& prefix = "guard.");

// Diagnostics hook run just before the hard-cap _Exit(5) (harnesses flush
// obs metrics here, mirroring sim::install_watchdog_flush).
void install_exit_flush(void (*flush)());

// ---- Site labels ----
// Thread-local label attributing allocations and detections; nests. String
// must outlive the scope (string literals).
const char* current_site();

class ScopedSite {
 public:
  explicit ScopedSite(const char* site);
  ~ScopedSite();
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  const char* saved_;
};

namespace detail {
// Emits one finding: counts it, stores it (deduped, capped), trips the
// hard cap. Called by GuardedAllocator only.
void emit(Finding f);
// Mutable aggregate counters (nullptr when not installed).
GuardStats* stats_mut();
// Site label of `tid`, or `fallback` when none is in scope.
const char* site_or(int tid, const char* fallback);
}  // namespace detail

}  // namespace tmx::guard
