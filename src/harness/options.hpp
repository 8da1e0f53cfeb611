// Minimal command-line option parsing shared by every bench and example.
//
// Conventions: `--name value` or `--name=value`; list values are
// comma-separated. Common experiment knobs get dedicated accessors so every
// binary exposes the same interface.
#pragma once

#include <string>
#include <vector>

#include "alloc/page_provider.hpp"
#include "check/check.hpp"
#include "core/run_spec.hpp"
#include "fault/fault.hpp"
#include "guard/guard.hpp"
#include "phase/phase.hpp"
#include "sim/engine.hpp"

namespace tmx::replay {
struct ReplayConfig;
}  // namespace tmx::replay

namespace tmx::harness {

class Options {
 public:
  Options(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  // Numeric getters return `fallback` when the flag is absent; a value that
  // is empty, has trailing junk or does not fit exits 2 with a message.
  long get_long(const std::string& name, long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::vector<std::string> get_list(const std::string& name,
                                    const std::string& fallback) const;
  std::vector<int> get_int_list(const std::string& name,
                                const std::string& fallback) const;

  // -- Shared experiment knobs --
  // --engine sim|threads (default sim: deterministic virtual-time engine)
  sim::EngineKind engine() const;
  // --reps N: repetitions per configuration
  int reps(int fallback) const;
  // --threads 1,2,4,8 (each in [1, kMaxThreads], else exit 2)
  std::vector<int> threads(const std::string& fallback = "1,2,4,8") const;
  // --threads N, for tools that run one thread count (range as above)
  int thread_count(int fallback) const;
  // --alloc glibc,hoard,tbb,tcmalloc
  std::vector<std::string> allocators(
      const std::string& fallback = "glibc,hoard,tbb,tcmalloc") const;
  // --seed S
  std::uint64_t seed() const;
  // --csv PATH
  std::string csv() const { return get("csv", ""); }
  // REPRO_SCALE env times --scale flag
  double scale() const;

  // -- Observability knobs (tmx::obs) --
  // --trace PATH: write a Chrome trace_event JSON of the run
  std::string trace() const { return get("trace", ""); }
  // --metrics-out PATH: write the unified metrics registry as JSON
  std::string metrics_out() const { return get("metrics-out", ""); }
  // --attribution: print the abort-attribution report (top-K stripes)
  bool attribution() const { return has("attribution"); }
  // --attribution-topk K: stripes listed in the attribution report
  int attribution_topk() const {
    return static_cast<int>(get_long("attribution-topk", 8));
  }
  // --trace-capacity N: per-thread event ring capacity (rounded up to pow2)
  std::size_t trace_capacity() const {
    return static_cast<std::size_t>(get_long("trace-capacity", 1 << 16));
  }

  // -- Trace capture / replay (tmx::replay) --
  // --record-trace PATH: capture the run as a tmx-trace-v1 replay trace
  std::string record_trace() const { return get("record-trace", ""); }
  // --replay-trace PATH: replay a recorded trace instead of running
  std::string replay_trace() const { return get("replay-trace", ""); }
  // --list-allocators: print the allocator registry (Table 1) and exit
  bool list_allocators() const { return has("list-allocators"); }

  // -- Fault injection / graceful degradation (tmx::fault) --
  // True when any --fault-* flag was passed (the plan should be installed).
  bool fault_enabled() const;
  // The fault plan assembled from the --fault-* flags (see print_help).
  fault::FaultPlan fault_plan() const;
  // --stm-retry-cap K: escalate to serial-irrevocable after K consecutive
  // aborts; `fallback` lets binaries pick a safety default when faults are
  // on (0 = escalation disabled).
  unsigned stm_retry_cap(unsigned fallback = 0) const {
    return static_cast<unsigned>(get_long("stm-retry-cap",
                                          static_cast<long>(fallback)));
  }
  // --watchdog-tx-cycles N: per-transaction virtual-cycle budget (0 = off)
  std::uint64_t watchdog_tx_cycles() const {
    return static_cast<std::uint64_t>(get_long("watchdog-tx-cycles", 0));
  }
  // --cm suicide|backoff: contention manager for every transactional run
  // (default suicide, the paper's baseline). Unknown values exit 2.
  stm::ContentionManager cm() const;
  // --design wb|wt|ctl: STM design (default wb, write-back ETL). Unknown
  // values exit 2.
  stm::StmDesign design() const;

  // -- Profiling (tmx::prof) --
  // --prof: install the latency/heap profiling plane for the run
  bool prof() const { return has("prof"); }
  // --prof-out PREFIX: write PREFIX.timeseries.csv, PREFIX.sites.csv and
  // PREFIX.folded when the session finishes (default: prefix "prof")
  std::string prof_out() const { return get("prof-out", "prof"); }
  // --prof-sample-cycles N: time-series sampler cadence in virtual cycles
  // (0 disables the sampler; latency and site profiling stay on)
  std::uint64_t prof_sample_cycles() const {
    return static_cast<std::uint64_t>(get_long("prof-sample-cycles", 100000));
  }

  // -- Transactional correctness checking (tmx::check) --
  // True when --check was passed (any value).
  bool check_enabled() const { return has("check"); }
  // The CheckConfig assembled from --check race,lifetime (bare --check or
  // --check all = both prongs) and --check-max-reports. `shift`/`ort_log2`
  // must match the checked run so report stripes line up with the ORT.
  check::CheckConfig check_config(unsigned shift, unsigned ort_log2) const;

  // -- Heap-integrity hardening (tmx::guard) --
  // True when --guard or any --guard-* flag was passed.
  bool guard_enabled() const;
  // The GuardConfig assembled from --guard-quarantine-epochs,
  // --guard-commits-per-epoch, --guard-max-findings and --guard-hard-cap.
  guard::GuardConfig guard_config() const;

  // -- Phase-lifetime allocator (tmx::phase) --
  // The PhaseConfig assembled from --phase-commits-per-epoch,
  // --phase-slab-bytes and --phase-compact off|checked|all. Call
  // apply_phase_config() once after parsing (before any allocator is
  // built); it installs the config as the process-wide default that every
  // PhaseAllocator snapshots at construction. Harmless when "phase" is not
  // among the selected allocators.
  phase::PhaseConfig phase_config() const;
  void apply_phase_config() const {
    phase::set_default_config(phase_config());
  }

  // -- NUMA topology / placement (sim engine) --
  // --numa-nodes N, --numa-cores-per-node C (0 = threads/nodes): two-level
  // machine shape; nodes=1 (the default) is the original flat topology.
  sim::Topology topology() const;
  // --numa-policy first-touch|interleave|bind[:NODE]: page-provider homing.
  alloc::NumaOptions numa_options() const;
  // --ort-shards N: per-node ORT stripe tables (0/1 = single global ORT).
  unsigned ort_shards() const {
    return static_cast<unsigned>(get_long("ort-shards", 0));
  }

  // The run from --engine, --seed, --cache-model, --watchdog-run-cycles N
  // (whole-run cycle budget, 0 = off) and topology(); a tool sets the
  // fields it takes other flags for (--alloc, --threads, ...) itself.
  stm::RunSpec run_spec() const;

  void print_help(const char* what) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

// Shared --list-allocators handling (stamp_runner, trace_replay,
// allocator_duel, server_mix all expose the flag): when present, prints the
// registry as the Table 1-style listing and returns true — the caller
// should then exit 0.
bool handle_list_allocators(const Options& opt);

// The ReplayConfig assembled from --shift and --ort-log2 (default 0: the
// capture's geometry), --cache-model, --strict-gaps and --seed.
replay::ReplayConfig replay_config(const Options& opt);

// Shared --replay-trace handling (trace_replay, stamp_runner): feeds the
// capture through every --alloc model, prints the side-by-side placement
// comparison and writes the replay.<alloc>.* metrics through an
// ObsSession. Returns the exit code: 0 clean, 1 when a replay failed, 2
// when the trace cannot be loaded or --record-trace is also given, 3 when
// --metrics-out (or another requested artifact) could not be written.
int run_replay_compare(const Options& opt);

}  // namespace tmx::harness
