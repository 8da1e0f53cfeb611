// RAII wiring between the harness command line and tmx::obs / tmx::replay.
//
// ObsSession enables the tracer when any of --trace / --attribution /
// --record-trace is given, collects events across the bench's cases, and
// on finish() (or destruction) writes the Chrome trace (--trace), the
// metrics registry JSON (--metrics-out), the abort-attribution report
// (--attribution) and the replayable tmx-trace-v1 capture
// (--record-trace). Ring-overflow drop counts are published as
// obs.trace.dropped metrics and surfaced in the finish() summary either
// way.
//
// The session is the one writer of a run's file evidence: --metrics-out
// and the --prof-out artifacts (<prof-out>.timeseries.csv / .sites.csv /
// .folded) are written nowhere else. Each profiled case is handed over
// with take_prof(); finish() takes a plane that is still installed as the
// last case, labeled with the allocator from set_trace_meta. The prof.*
// metrics thus land in the global registry before the --metrics-out write.
//
// Benches with several independent cases call report_attribution_and_clear()
// between them to get a per-case report and a fresh trace window.
#pragma once

#include <string>
#include <vector>

#include "core/run_spec.hpp"
#include "obs/event.hpp"
#include "replay/recorder.hpp"
#include "util/macros.hpp"

namespace tmx::harness {

class Options;

class ObsSession {
 public:
  explicit ObsSession(const Options& opts);
  ~ObsSession();
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  bool tracing() const { return tracing_; }
  bool attribution() const { return attribution_; }
  bool recording() const { return !record_path_.empty(); }

  // Stamps the run's allocator, ORT geometry and seed into the recorded
  // trace header so a replay knows what produced it. Call before finish();
  // the last call wins (single-configuration captures are the ones with an
  // exact-replay guarantee — see replay/recorder.hpp).
  void set_trace_meta(const stm::RunSpec& spec);

  // Prints the abort-attribution report for the events recorded since the
  // last call (or session start), labeled `label`, then clears the tracer
  // so the next case starts from an empty window. The events are kept for
  // the final Chrome trace. No-op unless --attribution and tracing are on.
  void report_attribution_and_clear(const std::string& label);

  // Hands the installed tmx::prof plane's data to the session as one case:
  // publishes its metrics under `prefix`, appends its time-series and site
  // rows (labeled `label`) and folded stacks to the --prof-out buffers, and
  // uninstalls the plane so the next case starts fresh. No-op when the
  // plane is not installed.
  void take_prof(const std::string& label, const std::string& prefix);

  // Writes --trace / --metrics-out outputs and, if no per-case report was
  // requested, the whole-run attribution. Safe to call once; the destructor
  // calls it for benches that early-exit.
  void finish();

  // False once any requested artifact (--trace / --record-trace /
  // --metrics-out / a --prof-out file) failed to persist. Binaries call
  // finish() explicitly and propagate !ok() as a nonzero exit so a run
  // whose evidence is missing never reports success.
  bool ok() const { return ok_; }

 private:
  void collect();
  void absorb_window();

  bool tracing_ = false;
  bool attribution_ = false;
  bool finished_ = false;
  bool ok_ = true;
  bool reported_per_case_ = false;
  bool prof_taken_ = false;
  int top_k_ = 8;
  std::string trace_path_;
  std::string metrics_path_;
  std::string record_path_;
  std::string prof_out_;
  std::string prof_timeseries_;
  std::string prof_sites_;
  std::string prof_folded_;
  std::vector<obs::Event> collected_;
  std::uint64_t drops_by_thread_[kMaxThreads] = {};
  replay::Recorder recorder_;
};

}  // namespace tmx::harness
