// simbench — the repo benchmark driver.
//
// Measures host time of the simulator: whole simulated runs (the
// end-to-end metrics) and each layer on its own (the per-layer metrics),
// on one of four workloads. The simulated statistics are deterministic per
// seed; host time is what this driver reports. The simulator is
// unvalidated against hardware and the repo holds no measured reference,
// so no accuracy figure is reported.
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//            [--tiny] [--spans-out PATH]
//
// A run does set-up several times (timed, median reported), then runs reps
// until --seconds have passed. A rep runs one of the workload's inputs, and
// reps cycle through them, so each input's simulated work repeats. Every
// rep's outputs are checked, and its deterministic counts must equal those
// of the first rep of the same input.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced reps (spans recorded around each call this file makes into a
// layer), then runs the layer ladder: isolated rungs that price one
// layer's unit cost through that layer's public API, a replay
// differential, and plane on/off pairs over identical simulated work. It
// reports the per-layer metrics and the tracing overhead, and writes the
// spans to --spans-out.
//
// Output: human-readable lines, a `counts {...}` line with the
// deterministic counts of one pass over the inputs, a `summary {...}` line, and as the last line one
// JSON object {"correct","attempted","failed","metrics"}. The exit code is
// 0 only when every check passed.
#include <sys/mman.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/page_provider.hpp"
#include "check/check.hpp"
#include "check/check_alloc.hpp"
#include "core/stm.hpp"
#include "guard/guard.hpp"
#include "guard/guard_alloc.hpp"
#include "harness/server_mix.hpp"
#include "harness/setbench.hpp"
#include "obs/metrics.hpp"
#include "prof/prof.hpp"
#include "prof/prof_alloc.hpp"
#include "replay/replayer.hpp"
#include "replay/synth.hpp"
#include "replay/trace_format.hpp"
#include "sim/cache_model.hpp"
#include "sim/engine.hpp"
#include "sim/numa.hpp"
#include "stamp/app.hpp"
#include "util/rng.hpp"

namespace {

using namespace tmx;

constexpr double kGhz = 2.0;  // sim::RunConfig's default cycle rate
const std::vector<std::string> kModels = {"glibc", "hoard", "tbb", "tcmalloc",
                                          "jemalloc"};
const std::vector<std::string> kStampApps = {"vacation", "intruder"};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

// Linear interpolation between closest ranks; q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Spans: (name, start, end, parent, rep) around each call into a layer,
// kept in memory while tracing is on and written out at the end.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double start;
  double end;
  int parent;  // index into spans, -1 at top level
  int rep;     // rep id, -1 outside reps (set-up, ladder)
};

struct SpanLog {
  bool on = false;
  int rep = -1;
  int open = -1;
  std::vector<Span> spans;
};

SpanLog g_spans;
constexpr std::size_t kMaxSpans = 1 << 16;
constexpr int kMaxReps = 1 << 14;

class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!g_spans.on || g_spans.spans.size() == kMaxSpans) return;
    idx_ = static_cast<int>(g_spans.spans.size());
    g_spans.spans.push_back(Span{name, now_s(), 0.0, g_spans.open, g_spans.rep});
    g_spans.open = idx_;
  }
  ~SpanScope() {
    if (idx_ < 0) return;
    Span& s = g_spans.spans[static_cast<std::size_t>(idx_)];
    s.end = now_s();
    g_spans.open = s.parent;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int idx_ = -1;
};

// Self time per span name: duration minus the time covered by children.
std::vector<std::pair<std::string, double>> self_times() {
  std::vector<double> self(g_spans.spans.size());
  for (std::size_t i = 0; i < g_spans.spans.size(); ++i) {
    const Span& s = g_spans.spans[i];
    self[i] += s.end - s.start;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < g_spans.spans.size(); ++i) {
    const std::string name = g_spans.spans[i].name;
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it == out.end()) {
      out.emplace_back(name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  return out;
}

bool write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = g_spans.spans.empty() ? 0.0 : g_spans.spans[0].start;
  std::fprintf(f, "{\"spans\":[");
  for (std::size_t i = 0; i < g_spans.spans.size(); ++i) {
    const Span& s = g_spans.spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%d,\"rep\":%d}",
                 i == 0 ? "" : ",", s.name, s.start - t0, s.end - t0,
                 s.parent, s.rep);
  }
  std::fprintf(f, "],\n\"self_s\":{");
  const auto st = self_times();
  for (std::size_t i = 0; i < st.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%.9f", i == 0 ? "" : ",", st[i].first.c_str(),
                 st[i].second);
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Deterministic per-rep counts. Every field is a simulated quantity or a
// work count, so two reps of the same seed must agree exactly.
// ---------------------------------------------------------------------------

struct Counts {
  std::uint64_t ops = 0;  // set ops, trace records, requests or commits
  std::uint64_t cycles = 0;
  std::uint64_t starts = 0;
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t extensions = 0;
  std::uint64_t tx_mallocs = 0;
  std::uint64_t switches = 0;
  std::uint64_t fast_resumes = 0;
  std::uint64_t sched_heap_ops = 0;
  std::uint64_t accesses = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t false_sharing = 0;
  std::uint64_t heap_calls = 0;  // allocator calls the workload made
  std::uint64_t os_reserved = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t replay_fp = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t req_p50 = 0;
  std::uint64_t req_p99 = 0;
  std::uint64_t req_n = 0;

  bool operator==(const Counts&) const = default;

  void add_tx(const stm::TxStats& s) {
    starts += s.starts;
    commits += s.commits;
    aborts += s.aborts;
    reads += s.reads;
    writes += s.writes;
    extensions += s.extensions;
    tx_mallocs += s.tx_mallocs;
  }
  void add_cache(const sim::CacheStats& c) {
    accesses += c.accesses;
    l1_misses += c.l1_misses;
    invalidations += c.invalidations;
    false_sharing += c.false_sharing;
  }
  // Sums the additive counts of another input's run. The replay
  // fingerprint and the request percentiles are per-input and stay as
  // they are: the multi-input workloads (rbtree, stamp_planes) have none.
  void add(const Counts& o) {
    ops += o.ops;
    cycles += o.cycles;
    starts += o.starts;
    commits += o.commits;
    aborts += o.aborts;
    reads += o.reads;
    writes += o.writes;
    extensions += o.extensions;
    tx_mallocs += o.tx_mallocs;
    switches += o.switches;
    fast_resumes += o.fast_resumes;
    sched_heap_ops += o.sched_heap_ops;
    accesses += o.accesses;
    l1_misses += o.l1_misses;
    invalidations += o.invalidations;
    false_sharing += o.false_sharing;
    heap_calls += o.heap_calls;
    os_reserved += o.os_reserved;
    live_bytes += o.live_bytes;
    handoffs += o.handoffs;
  }

  std::string json() const {
    std::string o = "{";
    auto kv = [&](const char* k, std::uint64_t v) {
      if (o.size() > 1) o += ',';
      o += "\"" + std::string(k) + "\":" + std::to_string(v);
    };
    kv("ops", ops);
    kv("cycles", cycles);
    kv("starts", starts);
    kv("commits", commits);
    kv("aborts", aborts);
    kv("reads", reads);
    kv("writes", writes);
    kv("extensions", extensions);
    kv("tx_mallocs", tx_mallocs);
    kv("switches", switches);
    kv("fast_resumes", fast_resumes);
    kv("sched_heap_ops", sched_heap_ops);
    kv("accesses", accesses);
    kv("l1_misses", l1_misses);
    kv("invalidations", invalidations);
    kv("false_sharing", false_sharing);
    kv("heap_calls", heap_calls);
    kv("os_reserved", os_reserved);
    kv("live_bytes", live_bytes);
    kv("replay_fp", replay_fp);
    kv("handoffs", handoffs);
    kv("req_p50", req_p50);
    kv("req_p99", req_p99);
    kv("req_n", req_n);
    return o + "}";
  }
};

std::uint64_t cycles_of(double virtual_seconds) {
  return static_cast<std::uint64_t>(std::llround(virtual_seconds * kGhz * 1e9));
}

// The engine accumulates every simulated run's scheduler counters into the
// global registry; a rep's share is the difference across it.
struct SchedSnapshot {
  std::uint64_t switches, fast_resumes, heap_ops;
  static SchedSnapshot take() {
    const auto& reg = obs::MetricsRegistry::global();
    return {reg.counter("sim.sched.switches"),
            reg.counter("sim.sched.fast_resumes"),
            reg.counter("sim.sched.heap_ops")};
  }
  void add_delta_to(Counts* c) const {
    const SchedSnapshot n = take();
    c->switches += n.switches - switches;
    c->fast_resumes += n.fast_resumes - fast_resumes;
    c->sched_heap_ops += n.heap_ops - heap_ops;
  }
};

// Trivially copyable: a rep runs in a forked child and sends this back
// through a pipe.
struct RepResult {
  double host_s = 0.0;   // host time of the rep, set-up excluded
  double setup_s = 0.0;  // set-up done inside the rep (STAMP)
  double app_s[2] = {};  // run_app host time per kStampApps entry
  Counts counts;
  char error[256] = {};  // empty when every output check passed
  std::uint64_t spans = 0;  // spans the child recorded, sent after this

  bool ok() const { return error[0] == '\0'; }
  // Keeps the first failure.
  void fail(const std::string& why) {
    if (ok()) std::snprintf(error, sizeof error, "%s", why.c_str());
  }
  // Adds the result of another input's run to this rep's.
  void add(const RepResult& o) {
    host_s += o.host_s;
    setup_s += o.setup_s;
    app_s[0] += o.app_s[0];
    app_s[1] += o.app_s[1];
    counts.add(o.counts);
    if (!o.ok()) fail(o.error);
  }
};

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

// The rep's own stack, at a fixed address. Library calls keep words the STM
// probes on the caller's stack (server_mix's served counter, STAMP's
// tables), and the main stack's position moves with the length of argv
// and the environment.
constexpr std::uintptr_t kRepStackAddr = 0x7d0000000000;
constexpr std::size_t kRepStackBytes = 64 << 20;

void (*g_on_stack_fn)(void*) = nullptr;
void* g_on_stack_arg = nullptr;
bool g_on_rep_stack = false;
void on_stack_trampoline() {
  g_on_rep_stack = true;
  g_on_stack_fn(g_on_stack_arg);
}

// Runs body() on the fixed stack; on the current stack if it cannot be
// mapped there. A child forked from a rep is already on it.
template <typename B>
void run_on_rep_stack(B& body) {
  if (g_on_rep_stack) {
    body();
    return;
  }
  void* stack = mmap(reinterpret_cast<void*>(kRepStackAddr), kRepStackBytes,
                     PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE |
                         MAP_NORESERVE,
                     -1, 0);
  if (stack != reinterpret_cast<void*>(kRepStackAddr)) {
    std::fprintf(stderr, "simbench: no fixed rep stack; layout may vary\n");
    body();
    return;
  }
  g_on_stack_fn = [](void* b) { (*static_cast<B*>(b))(); };
  g_on_stack_arg = &body;
  ucontext_t caller{};
  ucontext_t rep{};
  getcontext(&rep);
  rep.uc_stack.ss_sp = stack;
  rep.uc_stack.ss_size = kRepStackBytes;
  rep.uc_link = &caller;
  makecontext(&rep, on_stack_trampoline, 0);
  swapcontext(&caller, &rep);
}

// Runs fn() in a child forked from this process's current state and
// returns its result, with the spans the child recorded appended here.
//
// Cache-model-on results depend on host addresses (the cache sets and ORT
// stripes of host words the STM probes), and those drift from run to run
// inside one process. Forking every rep from the same parent state, and
// running it on a stack at a fixed address, gives each rep the same
// address layout, hence identical simulated work. The parent must not
// allocate between forks; fn is a template parameter so no std::function
// is built either.
template <typename F>
RepResult in_fork(F&& fn) {
  RepResult r;
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const std::size_t first_span = g_spans.spans.size();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fd[0]);
    auto body = [&] {
      try {
        r = fn();
      } catch (const std::exception& e) {
        r.fail(e.what());
      }
    };
    run_on_rep_stack(body);
    r.spans = g_spans.spans.size() - first_span;
    const bool sent =
        write_all(fd[1], &r, sizeof r) &&
        write_all(fd[1], g_spans.spans.data() + first_span,
                  r.spans * sizeof(Span));
    _exit(sent ? 0 : 1);
  }
  close(fd[1]);
  bool got = read_all(fd[0], &r, sizeof r);
  for (std::uint64_t i = 0; got && i < r.spans; ++i) {
    Span sp{};
    got = read_all(fd[0], &sp, sizeof sp);
    if (got && g_spans.spans.size() < kMaxSpans) g_spans.spans.push_back(sp);
  }
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r = RepResult{};
    r.fail("rep process ended with status " + std::to_string(status));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// A workload has one or more inputs; a rep runs one of them, and reps cycle
// through the inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int inputs() const { return 1; }
  // One timed set-up of every input; keeps whatever state the reps need.
  virtual double setup() = 0;
  virtual RepResult rep(int input) = 0;
  // Set-up time per input, for workloads whose library call fuses set-up
  // with the run: their rep time is the call's time less this.
  double fused_setup_s = 0.0;
};

// Input seeds derived from the workload seed. Contention in the rbtree and
// in intruder swings abort counts, and with them host time per op, by up to
// several times from one input to the next, with a heavy tail. So those
// workloads cycle through several inputs, and a run reports the median rep:
// the figures neither land on one input nor follow its tail.
std::vector<std::uint64_t> sub_seeds(std::uint64_t seed, int n) {
  SplitMix64 sm(seed);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
  for (std::uint64_t& s : out) s = sm.next();
  return out;
}

// The paper's Fig. 4 red-black tree: 8 fibers, cache model on.
class RbTreeWorkload final : public Workload {
 public:
  RbTreeWorkload(std::uint64_t seed, bool tiny) {
    for (std::uint64_t s : sub_seeds(seed, tiny ? 2 : 32)) {
      harness::SetBenchConfig cfg;
      cfg.kind = harness::SetKind::kRbTree;
      cfg.allocator = "glibc";
      cfg.threads = 8;
      cfg.cache_model = true;
      cfg.update_pct = 0.60;
      cfg.initial = tiny ? 256 : 4096;
      cfg.key_range = 2 * cfg.initial;
      cfg.ops_per_thread = tiny ? 40 : 250;
      cfg.seed = s;
      cfgs_.push_back(cfg);
    }
  }
  // run_set_bench fuses allocator/Stm construction and population with the
  // run, so set-up is the same calls at zero ops.
  double setup() override {
    double t = 0.0;
    for (harness::SetBenchConfig zero : cfgs_) {
      zero.ops_per_thread = 0;
      harness::SetBenchResult r;
      t += timed([&] {
        SpanScope s("harness.run_set_bench");
        r = harness::run_set_bench(zero);
      });
      if (!r.size_consistent) throw std::runtime_error("rbtree set-up: size");
    }
    return t;
  }
  int inputs() const override { return static_cast<int>(cfgs_.size()); }
  RepResult rep(int input) override {
    RepResult out;
    Counts& c = out.counts;
    const SchedSnapshot s0 = SchedSnapshot::take();
    harness::SetBenchResult r;
    out.host_s = timed([&] {
                   SpanScope s("harness.run_set_bench");
                   r = harness::run_set_bench(cfgs_[static_cast<std::size_t>(input)]);
                 }) -
                 fused_setup_s;
    s0.add_delta_to(&c);
    c.ops = r.ops;
    c.cycles = cycles_of(r.seconds);
    c.add_tx(r.stats);
    c.add_cache(r.cache);
    c.heap_calls = r.stats.tx_mallocs + r.stats.tx_frees;
    if (!r.size_consistent) out.fail("size_consistent is false");
    return out;
  }

 private:
  std::vector<harness::SetBenchConfig> cfgs_;
};

replay::SynthConfig churn_config(std::uint64_t seed, bool tiny) {
  replay::SynthConfig sc;
  sc.threads = 4;
  sc.ops_per_thread = tiny ? 2000 : 100000;
  sc.live_per_thread = 256;
  sc.seed = seed;
  return sc;
}

// A Larson-style churn trace replayed through the five allocator models,
// cache model off: STM and cache model do no work.
class ReplayWorkload final : public Workload {
 public:
  ReplayWorkload(std::uint64_t seed, bool tiny) : sc_(churn_config(seed, tiny)) {
    rc_.cache_model = false;
    rc_.keep_addresses = false;
    rc_.seed = seed;
  }
  double setup() override {
    replay::Trace generated;
    std::string bytes;
    const double gen = timed([&] {
      SpanScope s("replay.generate_synthetic");
      generated = replay::generate_synthetic(sc_);
    });
    trace_ = replay::Trace{};
    const double dec = timed([&] {
      SpanScope s("replay.encode_decode");
      if (!replay::encode_trace(generated, &bytes) ||
          replay::decode_trace(bytes, &trace_) != replay::ReadStatus::kOk) {
        throw std::runtime_error("replay set-up: trace does not round-trip");
      }
    });
    if (trace_.records != generated.records || trace_.records.empty()) {
      throw std::runtime_error("replay set-up: decoded trace differs");
    }
    generate_s.push_back(gen);
    return gen + dec;
  }
  RepResult rep(int) override {
    RepResult out;
    Counts& c = out.counts;
    const SchedSnapshot s0 = SchedSnapshot::take();
    const double t0 = now_s();
    for (const std::string& m : kModels) {
      replay::ReplayConfig rc = rc_;
      rc.allocator = m;
      replay::ReplayResult r;
      {
        SpanScope s("replay.replay_trace");
        r = replay::replay_trace(trace_, rc);
      }
      if (!r.ok) out.fail(m + ": " + r.error);
      c.ops += trace_.records.size();
      c.cycles += r.cycles;
      c.commits += r.tx_commits;
      c.aborts += r.tx_aborts;
      c.add_cache(r.cache);
      c.heap_calls += r.mallocs + r.frees;
      c.os_reserved += r.os_reserved;
      c.live_bytes += r.live_at_end;
      c.replay_fp = replay::fnv1a(&r.address_fingerprint,
                                  sizeof r.address_fingerprint, c.replay_fp);
    }
    out.host_s = now_s() - t0;
    s0.add_delta_to(&c);
    return out;
  }
  std::vector<double> generate_s;  // trace generation, per set-up

 private:
  replay::SynthConfig sc_;
  replay::ReplayConfig rc_;
  replay::Trace trace_;
};

// Open-loop server_mix just below simulated saturation.
class ServerWorkload final : public Workload {
 public:
  ServerWorkload(std::uint64_t seed, bool tiny) {
    cfg_.allocator = "glibc";
    cfg_.workers = 4;
    cfg_.requests = tiny ? 2000 : 20000;
    cfg_.arrival_cycles = 1000;
    cfg_.seed = seed;
  }
  // run_server_mix fuses allocator/Stm construction with the run, so
  // set-up is the same call with zero requests.
  double setup() override {
    harness::ServerMixConfig zero = cfg_;
    zero.requests = 0;
    return timed([&] {
      SpanScope s("harness.run_server_mix");
      (void)harness::run_server_mix(zero);
    });
  }
  RepResult rep(int) override {
    RepResult out;
    const SchedSnapshot s0 = SchedSnapshot::take();
    harness::ServerMixResult r;
    out.host_s = timed([&] {
                   SpanScope s("harness.run_server_mix");
                   r = harness::run_server_mix(cfg_);
                 }) -
                 fused_setup_s;
    Counts& c = out.counts;
    s0.add_delta_to(&c);
    c.ops = cfg_.requests;
    c.cycles = r.cycles;
    c.add_tx(r.stats);
    // Every parse block is allocated once and freed once (at retire or at
    // teardown); the response blocks are the transactional calls.
    c.heap_calls = r.stats.tx_mallocs + r.stats.tx_frees +
                   2 * cfg_.requests * cfg_.allocs_per_request;
    c.os_reserved = r.reserved_bytes_end;
    c.live_bytes = r.live_bytes_end;
    c.handoffs = r.handoffs;
    c.req_p50 = r.latency.percentile(50);
    c.req_p99 = r.latency.percentile(99);
    c.req_n = r.latency.count();
    if (r.latency.count() != cfg_.requests) {
      out.fail("served " + std::to_string(r.latency.count()) + " of " +
               std::to_string(cfg_.requests) + " requests");
    }
    return out;
  }

 private:
  harness::ServerMixConfig cfg_;
};

// STAMP apps with any subset of the check, guard and prof planes.
struct Planes {
  bool check = false;
  bool guard = false;
  bool prof = false;
};

// One STAMP app run: plane install, allocator stack and Stm construction
// (timed as set-up), then run_app (timed as the run). With `run` false only
// the set-up and teardown happen.
void stamp_app(std::size_t app, const Planes& p, std::uint64_t seed,
               double scale, bool run, RepResult* out) {
  const double t0 = now_s();
  std::unique_ptr<alloc::Allocator> a;
  std::unique_ptr<stm::Stm> stm;
  {
    SpanScope s("setup.planes");
    sim::numa_configure(sim::Topology{}, 4);
    alloc::set_default_numa(alloc::NumaOptions{});
    if (p.check) check::install(check::CheckConfig{});
    // Detect-only guard: its contract is zero perturbation of the schedule.
    if (p.guard) {
      guard::GuardConfig g;
      g.quarantine_epochs = 0;
      guard::install(g);
    }
  }
  {
    SpanScope s("alloc.create_allocator");
    a = alloc::create_allocator("glibc");
  }
  // Wrap order of stamp::run_stamp: checker innermost, guard above it,
  // profiler outermost.
  if (p.check) a = std::make_unique<check::CheckedAllocator>(std::move(a));
  if (p.guard) a = std::make_unique<guard::GuardedAllocator>(std::move(a));
  if (p.prof) {
    a = std::make_unique<prof::ProfilingAllocator>(std::move(a));
    prof::ProfConfig pc;
    pc.allocator = a.get();
    prof::install(pc);
  }
  {
    SpanScope s("core.Stm");
    stm::Config sc;
    sc.allocator = a.get();
    stm = std::make_unique<stm::Stm>(sc);
  }
  out->setup_s += now_s() - t0;
  if (run) {
    stamp::AppContext ctx;
    ctx.stm = stm.get();
    ctx.threads = 4;
    ctx.cache_model = true;
    ctx.seed = seed;
    ctx.scale = scale;
    const SchedSnapshot s0 = SchedSnapshot::take();
    stamp::AppResult r;
    const double t1 = now_s();
    {
      SpanScope s("stamp.run_app");
      r = stamp::run_app(kStampApps[app], ctx);
    }
    const double t = now_s() - t1;
    out->app_s[app] += t;
    out->host_s += t;
    Counts& c = out->counts;
    s0.add_delta_to(&c);
    c.ops += r.stats.commits;
    c.cycles += cycles_of(r.seconds);
    c.add_tx(r.stats);
    c.add_cache(r.cache);
    c.heap_calls += r.stats.tx_mallocs + r.stats.tx_frees;
    c.os_reserved += a->os_reserved();
    c.live_bytes += a->live_bytes();
    auto fail = [&](const std::string& why) {
      out->fail(kStampApps[app] + ": " + why);
    };
    if (!r.verified) fail("not verified (" + r.detail + ")");
    if (p.check && check::hard_count() != 0) {
      fail(std::to_string(check::hard_count()) + " check findings");
    }
    if (p.guard && guard::corruptions() != 0) {
      fail(std::to_string(guard::corruptions()) + " guard corruptions");
    }
  }
  stm.reset();
  a.reset();
  if (p.prof) prof::uninstall();
  if (p.guard) guard::clear();
  if (p.check) check::clear();
}

// vacation and intruder on each seed.
// With `run`, each app runs in a child forked from the same state, so
// intruder's host layout does not depend on what vacation, or a plane,
// allocated before it.
RepResult stamp_pair(const Planes& p, const std::vector<std::uint64_t>& seeds,
                     double scale, bool run) {
  RepResult out;
  for (std::uint64_t seed : seeds) {
    for (std::size_t app = 0; app < kStampApps.size(); ++app) {
      if (!run) {
        stamp_app(app, p, seed, scale, false, &out);
        continue;
      }
      out.add(in_fork([&] {
        RepResult one;
        stamp_app(app, p, seed, scale, true, &one);
        return one;
      }));
    }
  }
  return out;
}

// STAMP vacation + intruder with check, guard and prof all on.
class StampWorkload final : public Workload {
 public:
  StampWorkload(std::uint64_t seed, bool tiny)
      : seeds_(sub_seeds(seed, tiny ? 1 : 3)), scale_(tiny ? 0.05 : 1.0) {}
  int inputs() const override { return static_cast<int>(seeds_.size()); }
  double setup() override {
    return stamp_pair(kAllPlanes, seeds_, scale_, false).setup_s;
  }
  RepResult rep(int input) override {
    return stamp_pair(kAllPlanes, {seeds_[static_cast<std::size_t>(input)]},
                      scale_, true);
  }

 private:
  static constexpr Planes kAllPlanes{true, true, true};
  std::vector<std::uint64_t> seeds_;
  double scale_;
};

// ---------------------------------------------------------------------------
// The layer ladder (traced runs only). Each rung calls one layer's public
// API; the unit costs it yields are the same measurement on every workload.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Median of `reps` calls of a rung that returns one sample.
double median_of(int reps, const std::function<double()>& rung) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(rung());
  return median(v);
}

// Yield-only fibers: every yield in the fan-out is a genuine switch.
double rung_sched_ns_per_switch(int fibers, std::uint64_t yields) {
  SpanScope s("sim.run_parallel");
  sim::RunConfig rc;
  rc.threads = fibers;
  rc.cache_model = false;
  sim::RunResult rr;
  const double t = timed([&] {
    rr = sim::run_parallel(rc, [&](int) {
      for (std::uint64_t i = 0; i < yields; ++i) {
        sim::tick(3);
        sim::yield();
      }
    });
  });
  return ratio(t * 1e9, static_cast<double>(rr.sched.switches));
}

// CacheModel::access on a fixed synthetic stream: 8 cores, 3/4 of the
// accesses to a shared hot set of 4096 lines, the rest over 64 MiB.
double rung_cache_ns_per_access(std::uint64_t seed, std::size_t n) {
  struct Access {
    std::uintptr_t addr;
    unsigned core;
    bool write;
  };
  std::vector<Access> stream(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool hot = rng.below(4) != 0;
    const std::uintptr_t base = hot ? 0x10000000u : 0x40000000u;
    const std::uint64_t span = hot ? 4096 * 64 : 64ull << 20;
    stream[i] = {base + (rng.below(span) & ~std::uint64_t{7}),
                 static_cast<unsigned>(i % 8), rng.below(10) < 3};
  }
  sim::CacheModel cm(sim::CacheGeometry{}, sim::LatencyModel{});
  std::uint64_t sink = 0;
  SpanScope s("sim.CacheModel.access");
  const double t = timed([&] {
    for (const Access& a : stream) sink += cm.access(a.core, a.addr, 8, a.write);
  });
  if (sink == 0) throw std::runtime_error("cache rung: no latency charged");
  return t * 1e9 / static_cast<double>(n);
}

// One fiber, cache model off: transactions of 16 loads and 4 stores.
double rung_core_ns_per_barrier(std::uint64_t seed, int txs) {
  auto a = alloc::create_allocator("glibc");
  stm::Config sc;
  sc.allocator = a.get();
  stm::Stm stm(sc);
  std::vector<std::uint64_t> words(4096, 1);
  sim::RunConfig rc;
  rc.threads = 1;
  rc.cache_model = false;
  SpanScope s("core.atomically");
  const double t = timed([&] {
    sim::run_parallel(rc, [&](int) {
      Rng rng(seed);
      for (int i = 0; i < txs; ++i) {
        stm.atomically([&](stm::Tx& tx) {
          std::uint64_t sum = 0;
          for (int r = 0; r < 16; ++r) sum += tx.load(&words[rng.below(4096)]);
          for (int w = 0; w < 4; ++w) tx.store(&words[rng.below(4096)], sum);
        });
      }
    });
  });
  const stm::TxStats st = stm.stats();
  return ratio(t * 1e9, static_cast<double>(st.reads + st.writes));
}

// Direct allocate/free pairs outside the simulator: a window of 1024 live
// blocks, one random slot replaced per pair.
double rung_alloc_ns_per_op(const std::string& model, std::uint64_t seed,
                            std::size_t pairs) {
  static const std::size_t kSizes[] = {16, 32, 48, 64, 96, 128, 256, 1024};
  auto a = alloc::create_allocator(model);
  Rng rng(seed);
  std::vector<void*> live(1024);
  for (void*& p : live) p = a->allocate(kSizes[rng.below(8)]);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan(pairs);
  for (auto& [slot, size] : plan) {
    slot = static_cast<std::uint32_t>(rng.below(live.size()));
    size = static_cast<std::uint32_t>(kSizes[rng.below(8)]);
  }
  SpanScope s("alloc.allocate_deallocate");
  const double t = timed([&] {
    for (const auto& [slot, size] : plan) {
      a->deallocate(live[slot]);
      live[slot] = a->allocate(size);
    }
  });
  for (void* p : live) a->deallocate(p);
  return t * 1e9 / static_cast<double>(2 * pairs);
}

struct LadderSizes {
  int reps;
  std::uint64_t sched_yields_8;
  std::uint64_t sched_yields_256;
  std::size_t cache_accesses;
  int core_txs;
  std::size_t alloc_pairs;
  int replay_rounds;
  int plane_rounds;
  double stamp_scale;
};

// Replay differential on replay_churn's trace: host time with each model
// less host time with the `system` passthrough, as a share of the model's.
void ladder_replay(std::uint64_t seed, bool tiny, int rounds,
                   std::vector<Metric>* m, std::string* error) {
  const replay::Trace trace = replay::generate_synthetic(churn_config(seed, tiny));
  std::vector<double> decode;
  for (int i = 0; i < 3; ++i) {
    std::string bytes;
    replay::Trace back;
    SpanScope s("replay.encode_decode");
    decode.push_back(timed([&] {
      if (!replay::encode_trace(trace, &bytes) ||
          replay::decode_trace(bytes, &back) != replay::ReadStatus::kOk) {
        *error = "replay ladder: trace does not round-trip";
      }
    }));
  }
  replay::ReplayConfig rc;
  rc.cache_model = false;
  rc.keep_addresses = false;
  rc.seed = seed;
  std::vector<double> share;
  std::vector<double> ns_per_record;
  for (int round = 0; round < rounds; ++round) {
    auto run = [&](const std::string& model) {
      rc.allocator = model;
      SpanScope s("replay.replay_trace");
      replay::ReplayResult r;
      const double t = timed([&] { r = replay::replay_trace(trace, rc); });
      if (!r.ok && error->empty()) *error = "replay ladder: " + r.error;
      return t;
    };
    const double sys = run("system");
    double sum = 0.0;
    for (const std::string& model : kModels) {
      const double t = run(model);
      sum += (t - sys) / t;
    }
    share.push_back(sum / static_cast<double>(kModels.size()));
    ns_per_record.push_back(sys * 1e9 /
                            static_cast<double>(trace.records.size()));
  }
  m->push_back({"alloc.share", median(share), "fraction"});
  m->push_back({"replay.ns_per_record", median(ns_per_record), "ns"});
  m->push_back({"replay.decode_s", median(decode), "s"});
}

// Each plane alone against all planes off, over identical simulated work
// (vacation + intruder on the first of stamp_planes' input seeds). The
// counts must match: a plane may cost host time but must not perturb the
// simulation.
void ladder_planes(std::uint64_t seed, double scale, int rounds,
                   std::vector<Metric>* m, std::string* error) {
  const Planes kOff{};
  const Planes kOn[] = {{true, false, false}, {false, true, false},
                        {false, false, true}};
  const char* kNames[] = {"check.overhead_ratio", "guard.overhead_ratio",
                          "prof.overhead_ratio"};
  const std::vector<std::uint64_t> seeds = sub_seeds(seed, 1);
  std::vector<double> ratios[3];
  std::vector<double> app_s[2];
  for (int round = 0; round < rounds; ++round) {
    const RepResult off =
        in_fork([&] { return stamp_pair(kOff, seeds, scale, true); });
    if (!off.ok() && error->empty()) *error = off.error;
    app_s[0].push_back(off.app_s[0]);
    app_s[1].push_back(off.app_s[1]);
    for (int p = 0; p < 3; ++p) {
      const RepResult on =
          in_fork([&] { return stamp_pair(kOn[p], seeds, scale, true); });
      if (!on.ok() && error->empty()) *error = on.error;
      if (!(on.counts == off.counts) && error->empty()) {
        *error = std::string(kNames[p]) + ": plane changed the simulation";
      }
      ratios[p].push_back(on.host_s / off.host_s);
    }
  }
  for (int p = 0; p < 3; ++p) m->push_back({kNames[p], median(ratios[p]), "ratio"});
  m->push_back({"stamp.vacation.run_s", median(app_s[0]), "s"});
  m->push_back({"stamp.intruder.run_s", median(app_s[1]), "s"});
}

// Allocator and Stm construction timed directly (the set-up layers).
double rung_setup_alloc() {
  std::unique_ptr<alloc::Allocator> a;
  const double t = timed([&] {
    SpanScope s("alloc.create_allocator");
    a = alloc::create_allocator("glibc");
  });
  a.reset();
  return t;
}

double rung_setup_stm() {
  auto a = alloc::create_allocator("glibc");
  std::unique_ptr<stm::Stm> stm;
  stm::Config sc;
  sc.allocator = a.get();
  return timed([&] {
    SpanScope s("core.Stm");
    stm = std::make_unique<stm::Stm>(sc);
  });
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

// Views into argv: parsing allocates nothing, so the heap layout the reps
// fork from does not depend on the arguments' lengths.
struct Args {
  const char* workload = "";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  const char* spans_out = nullptr;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "rbtree|replay_churn|server_open|stamp_planes --seed N "
               "--seconds S --trace 0|1 [--tiny] [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const char* k = argv[i];
    auto is = [&](const char* flag) { return std::strcmp(k, flag) == 0; };
    auto val = [&]() -> const char* {
      if (i + 1 >= argc) usage("a flag is missing its value");
      return argv[++i];
    };
    char* end = nullptr;
    if (is("--workload")) {
      a.workload = val();
    } else if (is("--seed")) {
      const char* v = val();
      errno = 0;
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *v == '-' || *end != '\0' || errno != 0) {
        usage("bad --seed");
      }
    } else if (is("--seconds")) {
      const char* v = val();
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0') usage("bad --seconds");
    } else if (is("--trace")) {
      const char* v = val();
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (is("--tiny")) {
      a.tiny = true;
    } else if (is("--spans-out")) {
      a.spans_out = val();
    } else {
      usage("unknown flag");
    }
  }
  if (*a.workload == '\0') usage("--workload is required");
  if (!(a.seconds > 0.0) || !std::isfinite(a.seconds)) {
    usage("--seconds must be positive");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  const std::string_view w = a.workload;
  if (w == "rbtree") return std::make_unique<RbTreeWorkload>(a.seed, a.tiny);
  if (w == "replay_churn") {
    return std::make_unique<ReplayWorkload>(a.seed, a.tiny);
  }
  if (w == "server_open") {
    return std::make_unique<ServerWorkload>(a.seed, a.tiny);
  }
  if (w == "stamp_planes") {
    return std::make_unique<StampWorkload>(a.seed, a.tiny);
  }
  usage("unknown workload");
}

// Peak resident memory of this process and of its largest rep process.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is KiB
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    if (i != 0) o += ", ";
    o += "\"" + ms[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         ms[i].unit + "\"}";
  }
  return o + "}";
}

// The per-layer metrics computed from the workload's own counts. A share
// is unit cost × count per op × ops per host second.
void workload_layer_metrics(const Counts& c, double ops_per_s,
                            double ns_switch, double ns_access,
                            std::vector<Metric>* m) {
  const double ops = static_cast<double>(c.ops);
  auto per_op = [&](std::uint64_t v) { return ratio(static_cast<double>(v), ops); };
  m->push_back({"sim.sched.switches_per_op", per_op(c.switches), "count"});
  m->push_back({"sim.sched.fast_resumes_per_op", per_op(c.fast_resumes), "count"});
  m->push_back({"sim.sched.heap_ops_per_op", per_op(c.sched_heap_ops), "count"});
  m->push_back({"sim.sched.share",
                ns_switch * 1e-9 * per_op(c.switches) * ops_per_s, "fraction"});
  m->push_back({"sim.cache.accesses_per_op", per_op(c.accesses), "count"});
  m->push_back({"sim.cache.l1_miss_ratio",
                ratio(static_cast<double>(c.l1_misses),
                      static_cast<double>(c.accesses)),
                "fraction"});
  m->push_back({"sim.cache.invalidations_per_op", per_op(c.invalidations), "count"});
  m->push_back({"sim.cache.false_sharing_per_op", per_op(c.false_sharing), "count"});
  m->push_back({"sim.cache.share",
                ns_access * 1e-9 * per_op(c.accesses) * ops_per_s, "fraction"});
  m->push_back({"core.reads_per_op", per_op(c.reads), "count"});
  m->push_back({"core.writes_per_op", per_op(c.writes), "count"});
  m->push_back({"core.abort_ratio",
                ratio(static_cast<double>(c.aborts), static_cast<double>(c.starts)),
                "fraction"});
  m->push_back({"core.extensions_per_op", per_op(c.extensions), "count"});
  m->push_back({"core.tx_mallocs_per_op", per_op(c.tx_mallocs), "count"});
  m->push_back({"core.cycles_per_op", per_op(c.cycles), "cycles"});
  m->push_back({"alloc.heap_ops_per_op", per_op(c.heap_calls), "count"});
  m->push_back({"alloc.os_reserved_mb",
                static_cast<double>(c.os_reserved) / (1024.0 * 1024.0), "MB"});
  m->push_back({"alloc.frag_ratio",
                ratio(static_cast<double>(c.os_reserved),
                      static_cast<double>(c.live_bytes)),
                "ratio"});
  m->push_back({"harness.req_cycles_p50", static_cast<double>(c.req_p50), "cycles"});
  m->push_back({"harness.req_cycles_p99", static_cast<double>(c.req_p99), "cycles"});
  m->push_back({"harness.req_samples", static_cast<double>(c.req_n), "count"});
  m->push_back({"harness.handoffs_per_req", per_op(c.handoffs), "count"});
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  const bool tiny = args.tiny;
  std::printf("simbench %s seed=%llu seconds=%g trace=%d%s\n",
              args.workload, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, tiny ? " (tiny)" : "");

  // Reserved in both modes, so a traced run forks its reps from the same
  // address layout as an untraced one.
  g_spans.spans.reserve(kMaxSpans);

  // Set-up, several times; the median is setup_s.
  g_spans.on = args.trace;
  std::vector<double> setups;
  const int setup_reps = tiny ? 3 : 5;
  for (int i = 0; i < setup_reps; ++i) {
    SpanScope s("setup");
    setups.push_back(w->setup());
  }
  const double setup_s = median(setups);
  const int inputs = w->inputs();
  w->fused_setup_s = setup_s / inputs;

  // Reps cycle through the inputs until --seconds have passed, in whole
  // cycles and at least two. With tracing, whole cycles alternate between
  // untraced and traced, so the two medians give the tracing overhead over
  // the same inputs. Every rep forks from the state the parent is in here,
  // so the parent must not allocate between reps on the success path: the
  // vectors are sized up front.
  std::vector<double> untraced_s;   // host time per rep
  std::vector<double> untraced_ops_per_s;
  std::vector<double> traced_ops_per_s;
  untraced_s.reserve(kMaxReps);
  untraced_ops_per_s.reserve(kMaxReps);
  traced_ops_per_s.reserve(kMaxReps);
  std::vector<Counts> first(static_cast<std::size_t>(inputs));
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const int min_reps = std::max(tiny ? 2 : 5, 2 * inputs);
  const double t_end = now_s() + args.seconds;
  for (int i = 0; (now_s() < t_end || i < min_reps || i % inputs != 0) &&
                  i < kMaxReps;
       ++i) {
    const int input = i % inputs;
    const bool traced = args.trace && (i / inputs) % 2 == 1;
    g_spans.on = traced;
    g_spans.rep = i;
    RepResult r = in_fork([&] {
      SpanScope s("rep");
      return w->rep(input);
    });
    g_spans.rep = -1;
    ++attempted;
    Counts& want = first[static_cast<std::size_t>(input)];
    if (i < inputs) want = r.counts;
    if (r.ok() && !(r.counts == want)) {
      r.fail("counts differ from the input's first rep: " + r.counts.json());
    }
    if (!r.ok()) {
      ++failed;
      std::fprintf(stderr, "simbench: rep %d failed: %s\n", i, r.error);
    }
    const double rate = ratio(static_cast<double>(r.counts.ops), r.host_s);
    if (traced) {
      traced_ops_per_s.push_back(rate);
    } else {
      untraced_s.push_back(r.host_s);
      untraced_ops_per_s.push_back(rate);
    }
  }
  g_spans.on = args.trace;

  // The counts of one pass over every input.
  Counts total = first[0];
  for (std::size_t k = 1; k < first.size(); ++k) total.add(first[k]);
  const double rep_p50 = median(untraced_s);
  const double rep_p90 = quantile(untraced_s, 0.9);
  const double ops_per_s = median(untraced_ops_per_s);
  std::printf("  setup_s       %.6f s (median of %d)\n", setup_s, setup_reps);
  std::printf("  rep_ms        p50 %.3f  p90 %.3f  (n=%zu untraced, %d inputs)\n",
              rep_p50 * 1e3, rep_p90 * 1e3, untraced_s.size(), inputs);
  std::printf("  sim_ops_per_s %.1f 1/s (median rep; %llu ops per pass)\n",
              ops_per_s, static_cast<unsigned long long>(total.ops));
  std::printf("  failed_frac   %.4f (%llu of %llu reps)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("counts %s\n", total.json().c_str());

  std::vector<Metric> metrics;
  std::string error;
  if (!args.trace) {
    metrics.push_back({"sim_ops_per_s", ops_per_s, "1/s"});
    metrics.push_back({"rep_ms_p90", rep_p90 * 1e3, "ms"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  } else {
    const LadderSizes L =
        tiny ? LadderSizes{.reps = 3,
                           .sched_yields_8 = 2000,
                           .sched_yields_256 = 200,
                           .cache_accesses = 1 << 14,
                           .core_txs = 500,
                           .alloc_pairs = 2000,
                           .replay_rounds = 1,
                           .plane_rounds = 1,
                           .stamp_scale = 0.05}
             : LadderSizes{.reps = 5,
                           .sched_yields_8 = 100000,
                           .sched_yields_256 = 2000,
                           .cache_accesses = 1 << 20,
                           .core_txs = 20000,
                           .alloc_pairs = 200000,
                           .replay_rounds = 3,
                           .plane_rounds = 3,
                           .stamp_scale = 1.0};
    const double ns_switch = median_of(
        L.reps, [&] { return rung_sched_ns_per_switch(8, L.sched_yields_8); });
    const double ns_switch_256 = median_of(
        L.reps, [&] { return rung_sched_ns_per_switch(256, L.sched_yields_256); });
    const double ns_access = median_of(L.reps, [&] {
      return rung_cache_ns_per_access(args.seed, L.cache_accesses);
    });
    const double ns_barrier = median_of(L.reps, [&] {
      return rung_core_ns_per_barrier(args.seed, L.core_txs);
    });
    workload_layer_metrics(total, ops_per_s, ns_switch, ns_access, &metrics);
    metrics.push_back({"sim.sched.ns_per_switch", ns_switch, "ns"});
    metrics.push_back({"sim.sched.ns_per_switch_256", ns_switch_256, "ns"});
    metrics.push_back({"sim.cache.ns_per_access", ns_access, "ns"});
    metrics.push_back({"core.ns_per_barrier", ns_barrier, "ns"});
    for (const std::string& model : kModels) {
      metrics.push_back({"alloc." + model + ".ns_per_op", median_of(L.reps, [&] {
                           return rung_alloc_ns_per_op(model, args.seed,
                                                       L.alloc_pairs);
                         }),
                         "ns"});
    }
    ladder_replay(args.seed, tiny, L.replay_rounds, &metrics, &error);
    ladder_planes(args.seed, L.stamp_scale, L.plane_rounds, &metrics, &error);
    const double alloc_s = median_of(9, rung_setup_alloc);
    const double stm_s = median_of(9, rung_setup_stm);
    // Set-up not spent constructing the allocator and the Stm: population,
    // trace generation, plane install. replay_churn's set-up constructs
    // neither (replay_trace builds its allocator inside the rep).
    auto* replay = dynamic_cast<ReplayWorkload*>(w.get());
    const double inputs_s =
        replay != nullptr ? median(replay->generate_s) : setup_s - alloc_s - stm_s;
    metrics.push_back({"setup.alloc_s", alloc_s, "s"});
    metrics.push_back({"setup.stm_s", stm_s, "s"});
    metrics.push_back({"setup.inputs_s", inputs_s, "s"});
    metrics.push_back({"trace.overhead_ratio",
                       ratio(ops_per_s, median(traced_ops_per_s)), "ratio"});
    if (args.spans_out != nullptr && !write_spans(args.spans_out)) {
      error = std::string("cannot write ") + args.spans_out;
    }
    std::printf("  spans         %zu recorded\n", g_spans.spans.size());
    for (const auto& [name, s] : self_times()) {
      std::printf("  self %-28s %.6f s\n", name.c_str(), s);
    }
  }
  if (!error.empty()) std::fprintf(stderr, "simbench: %s\n", error.c_str());

  const bool correct = failed == 0 && error.empty();
  std::printf("summary {\"workload\": \"%s\", \"reps\": %zu, \"setups\": %d, "
              "\"rep_ms_p50\": %.6f, \"failed_frac\": %.6f}\n",
              args.workload, untraced_s.size(), setup_reps,
              rep_p50 * 1e3,
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The host address layout is an input of cache-model-on runs. Re-exec
  // once with address-space randomization off so that the layout, and with
  // it every simulated statistic, is a function of the arguments alone.
  const int persona = personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    execv("/proc/self/exe", argv);
    std::fprintf(stderr, "simbench: re-exec failed; address layout varies\n");
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 1;
  }
}
