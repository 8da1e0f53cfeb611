// trace_replay: capture-free entry point to the tmx::replay subsystem.
//
//   # generate a synthetic Larson-style churn trace
//   ./build/examples/trace_replay --synth --record-trace churn.tmxtrc
//       --threads 4 --ops 2000 --live 256 --tx-fraction 0.8
//
//   # one capture, four allocators: side-by-side placement comparison
//   ./build/examples/trace_replay --replay-trace churn.tmxtrc
//       --alloc glibc,hoard,tbb,tcmalloc
//
//   # header + record census without replaying
//   ./build/examples/trace_replay --inspect churn.tmxtrc
//
//   # in-process determinism self-check (CI): synth -> encode/decode
//   # round-trip -> double replay through every model, all must agree
//   ./build/examples/trace_replay --selfcheck
#include <cstdio>
#include <string>

#include "alloc/allocator.hpp"
#include "harness/options.hpp"
#include "obs/metrics.hpp"
#include "replay/replayer.hpp"
#include "replay/synth.hpp"
#include "replay/trace_format.hpp"

namespace {

using namespace tmx;

replay::SynthConfig synth_config(const harness::Options& opt) {
  replay::SynthConfig sc;
  sc.threads = static_cast<std::uint32_t>(opt.thread_count(4));
  sc.ops_per_thread = static_cast<std::uint64_t>(opt.get_long("ops", 1000));
  sc.live_per_thread = static_cast<std::uint32_t>(opt.get_long("live", 256));
  sc.tx_fraction = opt.get_double("tx-fraction", 1.0);
  sc.mean_op_cycles =
      static_cast<std::uint64_t>(opt.get_long("op-cycles", 120));
  sc.seed = opt.seed();
  return sc;
}

replay::ReplayConfig replay_config(const harness::Options& opt) {
  replay::ReplayConfig cfg;
  cfg.shift = static_cast<unsigned>(opt.get_long("shift", 0));
  cfg.ort_log2 = static_cast<unsigned>(opt.get_long("ort-log2", 0));
  cfg.cache_model = opt.get_long("cache-model", 1) != 0;
  cfg.strict_gaps = opt.has("strict-gaps");
  cfg.seed = opt.seed();
  return cfg;
}

int inspect(const std::string& path) {
  replay::Trace t;
  const replay::ReadStatus st = replay::read_trace(path, &t);
  if (st != replay::ReadStatus::kOk) {
    std::fprintf(stderr, "inspect: %s: %s\n", path.c_str(),
                 replay::read_status_name(st));
    return 2;
  }
  std::printf("file:      %s (tmx-trace-v1)\n", path.c_str());
  std::printf("allocator: %s\n",
              t.meta.allocator.empty() ? "-" : t.meta.allocator.c_str());
  std::printf("threads:   %u\n", t.meta.threads);
  std::printf("ORT:       shift=%u ort_log2=%u\n", t.meta.shift,
              t.meta.ort_log2);
  std::printf("seed:      %llu\n",
              static_cast<unsigned long long>(t.meta.seed));
  std::printf("records:   %zu  (malloc %llu, free %llu, tx %llu/%llu/%llu "
              "begin/commit/abort, gaps %llu)\n",
              t.records.size(),
              static_cast<unsigned long long>(t.count(replay::OpKind::kMalloc)),
              static_cast<unsigned long long>(t.count(replay::OpKind::kFree)),
              static_cast<unsigned long long>(
                  t.count(replay::OpKind::kTxBegin)),
              static_cast<unsigned long long>(
                  t.count(replay::OpKind::kTxCommit)),
              static_cast<unsigned long long>(
                  t.count(replay::OpKind::kTxAbort)),
              static_cast<unsigned long long>(t.count(replay::OpKind::kGap)));
  if (t.gappy()) {
    std::printf("GAPPY:     %llu events lost to ring truncation\n",
                static_cast<unsigned long long>(t.meta.dropped));
  }
  const replay::StripeStats rec = replay::recorded_stripe_stats(t);
  if (rec.blocks > 0) {
    std::printf("recorded placement: %llu blocks, %llu cross-thread stripe "
                "collisions (ratio %.4f)\n",
                static_cast<unsigned long long>(rec.blocks),
                static_cast<unsigned long long>(rec.cross_thread_collisions),
                rec.collision_ratio());
  }
  return 0;
}

bool results_agree(const replay::ReplayResult& a,
                   const replay::ReplayResult& b) {
  return a.ok && b.ok && a.address_fingerprint == b.address_fingerprint &&
         a.stripes == b.stripes && a.cycles == b.cycles &&
         a.os_reserved == b.os_reserved;
}

// CI's in-process determinism probe: every stage that claims to be a pure
// function of its inputs is run twice and must agree with itself. Runs
// with the cache model off — that is the exact-address contract
// (replay/replayer.hpp); cache-on latencies depend on where a model's
// host-heap metadata happens to land.
int selfcheck(const harness::Options& opt) {
  replay::SynthConfig sc = synth_config(opt);
  sc.ops_per_thread = static_cast<std::uint64_t>(opt.get_long("ops", 400));
  sc.live_per_thread = static_cast<std::uint32_t>(opt.get_long("live", 64));

  const replay::Trace t = replay::generate_synthetic(sc);
  if (t.records.empty()) {
    std::fprintf(stderr, "selfcheck: synthetic generation came up empty\n");
    return 1;
  }
  {
    const replay::Trace t2 = replay::generate_synthetic(sc);
    if (!(t2.meta == t.meta) || t2.records != t.records) {
      std::fprintf(stderr, "selfcheck: synth is not deterministic\n");
      return 1;
    }
  }
  std::string bytes, bytes2;
  if (!replay::encode_trace(t, &bytes) ||
      !replay::encode_trace(t, &bytes2) || bytes != bytes2) {
    std::fprintf(stderr, "selfcheck: encoding is not deterministic\n");
    return 1;
  }
  replay::Trace rt;
  if (replay::decode_trace(bytes, &rt) != replay::ReadStatus::kOk ||
      !(rt.meta == t.meta) || rt.records != t.records) {
    std::fprintf(stderr, "selfcheck: encode/decode round-trip mismatch\n");
    return 1;
  }

  replay::ReplayConfig cfg = replay_config(opt);
  cfg.cache_model = opt.get_long("cache-model", 0) != 0;
  bool ok = true;
  for (const auto& model : alloc::allocator_names()) {
    if (model == "system") continue;  // host malloc: addresses unreproducible
    replay::ReplayConfig c = cfg;
    c.allocator = model;
    const replay::ReplayResult r1 = replay::replay_trace(rt, c);
    const replay::ReplayResult r2 = replay::replay_trace(rt, c);
    if (!r1.ok || !r2.ok) {
      std::fprintf(stderr, "selfcheck: replay through %s failed: %s\n",
                   model.c_str(),
                   (!r1.ok ? r1.error : r2.error).c_str());
      ok = false;
    } else if (!results_agree(r1, r2)) {
      std::fprintf(stderr,
                   "selfcheck: replay through %s is not run-to-run "
                   "deterministic (fp %016llx vs %016llx)\n",
                   model.c_str(),
                   static_cast<unsigned long long>(r1.address_fingerprint),
                   static_cast<unsigned long long>(r2.address_fingerprint));
      ok = false;
    } else {
      std::printf("selfcheck: %-9s fp=%016llx collisions=%llu cycles=%llu\n",
                  model.c_str(),
                  static_cast<unsigned long long>(r1.address_fingerprint),
                  static_cast<unsigned long long>(
                      r1.stripes.cross_thread_collisions),
                  static_cast<unsigned long long>(r1.cycles));
    }
  }
  std::printf("selfcheck: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Options opt(argc, argv);
  opt.apply_phase_config();
  if (harness::handle_list_allocators(opt)) return 0;
  if (opt.has("selfcheck")) return selfcheck(opt);
  const std::string inspect_path = opt.get("inspect", "");
  if (!inspect_path.empty()) return inspect(inspect_path);

  if (opt.has("synth")) {
    const std::string out = opt.record_trace();
    if (out.empty()) {
      std::fprintf(stderr, "--synth needs --record-trace PATH\n");
      return 2;
    }
    const replay::Trace t = replay::generate_synthetic(synth_config(opt));
    if (t.records.empty()) {
      std::fprintf(stderr, "synth: degenerate configuration\n");
      return 2;
    }
    if (!replay::write_trace(out, t)) {
      std::fprintf(stderr, "synth: failed to write %s\n", out.c_str());
      return 2;
    }
    std::printf("synth: wrote %zu records (%u threads, seed %llu) to %s\n",
                t.records.size(), t.meta.threads,
                static_cast<unsigned long long>(t.meta.seed), out.c_str());
    return 0;
  }

  const std::string in = opt.replay_trace();
  if (in.empty() || opt.has("help")) {
    std::printf(
        "usage:\n"
        "  trace_replay --synth --record-trace PATH [--threads N --ops N "
        "--live N\n"
        "               --tx-fraction F --op-cycles C --seed S]\n"
        "  trace_replay --replay-trace PATH [--alloc a,b,...] [--shift K "
        "--ort-log2 L]\n"
        "               [--cache-model 0|1] [--strict-gaps] "
        "[--metrics-out PATH]\n"
        "  trace_replay --inspect PATH\n"
        "  trace_replay --selfcheck\n"
        "  trace_replay --list-allocators\n");
    return in.empty() && !opt.has("help") ? 2 : 0;
  }
  replay::Trace t;
  const replay::ReadStatus st = replay::read_trace(in, &t);
  if (st != replay::ReadStatus::kOk) {
    std::fprintf(stderr, "replay: cannot load %s: %s\n", in.c_str(),
                 replay::read_status_name(st));
    return 2;
  }
  const auto results =
      replay::replay_compare(t, opt.allocators(), replay_config(opt));
  replay::print_comparison(t, results, stdout);
  bool all_ok = true;
  for (const auto& r : results) {
    if (r.ok) {
      replay::publish_metrics(r, obs::MetricsRegistry::global(),
                              "replay." + r.allocator + ".");
    } else {
      all_ok = false;
    }
  }
  if (!opt.metrics_out().empty()) {
    obs::MetricsRegistry::global().write_json(opt.metrics_out());
  }
  return all_ok ? 0 : 1;
}
