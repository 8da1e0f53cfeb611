#include <cstdio>
#include <cstdlib>

#include "prof/prof.hpp"
#include "stamp/app.hpp"

namespace tmx::stamp {

std::vector<std::string> app_names() {
  return {"bayes",     "genome", "intruder", "kmeans",
          "labyrinth", "ssca2",  "vacation", "yada"};
}

bool app_exists(const std::string& name) {
  for (const auto& n : app_names()) {
    if (n == name) return true;
  }
  return false;
}

AppResult run_app(const std::string& name, const AppContext& ctx) {
  if (name == "bayes") return run_bayes(ctx);
  if (name == "genome") return run_genome(ctx);
  if (name == "intruder") return run_intruder(ctx);
  if (name == "kmeans") return run_kmeans(ctx);
  if (name == "labyrinth") return run_labyrinth(ctx);
  if (name == "ssca2") return run_ssca2(ctx);
  if (name == "vacation") return run_vacation(ctx);
  if (name == "yada") return run_yada(ctx);
  std::fprintf(stderr, "unknown STAMP app '%s'\n", name.c_str());
  std::abort();
}

StampOutcome run_stamp(const StampRun& run) {
  run.configure_numa();
  const stm::AllocatorStack stack = stm::build_stack(
      run.allocator, run.instrument, run.prof, run.prof_sample_cycles);
  stm::Stm stm(run.stm_config(stack.top.get()));

  AppContext ctx;
  ctx.stm = &stm;
  ctx.threads = run.threads;
  ctx.engine = run.engine;
  ctx.cache_model = run.cache_model;
  ctx.seed = run.seed;
  ctx.scale = run.scale;
  ctx.watchdog_cycles = run.watchdog_cycles;
  ctx.topology = run.topology;

  StampOutcome out;
  out.result = run_app(run.app, ctx);
  if (stack.instrument != nullptr) out.profile = stack.instrument->profile();
  // Final RSS/fragmentation row while the observed allocator is still
  // alive; after return the profiler only holds copied data.
  if (run.prof) prof::sample_now();
  return out;
}

}  // namespace tmx::stamp
