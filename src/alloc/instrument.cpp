#include "alloc/instrument.hpp"

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"

namespace tmx::alloc {

namespace {
// Region markers are per logical thread, so they work under both engines.
Padded<Region> g_region[kMaxThreads];
}  // namespace

const char* region_name(Region r) {
  switch (r) {
    case Region::Seq: return "seq";
    case Region::Par: return "par";
    case Region::Tx: return "tx";
  }
  return "?";
}

Region current_region() { return *g_region[sim::self_tid()]; }

void set_region(Region r) { *g_region[sim::self_tid()] = r; }

int size_bucket(std::size_t size) {
  for (int i = 0; i < kNumSizeBuckets - 1; ++i) {
    if (size <= kSizeBucketBounds[i]) return i;
  }
  return kNumSizeBuckets - 1;
}

const char* size_bucket_name(int bucket) {
  static const char* names[kNumSizeBuckets] = {"16",  "32",  "48",  "64",
                                               "96",  "128", "256", ">256"};
  return names[bucket];
}

InstrumentingAllocator::InstrumentingAllocator(
    std::unique_ptr<Allocator> inner)
    : ForwardingAllocator(std::move(inner)) {}

void* InstrumentingAllocator::allocate(std::size_t size) {
  const int tid = sim::self_tid();
  Counters& c = *counters_[tid];
  const int r = static_cast<int>(current_region());
  ++c.by_bucket[r][size_bucket(size)];
  ++c.mallocs[r];
  c.bytes[r] += size;
#if TMX_TRACING
  // The event needs the returned address but must carry the timestamp at
  // which the allocator was *entered*: trace replay re-executes the call at
  // the recorded cycle and re-pays the allocator's internal cost, so a
  // post-call stamp would double-count it and skew the replayed
  // interleaving (see replay/replayer.hpp).
  if (TMX_UNLIKELY(obs::trace_enabled())) {
    const std::uint64_t ts = obs::trace_clock();
    void* p = inner_->allocate(size);
    obs::Tracer::instance().record_at(
        ts, tid, obs::EventKind::kAlloc, reinterpret_cast<std::uintptr_t>(p),
        size, static_cast<std::uint8_t>(r),
        static_cast<std::uint16_t>(size_bucket(size)));
    return p;
  }
#endif
  return inner_->allocate(size);
}

void InstrumentingAllocator::deallocate(void* p) {
  if (p == nullptr) return;
  Counters& c = *counters_[sim::self_tid()];
  const int r = static_cast<int>(current_region());
  ++c.frees[r];
  TMX_OBS_EVENT(obs::EventKind::kFree,
                reinterpret_cast<std::uintptr_t>(p), 0,
                static_cast<std::uint8_t>(r));
  inner_->deallocate(p);
}

AllocationProfile InstrumentingAllocator::profile() const {
  AllocationProfile prof;
  for (const auto& pc : counters_) {
    const Counters& c = *pc;
    for (int r = 0; r < kNumRegions; ++r) {
      for (int b = 0; b < kNumSizeBuckets; ++b) {
        prof.regions[r].by_bucket[b] += c.by_bucket[r][b];
      }
      prof.regions[r].mallocs += c.mallocs[r];
      prof.regions[r].frees += c.frees[r];
      prof.regions[r].bytes += c.bytes[r];
    }
  }
  return prof;
}

void InstrumentingAllocator::reset_profile() {
  for (auto& pc : counters_) *pc = Counters{};
}

void publish_metrics(const AllocationProfile& profile,
                     obs::MetricsRegistry& reg, const std::string& prefix) {
  for (int r = 0; r < kNumRegions; ++r) {
    const RegionProfile& rp = profile.regions[r];
    const std::string base =
        prefix + region_name(static_cast<Region>(r)) + ".";
    reg.set_counter(base + "mallocs", rp.mallocs);
    reg.set_counter(base + "frees", rp.frees);
    reg.set_counter(base + "bytes", rp.bytes);
    for (int b = 0; b < kNumSizeBuckets; ++b) {
      reg.set_counter(base + "bucket." + size_bucket_name(b),
                      rp.by_bucket[b]);
    }
  }
}

}  // namespace tmx::alloc
