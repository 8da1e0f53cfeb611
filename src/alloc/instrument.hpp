// Allocation instrumentation for the Table 5 characterization.
//
// The paper distinguishes three code regions — `seq` (sequential
// initialization), `par` (parallel, outside transactions) and `tx` (inside
// transactions) — and counts (de)allocations per size class in each. Here a
// per-thread region marker is maintained (the STM flips it to Tx for the
// duration of a transaction; applications mark their parallel phases with a
// RegionScope), and InstrumentingAllocator records every call against the
// marker before forwarding to the wrapped allocator.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "alloc/allocator.hpp"
#include "util/macros.hpp"
#include "util/padded.hpp"

namespace tmx::obs {
class MetricsRegistry;
}

namespace tmx::alloc {

enum class Region : int { Seq = 0, Par = 1, Tx = 2 };
inline constexpr int kNumRegions = 3;

const char* region_name(Region r);

// Per-logical-thread region marker.
Region current_region();
void set_region(Region r);

class RegionScope {
 public:
  explicit RegionScope(Region r) : saved_(current_region()) { set_region(r); }
  ~RegionScope() { set_region(saved_); }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  Region saved_;
};

// Size buckets as reported in Table 5: <=16, 32, 48, 64, 96, 128, 256, >256.
inline constexpr std::size_t kSizeBucketBounds[] = {16, 32, 48, 64,
                                                    96, 128, 256};
inline constexpr int kNumSizeBuckets = 8;

int size_bucket(std::size_t size);
const char* size_bucket_name(int bucket);

struct RegionProfile {
  std::uint64_t by_bucket[kNumSizeBuckets] = {};
  std::uint64_t mallocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;
};

// Aggregated allocation counts per region, suitable for printing Table 5.
struct AllocationProfile {
  RegionProfile regions[kNumRegions];
};

// Publishes the per-region allocation counters into the unified metrics
// registry under `prefix` ("alloc.tx.mallocs", "alloc.seq.bucket.32", ...).
void publish_metrics(const AllocationProfile& profile,
                     obs::MetricsRegistry& reg,
                     const std::string& prefix = "alloc.");

class InstrumentingAllocator final : public ForwardingAllocator {
 public:
  explicit InstrumentingAllocator(std::unique_ptr<Allocator> inner);

  void* allocate(std::size_t size) override;
  void deallocate(void* p) override;

  AllocationProfile profile() const;  // aggregates per-thread counters
  void reset_profile();

 private:
  struct Counters {
    std::uint64_t by_bucket[kNumRegions][kNumSizeBuckets] = {};
    std::uint64_t mallocs[kNumRegions] = {};
    std::uint64_t frees[kNumRegions] = {};
    std::uint64_t bytes[kNumRegions] = {};
  };

  std::array<Padded<Counters>, kMaxThreads> counters_{};
};

}  // namespace tmx::alloc
