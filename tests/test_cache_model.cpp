#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "sim/cache_model.hpp"
#include "sim/numa.hpp"

namespace tmx::sim {
namespace {

class CacheModelTest : public ::testing::Test {
 protected:
  CacheGeometry geo{};  // paper Table 2 defaults, 8 cores
  LatencyModel lat{};
  std::unique_ptr<CacheModel> make() {
    return std::make_unique<CacheModel>(geo, lat);
  }
  // A fake address space for the tests.
  static std::uintptr_t addr(std::uintptr_t line, unsigned off = 0) {
    return 0x10000000 + line * 64 + off;
  }
};

TEST_F(CacheModelTest, ColdMissThenHit) {
  auto c = make();
  EXPECT_EQ(c->access(0, addr(0), 8, false), lat.memory);
  EXPECT_EQ(c->access(0, addr(0), 8, false), lat.l1_hit);
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.accesses, 2u);
  EXPECT_EQ(s.l1_misses, 1u);
  EXPECT_EQ(s.l1_hits, 1u);
  EXPECT_EQ(s.l2_misses, 1u);
}

TEST_F(CacheModelTest, SameLineDifferentOffsetHits) {
  auto c = make();
  c->access(0, addr(5, 0), 8, false);
  EXPECT_EQ(c->access(0, addr(5, 32), 8, false), lat.l1_hit);
}

TEST_F(CacheModelTest, SharedL2ServesSecondCore) {
  auto c = make();
  c->access(0, addr(1), 8, false);  // memory -> L2 + core0 L1
  EXPECT_EQ(c->access(1, addr(1), 8, false), lat.l2_hit);
}

TEST_F(CacheModelTest, WriteInvalidatesRemoteCopies) {
  auto c = make();
  c->access(0, addr(2), 8, false);
  c->access(1, addr(2), 8, false);
  // Core 0 writes: core 1's copy must be invalidated.
  c->access(0, addr(2), 8, true);
  EXPECT_EQ(c->total_stats().invalidations, 1u);
  // Core 1 reads again: the line is gone from its L1 (L2 still has it).
  EXPECT_EQ(c->access(1, addr(2), 8, false), lat.l2_hit);
}

TEST_F(CacheModelTest, FalseSharingDetectedByOffset) {
  auto c = make();
  // Core 1 touches offset 16 of a line; core 0 writes offset 0 of the same
  // line: a false-sharing invalidation.
  c->access(1, addr(3, 16), 8, false);
  c->access(0, addr(3, 0), 8, true);
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.false_sharing, 1u);
}

TEST_F(CacheModelTest, TrueSharingIsNotFalseSharing) {
  auto c = make();
  c->access(1, addr(4, 8), 8, false);
  c->access(0, addr(4, 8), 8, true);  // same offset: genuine communication
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.false_sharing, 0u);
}

TEST_F(CacheModelTest, CapacityEvictionInL1) {
  auto c = make();
  // 32KB / 64B / 8-way = 64 sets. Touch 9 lines that map to the same set
  // (stride = 64 sets * 64 bytes): the first must be evicted.
  const std::uintptr_t stride = 64 * 64;
  for (int i = 0; i < 9; ++i) c->access(0, addr(0) + i * stride, 8, false);
  c->access(0, addr(0), 8, false);  // evicted: L1 miss (L2 hit)
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.l1_misses, 10u);
  EXPECT_EQ(s.l2_hits, 1u);
}

TEST_F(CacheModelTest, StraddlingAccessTouchesTwoLines) {
  auto c = make();
  c->access(0, addr(10, 60), 8, false);  // crosses into line 11
  const CacheStats s = c->total_stats();
  EXPECT_EQ(s.accesses, 2u);
  EXPECT_EQ(c->access(0, addr(11), 8, false), lat.l1_hit);
}

TEST_F(CacheModelTest, PerCoreStatsAreSeparate) {
  auto c = make();
  c->access(0, addr(20), 8, false);
  c->access(0, addr(21), 8, false);
  c->access(3, addr(22), 8, false);
  EXPECT_EQ(c->core_stats(0).accesses, 2u);
  EXPECT_EQ(c->core_stats(3).accesses, 1u);
  EXPECT_EQ(c->core_stats(1).accesses, 0u);
}

TEST_F(CacheModelTest, MissRatioComputation) {
  CacheStats s;
  s.accesses = 200;
  s.l1_misses = 10;
  EXPECT_DOUBLE_EQ(s.l1_miss_ratio(), 0.05);
  EXPECT_DOUBLE_EQ(CacheStats{}.l1_miss_ratio(), 0.0);
}

TEST_F(CacheModelTest, SmallerL1GeometryMissesMore) {
  CacheGeometry small = geo;
  small.l1_size = 4 * 1024;
  CacheModel big(geo, lat);
  CacheModel tiny(small, lat);
  // Working set of 16KB: fits the 32KB L1, not the 4KB one.
  for (int pass = 0; pass < 4; ++pass) {
    for (int i = 0; i < 256; ++i) {
      big.access(0, addr(i), 8, false);
      tiny.access(0, addr(i), 8, false);
    }
  }
  EXPECT_LT(big.total_stats().l1_misses, tiny.total_stats().l1_misses);
}

// ---------------------------------------------------------------------------
// Differential test: CacheModel against a plain reference that keeps no
// sharer table and finds a written line's remote copies by scanning every
// core's L1 set in ascending core order. Tiny caches force constant L1/L2
// evictions, so the sharer table sees long probe runs, frequent erases
// (backward shifts) and clusters that wrap past the end of the table.
// ---------------------------------------------------------------------------

class ReferenceCache {
 public:
  ReferenceCache(const CacheGeometry& geo, const LatencyModel& lat)
      : geo_(geo), lat_(lat) {
    l1_sets_ = geo.l1_size / (geo.line_size * geo.l1_ways);
    l2_sets_ = geo.l2_size / (geo.line_size * geo.l2_ways);
    cpn_ = geo.cores_per_node != 0 ? geo.cores_per_node
                                   : (geo.cores + geo.nodes - 1) / geo.nodes;
    l1_.assign(std::size_t{geo.cores} * l1_sets_ * geo.l1_ways, Way{});
    l2_.assign(std::size_t{geo.nodes} * l2_sets_ * geo.l2_ways, Way{});
    stats_.assign(geo.cores, {});
  }

  std::uint64_t access(unsigned core, std::uintptr_t addr, unsigned bytes,
                       bool write) {
    const std::uintptr_t first = addr & ~(geo_.line_size - 1);
    const std::uintptr_t last = (addr + bytes - 1) & ~(geo_.line_size - 1);
    std::uint64_t latency = 0;
    for (std::uintptr_t line = first; line <= last; line += geo_.line_size) {
      const unsigned off =
          line == first ? static_cast<unsigned>(addr - first) : 0;
      latency += access_line(core, line, off, write);
    }
    return latency;
  }

  const CacheStats& core_stats(unsigned core) const { return stats_[core]; }

 private:
  struct Way {
    std::uintptr_t tag = kEmpty;
    std::uint64_t lru = 0;
    unsigned off = 0;
  };
  static constexpr std::uintptr_t kEmpty = ~std::uintptr_t{0};

  unsigned node_of(unsigned core) const {
    return std::min(core / cpn_, geo_.nodes - 1);
  }
  static Way* find(Way* set, unsigned ways, std::uintptr_t tag) {
    for (unsigned w = 0; w < ways; ++w) {
      if (set[w].tag == tag) return &set[w];
    }
    return nullptr;
  }
  static Way* victim(Way* set, unsigned ways) {
    Way* v = &set[0];
    for (unsigned w = 0; w < ways; ++w) {
      if (set[w].tag == kEmpty) return &set[w];
      if (set[w].lru < v->lru) v = &set[w];
    }
    return v;
  }
  Way* l1_set(unsigned core, std::uintptr_t line) {
    const std::size_t set = (line / geo_.line_size) & (l1_sets_ - 1);
    return &l1_[(core * l1_sets_ + set) * geo_.l1_ways];
  }

  std::uint64_t access_line(unsigned core, std::uintptr_t line, unsigned off,
                            bool write) {
    ++tick_;
    CacheStats& st = stats_[core];
    ++st.accesses;
    std::uint64_t latency = 0;
    const unsigned node = node_of(core);
    Way* set = l1_set(core, line);
    Way* way = find(set, geo_.l1_ways, line);
    if (way != nullptr) {
      ++st.l1_hits;
      latency = lat_.l1_hit;
    } else {
      ++st.l1_misses;
      Way* set2 = &l2_[(node * l2_sets_ + (line / geo_.line_size) % l2_sets_) *
                       geo_.l2_ways];
      if (Way* w2 = find(set2, geo_.l2_ways, line); w2 != nullptr) {
        ++st.l2_hits;
        latency = lat_.l2_hit;
        w2->lru = tick_;
      } else {
        ++st.l2_misses;
        const int home = numa_home_node(line);
        if ((home >= 0 ? static_cast<unsigned>(home) : 0u) == node) {
          ++st.numa_local;
          latency = lat_.memory;
        } else {
          ++st.numa_remote;
          latency = lat_.remote_memory;
        }
        Way* v2 = victim(set2, geo_.l2_ways);
        *v2 = Way{line, tick_, 0};
      }
      way = victim(set, geo_.l1_ways);
      way->tag = line;
    }
    way->lru = tick_;
    way->off = off;
    if (write) {
      for (unsigned c = 0; c < geo_.cores; ++c) {
        if (c == core) continue;
        Way* rw = find(l1_set(c, line), geo_.l1_ways, line);
        if (rw == nullptr) continue;
        rw->tag = kEmpty;
        ++st.invalidations;
        if (rw->off != off) ++st.false_sharing;
        latency += node_of(c) == node ? lat_.coherence : lat_.remote_coherence;
      }
    }
    return latency;
  }

  CacheGeometry geo_;
  LatencyModel lat_;
  std::size_t l1_sets_;
  std::size_t l2_sets_;
  unsigned cpn_;
  std::vector<Way> l1_;
  std::vector<Way> l2_;
  std::vector<CacheStats> stats_;
  std::uint64_t tick_ = 0;
};

void expect_same_stats(const CacheStats& a, const CacheStats& b,
                       unsigned core) {
  EXPECT_EQ(a.accesses, b.accesses) << "core " << core;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << "core " << core;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << "core " << core;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << "core " << core;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << "core " << core;
  EXPECT_EQ(a.invalidations, b.invalidations) << "core " << core;
  EXPECT_EQ(a.false_sharing, b.false_sharing) << "core " << core;
  EXPECT_EQ(a.numa_local, b.numa_local) << "core " << core;
  EXPECT_EQ(a.numa_remote, b.numa_remote) << "core " << core;
}

// Seeded random reads and writes by random cores: three quarters go to a
// hot pool a few lines per core wide (heavy sharing, invalidation fan-out),
// the rest to a cold pool four times the total L1 capacity (sharer-table
// occupancy near its bound, constant eviction and erase traffic). Some
// accesses straddle two lines.
void run_differential(unsigned cores, unsigned nodes, std::uint64_t seed,
                      std::size_t n) {
  CacheGeometry geo;
  geo.cores = cores;
  geo.nodes = nodes;
  geo.l1_size = 64 * 2 * 2;  // 2 sets x 2 ways per core
  geo.l1_ways = 2;
  geo.l2_size = 64 * 3 * 4;  // 3 sets x 4 ways per node (not a power of 2)
  geo.l2_ways = 4;
  const LatencyModel lat{};
  CacheModel model(geo, lat);
  ReferenceCache ref(geo, lat);
  const std::uintptr_t kHot = 0x10000000;
  const std::uintptr_t kCold = 0x20000000;
  const std::uint64_t hot_lines = 2 * cores;
  const std::uint64_t cold_lines = 4 * std::uint64_t{cores} * 4;
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const auto core = static_cast<unsigned>(rng() % cores);
    const bool hot = rng() % 4 != 0;
    const std::uintptr_t line = hot ? kHot + (rng() % hot_lines) * 64
                                    : kCold + (rng() % cold_lines) * 64;
    const auto off = static_cast<unsigned>(rng() % 64);
    const unsigned bytes = rng() % 8 == 0 ? 16 : 8;
    const bool write = rng() % 10 < 3;
    ASSERT_EQ(model.access(core, line + off, bytes, write),
              ref.access(core, line + off, bytes, write))
        << "access " << i;
  }
  CacheStats total;
  for (unsigned c = 0; c < cores; ++c) {
    expect_same_stats(model.core_stats(c), ref.core_stats(c), c);
    total.add(ref.core_stats(c));
  }
  expect_same_stats(model.total_stats(), total, cores);
  EXPECT_GT(total.invalidations, n / 20);
  EXPECT_GT(total.l2_misses, n / 20);
}

TEST(CacheModelDifferential, MatchesSetScanReferenceAt8Cores) {
  run_differential(8, 1, 11, 200'000);
}

TEST(CacheModelDifferential, MatchesSetScanReferenceAt256Cores) {
  // Four nodes; the cold pool's upper half is homed on node 3, so remote
  // memory and remote coherence latencies are both exercised.
  numa_configure(Topology{4, 64}, 256);
  const auto base = reinterpret_cast<const void*>(std::uintptr_t{0x20000000} +
                                                  2 * 256 * 4 * 64);
  numa_register_range(base, 2 * 256 * 4 * 64, 3);
  run_differential(256, 4, 12, 200'000);
  numa_unregister_range(base);
  numa_configure(Topology{}, 8);
}

}  // namespace
}  // namespace tmx::sim
