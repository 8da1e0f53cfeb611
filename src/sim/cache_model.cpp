#include "sim/cache_model.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/numa.hpp"

namespace tmx::sim {
namespace {
constexpr std::size_t kNoSlot = ~std::size_t{0};
}  // namespace

CacheModel::CacheModel(const CacheGeometry& geo, const LatencyModel& lat)
    : geo_(geo), lat_(lat) {
  TMX_ASSERT(is_pow2(geo.line_size));
  TMX_ASSERT(geo.l1_ways <= 255);  // MRU ways are stored in a byte
  TMX_ASSERT(geo.cores <= kMaxSharerCores);  // sharer masks are 4x64 bits
  if (geo_.nodes == 0) geo_.nodes = 1;
  cores_per_node_ =
      geo_.cores_per_node != 0
          ? geo_.cores_per_node
          : std::max(1u, (geo_.cores + geo_.nodes - 1) / geo_.nodes);
  l1_sets_ = static_cast<unsigned>(geo.l1_size / (geo.line_size * geo.l1_ways));
  l2_sets_ = static_cast<unsigned>(geo.l2_size / (geo.line_size * geo.l2_ways));
  TMX_ASSERT(l1_sets_ > 0 && l2_sets_ > 0);
  TMX_ASSERT(is_pow2(l1_sets_));
  line_shift_ = static_cast<std::uint8_t>(log2_floor(geo.line_size));
  // L2 sets need not be a power of two (6MB/24-way gives 4096, which is):
  // other counts index with modulo to stay general.
  l2_pow2_ = is_pow2(l2_sets_);
  const std::size_t l1_lines =
      static_cast<std::size_t>(geo.cores) * l1_sets_ * geo.l1_ways;
  // One private L2 bank per node; the single-node machine is the paper's
  // original shared L2.
  const std::size_t l2_lines = static_cast<std::size_t>(geo_.nodes) *
                               l2_sets_ * geo.l2_ways;
  l1_tags_.assign(l1_lines, kNoTag);
  l1_lru_.assign(l1_lines, 0);
  l1_off_.assign(l1_lines, 0);
  l1_mru_.assign(static_cast<std::size_t>(geo.cores) * l1_sets_, 0);
  l2_tags_.assign(l2_lines, kNoTag);
  l2_lru_.assign(l2_lines, 0);
  stats_.assign(geo.cores, {});
  const unsigned sharer_log2 = log2_ceil(2 * l1_lines);
  sharers_.assign(std::size_t{1} << sharer_log2, SharerEntry{});
  sharer_mask_ = sharers_.size() - 1;
  sharer_shift_ = 64 - sharer_log2;
}

CacheStats CacheModel::total_stats() const {
  CacheStats t;
  for (const auto& s : stats_) t.add(s);
  return t;
}

void CacheModel::clear_sharer(std::uintptr_t line_addr, unsigned core) {
  const std::size_t i = sharer_slot(line_addr);
  SharerMask& mask = sharers_[i].mask;
  mask.w[core >> 6] &= ~(std::uint64_t{1} << (core & 63));
  if (!mask.any()) erase_sharer_slot(i);
}

void CacheModel::erase_sharer_slot(std::size_t i) {
  // Backward shift: walk the probe run after the hole and pull back every
  // entry whose home does not lie cyclically in (hole, its slot], so no
  // lookup ever stops early at the hole.
  for (std::size_t j = (i + 1) & sharer_mask_; sharers_[j].tag != kNoTag;
       j = (j + 1) & sharer_mask_) {
    const std::size_t home = sharer_home(sharers_[j].tag);
    if (((j - home) & sharer_mask_) >= ((j - i) & sharer_mask_)) {
      sharers_[i] = sharers_[j];
      i = j;
    }
  }
  sharers_[i] = SharerEntry{};
}

int CacheModel::find_way(const std::uintptr_t* tags, unsigned ways,
                         std::uintptr_t line_addr) {
  for (unsigned w = 0; w < ways; ++w) {
    if (tags[w] == line_addr) return static_cast<int>(w);
  }
  return -1;
}

int CacheModel::victim_way(const std::uintptr_t* tags,
                           const std::uint64_t* lru, unsigned ways) {
  unsigned v = 0;
  for (unsigned w = 0; w < ways; ++w) {
    if (tags[w] == kNoTag) return static_cast<int>(w);
    if (lru[w] < lru[v]) v = w;
  }
  return static_cast<int>(v);
}

std::uint64_t CacheModel::access(unsigned core, std::uintptr_t addr,
                                 unsigned bytes, bool write) {
  TMX_ASSERT(core < geo_.cores);
  if (bytes == 0) bytes = 1;
  const std::uintptr_t first = round_down(addr, geo_.line_size);
  const std::uintptr_t last = round_down(addr + bytes - 1, geo_.line_size);
  std::uint64_t latency = 0;
  for (std::uintptr_t line = first; line <= last; line += geo_.line_size) {
    const unsigned off =
        line == first ? static_cast<unsigned>(addr - first) : 0;
    latency += access_line(core, line, off, write);
  }
  return latency;
}

std::uint64_t CacheModel::access_line(unsigned core, std::uintptr_t line_addr,
                                      unsigned offset, bool write) {
  ++tick_;
  CacheStats& st = stats_[core];
  ++st.accesses;
  std::uint64_t latency = 0;
  const unsigned node = node_of(core);

  const std::size_t set = l1_set_of(line_addr);
  const std::size_t base = l1_base(core, set);
  const std::size_t mru_slot = static_cast<std::size_t>(core) * l1_sets_ + set;
  std::uintptr_t* tags = &l1_tags_[base];
  std::size_t slot = kNoSlot;  // the line's sharer-table slot, once looked up
  // MRU probe: STM barrier streams revisit the same line in tight clusters
  // (lock word then data word, retry loops), so checking the last way hit
  // usually answers without the associative scan. A stale MRU way simply
  // fails the tag compare and falls through — never a wrong answer.
  int way = tags[l1_mru_[mru_slot]] == line_addr
                ? static_cast<int>(l1_mru_[mru_slot])
                : find_way(tags, geo_.l1_ways, line_addr);
  if (way >= 0) {
    ++st.l1_hits;
    latency = lat_.l1_hit;
  } else {
    ++st.l1_misses;
    // Consult this node's L2 bank (the shared L2 of the flat machine).
    const std::size_t set2 = l2_set_of(line_addr);
    const std::size_t base2 =
        (static_cast<std::size_t>(node) * l2_sets_ + set2) * geo_.l2_ways;
    const int w2 = find_way(&l2_tags_[base2], geo_.l2_ways, line_addr);
    if (w2 >= 0) {
      ++st.l2_hits;
      latency = lat_.l2_hit;
      l2_lru_[base2 + w2] = tick_;
    } else {
      ++st.l2_misses;
      // Home-node distance decides the miss penalty. Memory with no
      // registered home (host globals, the ORT, fiber stacks) behaves as
      // first-touched by the process on node 0, like a kernel would place
      // a single-threaded init's pages.
      if (geo_.nodes > 1) {
        const int home = numa_home_node(line_addr);
        const unsigned home_node = home >= 0 ? static_cast<unsigned>(home) : 0;
        if (home_node == node) {
          ++st.numa_local;
          latency = lat_.memory;
        } else {
          ++st.numa_remote;
          latency = lat_.remote_memory;
        }
      } else {
        ++st.numa_local;
        latency = lat_.memory;
      }
      const int v2 = victim_way(&l2_tags_[base2], &l2_lru_[base2],
                                geo_.l2_ways);
      l2_tags_[base2 + v2] = line_addr;
      l2_lru_[base2 + v2] = tick_;
    }
    TMX_OBS_EVENT(obs::EventKind::kCacheMiss, line_addr, latency,
                  /*miss level=*/w2 >= 0 ? 1 : 2);
    // Fill L1, updating the sharer table: the victim line (if any) leaves
    // this core, the new line enters it.
    way = victim_way(tags, &l1_lru_[base], geo_.l1_ways);
    if (tags[way] != kNoTag) clear_sharer(tags[way], core);
    tags[way] = line_addr;
    slot = sharer_slot(line_addr);
    sharers_[slot].tag = line_addr;
    sharers_[slot].mask.w[core >> 6] |= std::uint64_t{1} << (core & 63);
  }
  l1_mru_[mru_slot] = static_cast<std::uint8_t>(way);
  l1_lru_[base + way] = tick_;
  l1_off_[base + way] = static_cast<std::uint16_t>(offset);

  if (write) {
    // Write-invalidate coherence: purge the line from every other sharing
    // core's L1. The sharer mask lists exactly the cores whose L1 holds
    // the line (ascending id, matching the original full scan's order),
    // so the cost is O(sharers) instead of O(cores).
    if (slot == kNoSlot) slot = sharer_slot(line_addr);
    SharerMask& mask = sharers_[slot].mask;
    TMX_ASSERT(sharers_[slot].tag == line_addr);
    for (unsigned wd = 0; wd < 4; ++wd) {
      std::uint64_t bits = mask.w[wd];
      while (bits != 0) {
        const unsigned c =
            (wd << 6) + static_cast<unsigned>(__builtin_ctzll(bits));
        bits &= bits - 1;
        if (c == core) continue;
        const std::size_t rbase = l1_base(c, set);
        const int rw = find_way(&l1_tags_[rbase], geo_.l1_ways, line_addr);
        TMX_ASSERT(rw >= 0);  // mask invariant: bit set => tag present
        l1_tags_[rbase + rw] = kNoTag;
        mask.w[c >> 6] &= ~(std::uint64_t{1} << (c & 63));
        ++st.invalidations;
        const bool false_shared = l1_off_[rbase + rw] != offset;
        if (false_shared) ++st.false_sharing;
        latency += node_of(c) == node ? lat_.coherence : lat_.remote_coherence;
        TMX_OBS_EVENT(obs::EventKind::kCacheInval, line_addr, c,
                      /*false sharing=*/false_shared ? 1 : 0);
      }
    }
  }
  return latency;
}

void publish_metrics(const CacheStats& stats, obs::MetricsRegistry& reg,
                     const std::string& prefix) {
  reg.set_counter(prefix + "accesses", stats.accesses);
  reg.set_counter(prefix + "l1_hits", stats.l1_hits);
  reg.set_counter(prefix + "l1_misses", stats.l1_misses);
  reg.set_counter(prefix + "l2_hits", stats.l2_hits);
  reg.set_counter(prefix + "l2_misses", stats.l2_misses);
  reg.set_counter(prefix + "invalidations", stats.invalidations);
  reg.set_counter(prefix + "false_sharing", stats.false_sharing);
  reg.set_counter(prefix + "numa_local", stats.numa_local);
  reg.set_counter(prefix + "numa_remote", stats.numa_remote);
  reg.set_gauge(prefix + "l1_miss_ratio", stats.l1_miss_ratio());
}

}  // namespace tmx::sim
