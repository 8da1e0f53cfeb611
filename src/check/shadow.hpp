// The race prong's per-word shadow and the lifetime prong's freed-word
// filter, kept in one flat page-keyed table. Internal to src/check.
//
// Layout: a 16 MiB region (found through a small open-addressed index)
// holds pointers to its 4 KiB ShadowPages; a page holds one WordSlot per
// 8-byte word plus a 512-bit freed-word bitmap. A slot points at a run of
// AccessRecs drawn from a per-capacity pool, so a transactional access is
// a cached page hit plus a scan of that word's few records — no tree walk
// and, once the pools are warm, no heap allocation.
//
// Zero perturbation: every host allocation here is a fixed chunk below
// glibc's 128 KiB mmap threshold (nothing grows as one doubling array of
// records or pages), so the checker never adds a host mapping between the
// allocator models' reservations, and nothing is allocated until the first
// page is touched.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace tmx::check::detail {

// One recorded access to a shadow word. `clk` is the accessor's own clock
// component at access time — the epoch (tid, clk) — so the happens-before
// test against a later accessor u is just clk <= C_u[tid]. `mask` has bit i
// set when byte i of the word was touched: sub-word fields written by
// different threads (e.g. adjacent ints across a chunk boundary) never
// alias into a false race.
struct AccessRec {
  std::uint64_t clk;
  std::uint64_t cycle;    // virtual time, for the report
  const char* site;       // attribution label (file:line or scope)
  std::uint8_t tid;
  std::uint8_t mask;
  bool is_write;
  bool is_tx;             // transactional accesses never race each other
};

// Fixed-size blocks carved out of host chunks of at most 64 KiB (one block
// per chunk when a block is larger), recycled through an intrusive free
// list. Blocks are uninitialized.
class BlockPool {
 public:
  explicit BlockPool(std::size_t block_bytes = 0);
  void* get();
  void put(void* p);

 private:
  struct Free {
    Free* next;
  };
  std::size_t block_bytes_;
  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::byte* bump_ = nullptr;
  std::size_t left_ = 0;  // blocks still unused in the newest chunk
  Free* free_ = nullptr;
};

// Records of one word: `n` live records in a run of `cap`. A word has at
// most one write record per byte (a write supersedes every record on its
// bytes) plus one read record per (thread, byte), so `n` never exceeds
// kMaxRecs.
struct WordSlot {
  AccessRec* recs = nullptr;
  std::uint16_t n = 0;
  std::uint16_t cap = 0;
};

inline constexpr unsigned kPageShift = 12;
inline constexpr std::size_t kWordsPerPage = std::size_t{1}
                                             << (kPageShift - 3);

struct ShadowPage {
  // Bit w set: word w may lie in a tombstoned block. Set on free, cleared
  // on recycle for words wholly inside the recycled range, so a clear bit
  // proves "not freed" and a set bit is confirmed against the ordered
  // tombstone map.
  std::uint64_t freed[kWordsPerPage / 64];
  std::uint32_t used;  // slots holding a run
  WordSlot slot[kWordsPerPage];
};

class ShadowMap {
 public:
  // The record bound: 8 write records plus 256 threads x 8 read records.
  static constexpr std::size_t kMaxRecs = 8 + 256 * 8;

  ShadowMap();
  ShadowMap(const ShadowMap&) = delete;
  ShadowMap& operator=(const ShadowMap&) = delete;

  // The page holding `addr`, or nullptr when nothing was ever recorded or
  // freed on it.
  ShadowPage* find(std::uintptr_t addr) const {
    const std::uintptr_t pn = addr >> kPageShift;
    const CacheEntry& e = cache_[pn & (kCacheSize - 1)];
    if (e.pn == pn) return e.page;
    return find_slow(pn);
  }
  ShadowPage& page(std::uintptr_t addr) {
    const std::uintptr_t pn = addr >> kPageShift;
    const CacheEntry& e = cache_[pn & (kCacheSize - 1)];
    if (e.pn == pn && e.page != nullptr) return *e.page;
    return page_slow(pn);
  }
  static std::size_t word_index(std::uintptr_t addr) {
    return (addr >> 3) & (kWordsPerPage - 1);
  }

  // Moves the full (or still empty) slot `s` to the next larger run.
  void grow(ShadowPage& pg, WordSlot& s);

  // Drops the records of every word [begin, end) overlaps.
  void erase_records(std::uintptr_t begin, std::uintptr_t end);

  // Freed-word filter maintenance over [begin, end): mark sets every word
  // the range overlaps; unmark clears only words wholly inside it.
  void mark_freed(std::uintptr_t begin, std::uintptr_t end);
  void unmark_freed(std::uintptr_t begin, std::uintptr_t end);
  bool maybe_freed(std::uintptr_t addr) const {
    const ShadowPage* pg = find(addr);
    if (pg == nullptr) return false;
    const std::size_t w = word_index(addr);
    return ((pg->freed[w >> 6] >> (w & 63)) & 1) != 0;
  }

 private:
  static constexpr unsigned kRegionShift = 24;
  static constexpr std::size_t kPagesPerRegion = std::size_t{1}
                                                 << (kRegionShift - kPageShift);
  static constexpr std::size_t kNumClasses = 12;  // runs of 2..2048, kMaxRecs

  struct Region {
    ShadowPage* pages[kPagesPerRegion];
  };
  static constexpr std::size_t kCacheSize = 64;
  struct CacheEntry {
    std::uintptr_t pn = ~std::uintptr_t{0};
    ShadowPage* page = nullptr;
  };
  struct IndexEntry {
    std::uintptr_t key;
    Region* region;  // nullptr: empty slot
  };

  ShadowPage* find_slow(std::uintptr_t pn) const;
  ShadowPage& page_slow(std::uintptr_t pn);
  Region* region(std::uintptr_t key) const;
  Region& region_or_create(std::uintptr_t key);
  void release(ShadowPage& pg, WordSlot& s);
  static std::size_t class_of(std::size_t cap);
  static std::size_t class_cap(std::size_t c);

  // Direct-mapped cache of page lookups by page number, misses (nullptr)
  // included: each thread's accesses cluster on a few pages, and the
  // threads interleave.
  mutable std::array<CacheEntry, kCacheSize> cache_{};
  std::vector<IndexEntry> index_;  // power-of-two, at most half full
  std::vector<std::unique_ptr<Region>> region_store_;
  BlockPool page_pool_;
  std::array<BlockPool, kNumClasses> run_pools_;  // one per run capacity
};

}  // namespace tmx::check::detail
