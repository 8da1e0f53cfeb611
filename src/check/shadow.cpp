#include "check/shadow.hpp"

#include <algorithm>
#include <cstring>

#include "util/macros.hpp"

namespace tmx::check::detail {

namespace {

// Host chunk size: well below glibc's 128 KiB mmap threshold.
constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

std::size_t hash_key(std::uintptr_t key) {
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> 32);
}

// Sets (on) or clears bits [from, to) of a page's freed-word bitmap.
void set_bits(std::uint64_t* bm, std::size_t from, std::size_t to, bool on) {
  while (from < to) {
    const std::size_t w = from >> 6;
    const std::size_t lo = from & 63;
    const std::size_t hi = std::min<std::size_t>(64, lo + (to - from));
    const std::uint64_t bits =
        (hi == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << hi) - 1) &
        ~((std::uint64_t{1} << lo) - 1);
    if (on) {
      bm[w] |= bits;
    } else {
      bm[w] &= ~bits;
    }
    from += hi - lo;
  }
}

// First address of the page after the one holding `a`.
std::uintptr_t next_page(std::uintptr_t a) {
  return (a | ((std::uintptr_t{1} << kPageShift) - 1)) + 1;
}

}  // namespace

BlockPool::BlockPool(std::size_t block_bytes)
    : block_bytes_(round_up(block_bytes, 16)),
      chunk_bytes_(std::max(kChunkBytes, round_up(block_bytes, 16))) {}

void* BlockPool::get() {
  if (free_ != nullptr) {
    Free* f = free_;
    free_ = f->next;
    return f;
  }
  if (left_ == 0) {
    chunks_.push_back(
        std::make_unique_for_overwrite<std::byte[]>(chunk_bytes_));
    bump_ = chunks_.back().get();
    left_ = chunk_bytes_ / block_bytes_;
  }
  void* p = bump_;
  bump_ += block_bytes_;
  --left_;
  return p;
}

void BlockPool::put(void* p) {
  auto* f = static_cast<Free*>(p);
  f->next = free_;
  free_ = f;
}

std::size_t ShadowMap::class_cap(std::size_t c) {
  return c + 1 < kNumClasses ? std::size_t{2} << c : kMaxRecs;
}

std::size_t ShadowMap::class_of(std::size_t cap) {
  return cap == kMaxRecs ? kNumClasses - 1
                         : static_cast<std::size_t>(__builtin_ctzll(cap)) - 1;
}

ShadowMap::ShadowMap() : page_pool_(sizeof(ShadowPage)) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    run_pools_[c] = BlockPool(class_cap(c) * sizeof(AccessRec));
  }
}

ShadowMap::Region* ShadowMap::region(std::uintptr_t key) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = hash_key(key) & mask; index_[i].region != nullptr;
       i = (i + 1) & mask) {
    if (index_[i].key == key) return index_[i].region;
  }
  return nullptr;
}

ShadowMap::Region& ShadowMap::region_or_create(std::uintptr_t key) {
  if (Region* r = region(key)) return *r;
  if (2 * (region_store_.size() + 1) > index_.size()) {
    // Rehash into twice the slots. The index holds one entry per 16 MiB
    // region touched, so it stays far below the mmap threshold.
    std::vector<IndexEntry> old = std::move(index_);
    index_.assign(old.empty() ? 16 : 2 * old.size(), IndexEntry{0, nullptr});
    const std::size_t mask = index_.size() - 1;
    for (const IndexEntry& e : old) {
      if (e.region == nullptr) continue;
      std::size_t i = hash_key(e.key) & mask;
      while (index_[i].region != nullptr) i = (i + 1) & mask;
      index_[i] = e;
    }
  }
  region_store_.push_back(std::make_unique<Region>());
  Region* r = region_store_.back().get();
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash_key(key) & mask;
  while (index_[i].region != nullptr) i = (i + 1) & mask;
  index_[i] = IndexEntry{key, r};
  return *r;
}

ShadowPage* ShadowMap::find_slow(std::uintptr_t pn) const {
  const Region* r = region(pn >> (kRegionShift - kPageShift));
  ShadowPage* pg =
      r != nullptr ? r->pages[pn & (kPagesPerRegion - 1)] : nullptr;
  cache_[pn & (kCacheSize - 1)] = CacheEntry{pn, pg};
  return pg;
}

ShadowPage& ShadowMap::page_slow(std::uintptr_t pn) {
  Region& r = region_or_create(pn >> (kRegionShift - kPageShift));
  ShadowPage*& pg = r.pages[pn & (kPagesPerRegion - 1)];
  if (pg == nullptr) {
    pg = static_cast<ShadowPage*>(page_pool_.get());
    std::memset(static_cast<void*>(pg), 0, sizeof(ShadowPage));
  }
  cache_[pn & (kCacheSize - 1)] = CacheEntry{pn, pg};
  return *pg;
}

void ShadowMap::grow(ShadowPage& pg, WordSlot& s) {
  if (s.recs == nullptr) ++pg.used;
  const std::size_t c = s.recs == nullptr ? 0 : class_of(s.cap) + 1;
  TMX_ASSERT(c < kNumClasses);
  auto* run = static_cast<AccessRec*>(run_pools_[c].get());
  if (s.n != 0) std::memcpy(run, s.recs, s.n * sizeof(AccessRec));
  if (s.recs != nullptr) run_pools_[class_of(s.cap)].put(s.recs);
  s.recs = run;
  s.cap = static_cast<std::uint16_t>(class_cap(c));
}

void ShadowMap::release(ShadowPage& pg, WordSlot& s) {
  if (s.recs == nullptr) return;
  run_pools_[class_of(s.cap)].put(s.recs);
  s = WordSlot{};
  --pg.used;
}

void ShadowMap::erase_records(std::uintptr_t begin, std::uintptr_t end) {
  for (std::uintptr_t w = round_down(begin, 8); w < end; w = next_page(w)) {
    const std::uintptr_t stop = std::min(next_page(w), end);
    ShadowPage* pg = find(w);
    if (pg == nullptr || pg->used == 0) continue;
    for (std::uintptr_t x = w; x < stop; x += 8) {
      release(*pg, pg->slot[word_index(x)]);
    }
  }
}

void ShadowMap::mark_freed(std::uintptr_t begin, std::uintptr_t end) {
  // Every word the range overlaps, the partial first and last ones too.
  for (std::uintptr_t w = round_down(begin, 8); w < end; w = next_page(w)) {
    const std::uintptr_t stop = std::min(next_page(w), end);
    set_bits(page(w).freed, word_index(w), word_index(stop - 1) + 1, true);
  }
}

void ShadowMap::unmark_freed(std::uintptr_t begin, std::uintptr_t end) {
  // Only words wholly inside [begin, end): a word shared with a block
  // outside the range may still be tombstoned.
  const std::uintptr_t last = round_down(end, 8);
  for (std::uintptr_t w = round_up(begin, 8); w < last; w = next_page(w)) {
    const std::uintptr_t stop = std::min(next_page(w), last);
    if (ShadowPage* pg = find(w)) {
      set_bits(pg->freed, word_index(w), word_index(stop - 8) + 1, false);
    }
  }
}

}  // namespace tmx::check::detail
