#include "serve/key_counters.hpp"

#include <sys/mman.h>

#include <new>

namespace ncb::serve {
namespace {

/// SplitMix64's finalizer: every hash bit reaches the segment and slot bits.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// One 4 KiB page of slots: a mapping is never smaller.
constexpr std::size_t kInitialSlots = 256;

}  // namespace

void* KeyCounters::map_pages(std::size_t bytes) {
  void* pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return pages;
}

void KeyCounters::unmap_pages(void* pages, std::size_t bytes) noexcept {
  ::munmap(pages, bytes);
}

std::size_t KeyCounters::probe(const Slots& slots,
                               std::uint64_t key,
                               std::uint64_t mixed) noexcept {
  // Home slot: bits 24..55 of the mixed hash (the top 6 chose the
  // segment) scaled onto [0, size) by a multiply-shift.
  const std::size_t size = slots.size();
  std::size_t i = static_cast<std::size_t>(
      ((mixed >> 24) & 0xffffffffULL) * size >> 32);
  while (slots[i].count != 0 && slots[i].key != key) {
    if (++i == size) i = 0;
  }
  return i;
}

std::uint64_t KeyCounters::next(std::uint64_t key_hash) {
  const std::uint64_t mixed = mix(key_hash);
  Segment& segment = segments_[mixed >> 58];
  // Keep the load at or below 7/8 should this key be new.
  if (8 * (segment.used + 1) > 7 * segment.slots.size()) grow(segment);
  Slot& slot = segment.slots[probe(segment.slots, key_hash, mixed)];
  if (slot.count == 0) {
    slot.key = key_hash;
    ++segment.used;
  }
  return slot.count++;
}

void KeyCounters::grow(Segment& segment) {
  const std::size_t size = segment.slots.size();
  Slots slots(size == 0 ? kInitialSlots : size + size / 8);
  for (const Slot& old : segment.slots) {
    if (old.count != 0) slots[probe(slots, old.key, mix(old.key))] = old;
  }
  segment.slots.swap(slots);
}

}  // namespace ncb::serve
