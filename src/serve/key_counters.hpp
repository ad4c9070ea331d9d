// Per-key decision counters: how many decisions each user key has had, the
// index of its next exploration draw (Explorer::decide seeds that draw with
// derive_seed_at(seed ^ key_hash, count)).
//
// This table grows with the served key population. It is a linear-probing
// table of 16-byte (FNV key hash, count) slots, split into 64 segments by
// the top bits of the mixed hash that each grow by 9/8 once 7/8 full: about
// 19 bytes per key against about 46 for a node-based map, and a growth step
// copies one segment, never the whole table. Slot arrays are mapped from
// the OS and unmapped when outgrown; heap-allocated, the outgrown arrays
// stayed resident among the server's small allocations: perfbench's serve
// workload (~400k distinct keys) peaked at 44.0 MiB against 40.8 MiB
// with mapped arrays (median of 4 runs each, 4-vCPU VM).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ncb::serve {

class KeyCounters {
 public:
  /// Returns how many times `key_hash` was counted before, and counts it
  /// once more.
  std::uint64_t next(std::uint64_t key_hash);

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  ///< 0 marks an empty slot.
  };

  /// Anonymous page mappings: bytes rounded up to whole pages, zeroed.
  /// map_pages throws std::bad_alloc when the OS refuses.
  static void* map_pages(std::size_t bytes);
  static void unmap_pages(void* pages, std::size_t bytes) noexcept;

  template <class T>
  struct PageAllocator {
    using value_type = T;
    PageAllocator() = default;
    template <class U>
    PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(map_pages(n * sizeof(T)));
    }
    void deallocate(T* p, std::size_t n) noexcept {
      unmap_pages(p, n * sizeof(T));
    }
    bool operator==(const PageAllocator& /*other*/) const noexcept {
      return true;
    }
    bool operator!=(const PageAllocator& /*other*/) const noexcept {
      return false;
    }
  };
  using Slots = std::vector<Slot, PageAllocator<Slot>>;

  struct Segment {
    Slots slots;
    std::size_t used = 0;
  };

  /// Linear probe from the mixed hash: `key`'s slot, or the empty slot it
  /// would take.
  static std::size_t probe(const Slots& slots, std::uint64_t key,
                           std::uint64_t mixed) noexcept;
  static void grow(Segment& segment);

  std::array<Segment, 64> segments_;
};

}  // namespace ncb::serve
