// flat::Arena unit tests + a randomized differential churn test against a
// std::unordered_map-of-unique_ptr reference — handle stability under
// erase/reuse cycles is the property the NAT mapping slab and the lazy
// world's ownership arenas lean on, so it gets the adversarial treatment.
#include "flat/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace {

using cgn::flat::Arena;

TEST(Arena, EmplaceGetErase) {
  Arena<int> a;
  EXPECT_TRUE(a.empty());
  auto h0 = a.emplace(10);
  auto h1 = a.emplace(11);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[h0], 10);
  EXPECT_EQ(a[h1], 11);
  EXPECT_TRUE(a.contains(h0));
  a.erase(h0);
  EXPECT_FALSE(a.contains(h0));
  EXPECT_TRUE(a.contains(h1));
  EXPECT_EQ(a.size(), 1u);
}

TEST(Arena, ReusesMostRecentlyErasedSlot) {
  Arena<int> a;
  auto h0 = a.emplace(0);
  auto h1 = a.emplace(1);
  auto h2 = a.emplace(2);
  a.erase(h1);
  a.erase(h0);
  // LIFO free list: h0 was freed last, so it is handed out first.
  EXPECT_EQ(a.emplace(100), h0);
  EXPECT_EQ(a.emplace(101), h1);
  // Free list drained: next emplace appends a fresh slot.
  auto h3 = a.emplace(3);
  EXPECT_NE(h3, h0);
  EXPECT_NE(h3, h1);
  EXPECT_NE(h3, h2);
  EXPECT_EQ(a[h2], 2);
  EXPECT_EQ(a[h3], 3);
}

TEST(Arena, PointersStableAcrossChunkGrowth) {
  Arena<std::uint64_t> a;
  std::vector<std::pair<Arena<std::uint64_t>::Handle, std::uint64_t*>> held;
  // Past 10k slots: chunks 0..9 (16 << 9 = 8192 slots in the last one).
  for (std::uint64_t i = 0; i < 12'000; ++i) {
    auto h = a.emplace(i);
    held.emplace_back(h, &a[h]);
  }
  // Growth allocates new chunks; previously handed-out addresses must not
  // move (the NAT hot path caches Mapping* across inserts).
  for (std::uint64_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(&a[held[i].first], held[i].second);
    EXPECT_EQ(*held[i].second, i);
  }
}

// Chunk k holds 16 << k slots, so chunk boundaries fall at handles 16, 48,
// 112, ...: every handle on either side must resolve to its own object, and
// capacity must grow by exactly one (doubled) chunk at each boundary.
TEST(Arena, GeometricChunkBoundaries) {
  Arena<std::uint64_t> a;
  constexpr std::size_t kSlot = sizeof(std::uint64_t);
  EXPECT_EQ(a.capacity_bytes(), 0u);
  std::size_t expected_slots = 0;
  std::size_t next_chunk = Arena<std::uint64_t>::kFirstChunk;
  std::vector<std::uint64_t*> addr;
  for (std::uint32_t i = 0; i < 500; ++i) {
    if (i == expected_slots) {  // this emplace must open a new chunk
      expected_slots += next_chunk;
      next_chunk *= 2;
    }
    ASSERT_EQ(a.emplace(i), i) << "handles are dense, in emplace order";
    ASSERT_EQ(a.capacity_bytes(), expected_slots * kSlot) << "handle " << i;
    addr.push_back(&a[i]);
  }
  EXPECT_EQ(expected_slots, 16u + 32 + 64 + 128 + 256 + 512);
  for (std::uint32_t h : {15u, 16u, 47u, 48u, 111u, 112u}) {
    EXPECT_EQ(a[h], h);
    // Slots next to each other in one chunk are adjacent in memory; across
    // a boundary they live in different allocations.
    const bool boundary = h == 16 || h == 48 || h == 112;
    if (!boundary) {
      EXPECT_EQ(addr[h] - addr[h - 1], 1) << h;
    }
  }
  for (std::uint32_t h = 0; h < 500; ++h) ASSERT_EQ(a[h], h);
  // clear() keeps every chunk; refilling allocates nothing new.
  const std::size_t cap = a.capacity_bytes();
  a.clear();
  EXPECT_EQ(a.capacity_bytes(), cap);
  for (std::uint32_t i = 0; i < 500; ++i) ASSERT_EQ(a.emplace(i), i);
  EXPECT_EQ(a.capacity_bytes(), cap);
  EXPECT_EQ(&a[0], addr[0]);
  EXPECT_EQ(&a[499], addr[499]);
}

TEST(Arena, NonMovableTypesConstructInPlace) {
  struct Pinned {
    explicit Pinned(int v) : value(v) {}
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
    Pinned(Pinned&&) = delete;
    int value;
  };
  Arena<Pinned> a;
  auto h = a.emplace(42);
  EXPECT_EQ(a[h].value, 42);
}

TEST(Arena, DestructorsRunOnEraseAndClear) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    ~Counted() { --live; }
  };
  {
    Arena<Counted> a;
    std::vector<Arena<Counted>::Handle> hs;
    for (int i = 0; i < 20; ++i) hs.push_back(a.emplace());
    EXPECT_EQ(live, 20);
    a.erase(hs[3]);
    a.erase(hs[17]);
    EXPECT_EQ(live, 18);
    a.clear();
    EXPECT_EQ(live, 0);
    // clear() keeps chunk memory but resets handles to a fresh sequence.
    EXPECT_EQ(a.emplace(), 0u);
    EXPECT_EQ(live, 1);
  }
  EXPECT_EQ(live, 0) << "arena destructor must destroy live objects";
}

TEST(Arena, ForEachVisitsLiveSlotsInSlotOrder) {
  Arena<int> a;
  auto h0 = a.emplace(0);
  a.emplace(1);
  auto h2 = a.emplace(2);
  a.emplace(3);
  a.erase(h2);
  a.erase(h0);
  std::vector<int> seen;
  a.for_each([&](std::uint32_t, int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 3}));
}

// Randomized churn differential: every live handle must keep resolving to
// exactly the value a reference std::unordered_map holds for it, through
// thousands of interleaved emplace/erase/clear cycles that stress free-list
// reuse across chunk boundaries.
TEST(Arena, ChurnDifferentialVsStdContainers) {
  cgn::sim::Rng rng(20260809);
  Arena<std::string> a;
  std::unordered_map<std::uint32_t, std::string> ref;
  std::vector<std::uint32_t> handles;  // live handles, insertion order
  std::uint64_t next_value = 0;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.55 || handles.empty()) {
      std::string v = "v" + std::to_string(next_value++);
      auto h = a.emplace(v);
      ASSERT_FALSE(ref.count(h)) << "arena handed out a live handle";
      ref.emplace(h, std::move(v));
      handles.push_back(h);
    } else if (roll < 0.95) {
      std::size_t i = rng.index(handles.size());
      std::uint32_t h = handles[i];
      ASSERT_EQ(a[h], ref.at(h));
      a.erase(h);
      ref.erase(h);
      handles[i] = handles.back();
      handles.pop_back();
      ASSERT_FALSE(a.contains(h));
    } else {
      // Spot-check a random survivor + the aggregate invariants.
      std::uint32_t h = handles[rng.index(handles.size())];
      ASSERT_EQ(a[h], ref.at(h));
      ASSERT_EQ(a.size(), ref.size());
    }
    if (step % 4096 == 4095) {
      for (std::uint32_t h : handles) ASSERT_EQ(a[h], ref.at(h));
      a.clear();
      ref.clear();
      handles.clear();
    }
  }
  ASSERT_EQ(a.size(), ref.size());
  for (std::uint32_t h : handles) ASSERT_EQ(a[h], ref.at(h));
}

TEST(Arena, MoveTransfersOwnership) {
  Arena<std::string> a;
  auto h = a.emplace("payload");
  Arena<std::string> b = std::move(a);
  EXPECT_EQ(b[h], "payload");
  EXPECT_EQ(b.size(), 1u);
  Arena<std::string> c;
  c.emplace("doomed");
  c = std::move(b);
  EXPECT_EQ(c[h], "payload");
  EXPECT_EQ(c.size(), 1u);
}

}  // namespace
