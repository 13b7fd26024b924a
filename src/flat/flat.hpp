// cgn::flat — open-addressing hash containers for the packet hot path.
//
// The delivery engine and the NAT translation tables sit on every simulated
// packet, so their containers must not pay std::unordered_map's node
// allocation, pointer chasing and per-insert malloc. FlatMap/FlatSet store
// elements inline in one power-of-two array, probe linearly, and erase with
// backward shifting (no tombstones, so probe chains never degrade). Hashes
// are finalized with a 64-bit avalanche mix so the weak identity hashes of
// std::hash<integral> (and the repo's FNV-1a-style key hashes) spread over
// the low bits that a power-of-two mask keeps.
//
// Determinism note (see DESIGN.md §10): iteration order differs from the
// std containers these replace, so callers must never let iteration order
// escape into results — the repo's packet-path users only do point lookups,
// whole-table clears, or order-insensitive folds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace cgn::flat {

// --- hashing ---------------------------------------------------------------

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over a byte range — the same digest the repo already uses for
/// fault-plan hashes and session fingerprints.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Murmur3-style 64-bit finalizer: every input bit avalanches into every
/// output bit, so power-of-two masking sees a uniform low word.
inline std::uint64_t avalanche(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Default hasher: FNV-1a over the value bytes for integers/enums (stable
/// and byte-order independent within a run), std::hash for everything else.
/// FlatMap/FlatSet avalanche the result, so even an identity std::hash is
/// safe under linear probing.
template <class K>
struct DefaultHash {
  std::size_t operator()(const K& k) const noexcept {
    if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
      auto v = static_cast<std::uint64_t>(k);
      return static_cast<std::size_t>(fnv1a_bytes(&v, sizeof v));
    } else {
      return std::hash<K>{}(k);
    }
  }
};

namespace detail {

/// Shared open-addressing core. Entry is the stored element (std::pair<K,V>
/// for maps, K for sets); KeyOf projects the key out of an entry.
template <class Entry, class K, class KeyOf, class Hasher>
class FlatTable {
 public:
  class const_iterator;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = Entry*;
    using reference = Entry&;

    iterator() = default;
    reference operator*() const noexcept { return *t_->entry(i_); }
    pointer operator->() const noexcept { return t_->entry(i_); }
    iterator& operator++() noexcept {
      i_ = t_->next_full(i_ + 1);
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const iterator&) const noexcept = default;

   private:
    friend class FlatTable;
    friend class const_iterator;
    iterator(FlatTable* t, std::size_t i) noexcept : t_(t), i_(i) {}
    FlatTable* t_ = nullptr;
    std::size_t i_ = 0;
  };

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    using pointer = const Entry*;
    using reference = const Entry&;

    const_iterator() = default;
    const_iterator(iterator it) noexcept : t_(it.t_), i_(it.i_) {}
    reference operator*() const noexcept { return *t_->entry(i_); }
    pointer operator->() const noexcept { return t_->entry(i_); }
    const_iterator& operator++() noexcept {
      i_ = t_->next_full(i_ + 1);
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator&) const noexcept = default;

   private:
    friend class FlatTable;
    const_iterator(const FlatTable* t, std::size_t i) noexcept
        : t_(t), i_(i) {}
    const FlatTable* t_ = nullptr;
    std::size_t i_ = 0;
  };

  FlatTable() = default;
  FlatTable(const FlatTable& other) { copy_from(other); }
  FlatTable(FlatTable&& other) noexcept { swap(other); }
  FlatTable& operator=(const FlatTable& other) {
    if (this != &other) {
      destroy_all();
      release();
      copy_from(other);
    }
    return *this;
  }
  FlatTable& operator=(FlatTable&& other) noexcept {
    if (this != &other) {
      destroy_all();
      release();
      swap(other);
    }
    return *this;
  }
  ~FlatTable() {
    destroy_all();
    release();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  iterator begin() noexcept { return {this, next_full(0)}; }
  iterator end() noexcept { return {this, cap_}; }
  const_iterator begin() const noexcept { return {this, next_full(0)}; }
  const_iterator end() const noexcept { return {this, cap_}; }
  const_iterator cbegin() const noexcept { return begin(); }
  const_iterator cend() const noexcept { return end(); }

  template <class Key>
  [[nodiscard]] iterator find(const Key& k) noexcept {
    const std::size_t i = find_index(k);
    return {this, i};
  }
  template <class Key>
  [[nodiscard]] const_iterator find(const Key& k) const noexcept {
    const std::size_t i = const_cast<FlatTable*>(this)->find_index(k);
    return {this, i};
  }
  template <class Key>
  [[nodiscard]] bool contains(const Key& k) const noexcept {
    return const_cast<FlatTable*>(this)->find_index(k) != cap_;
  }

  /// Ensures `n` elements fit without another rehash.
  void reserve(std::size_t n) {
    std::size_t want = min_capacity_for(n);
    if (want > cap_) rehash(want);
  }

  /// Destroys every element; keeps the allocation (like unordered_map).
  void clear() noexcept {
    destroy_all();
    if (cap_ != 0) std::memset(full_.get(), 0, cap_);
    size_ = 0;
  }

  /// Removes the entry for `k`, backward-shifting the probe chain so no
  /// tombstone is left behind. Returns the number of elements removed.
  template <class Key>
  std::size_t erase(const Key& k) noexcept {
    std::size_t i = find_index(k);
    if (i == cap_) return 0;
    erase_at(i);
    return 1;
  }

 protected:
  /// Finds the slot holding `k`, or inserts a new default slot for it.
  /// Returns (index, inserted). The caller constructs the entry when
  /// inserted is true; the slot is NOT yet constructed in that case.
  template <class Key>
  std::pair<std::size_t, bool> find_or_prepare(const Key& k) {
    if (cap_ == 0 || (size_ + 1) * 4 > cap_ * 3) grow();
    const std::size_t mask = cap_ - 1;
    std::size_t i = home(k);
    while (full_[i]) {
      if (KeyOf{}(*entry(i)) == k) return {i, false};
      i = (i + 1) & mask;
    }
    return {i, true};
  }

  /// Marks a slot prepared by find_or_prepare as constructed.
  void commit(std::size_t i) noexcept {
    full_[i] = 1;
    ++size_;
  }

  /// Iterator over a known-full slot (for derived-class insert paths).
  [[nodiscard]] iterator make_iterator(std::size_t i) noexcept {
    return {this, i};
  }

  [[nodiscard]] Entry* entry(std::size_t i) noexcept {
    return std::launder(reinterpret_cast<Entry*>(slots_.get()) + i);
  }
  [[nodiscard]] const Entry* entry(std::size_t i) const noexcept {
    return std::launder(reinterpret_cast<const Entry*>(slots_.get()) + i);
  }

  template <class Key>
  [[nodiscard]] std::size_t find_index(const Key& k) noexcept {
    if (cap_ == 0) return cap_;
    const std::size_t mask = cap_ - 1;
    std::size_t i = home(k);
    while (full_[i]) {
      if (KeyOf{}(*entry(i)) == k) return i;
      i = (i + 1) & mask;
    }
    return cap_;
  }

  void erase_at(std::size_t i) noexcept {
    const std::size_t mask = cap_ - 1;
    entry(i)->~Entry();
    full_[i] = 0;
    --size_;
    // Backward-shift: walk the chain after the hole; any element whose home
    // slot lies at or before the hole (cyclically) moves into it, so every
    // remaining element stays reachable from its home without tombstones.
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!full_[j]) return;
      const std::size_t h = home(KeyOf{}(*entry(j)));
      if (((j - h) & mask) >= ((j - i) & mask)) {
        ::new (static_cast<void*>(entry(i))) Entry(std::move(*entry(j)));
        entry(j)->~Entry();
        full_[i] = 1;
        full_[j] = 0;
        i = j;
      }
    }
  }

  [[nodiscard]] std::size_t next_full(std::size_t i) const noexcept {
    while (i < cap_ && !full_[i]) ++i;
    return i;
  }

 private:
  template <class Key>
  [[nodiscard]] std::size_t home(const Key& k) const noexcept {
    return static_cast<std::size_t>(
               avalanche(static_cast<std::uint64_t>(Hasher{}(k)))) &
           (cap_ - 1);
  }

  [[nodiscard]] static std::size_t min_capacity_for(std::size_t n) noexcept {
    std::size_t cap = 8;
    while (n * 4 > cap * 3) cap <<= 1;
    return cap;
  }

  void grow() { rehash(cap_ == 0 ? 8 : cap_ * 2); }

  void rehash(std::size_t new_cap) {
    auto new_slots = std::make_unique<std::byte[]>(new_cap * sizeof(Entry));
    auto new_full = std::make_unique<std::uint8_t[]>(new_cap);
    std::memset(new_full.get(), 0, new_cap);
    const std::size_t old_cap = cap_;
    auto old_slots = std::move(slots_);
    auto old_full = std::move(full_);
    slots_ = std::move(new_slots);
    full_ = std::move(new_full);
    cap_ = new_cap;
    const std::size_t mask = new_cap - 1;
    auto* old_entries =
        std::launder(reinterpret_cast<Entry*>(old_slots.get()));
    for (std::size_t s = 0; s < old_cap; ++s) {
      if (!old_full[s]) continue;
      Entry& e = old_entries[s];
      std::size_t i = home(KeyOf{}(e));
      while (full_[i]) i = (i + 1) & mask;
      ::new (static_cast<void*>(entry(i))) Entry(std::move(e));
      full_[i] = 1;
      e.~Entry();
    }
  }

  void copy_from(const FlatTable& other) {
    if (other.size_ == 0) return;
    rehash(other.cap_);
    const std::size_t mask = cap_ - 1;
    for (std::size_t s = 0; s < other.cap_; ++s) {
      if (!other.full_[s]) continue;
      const Entry& e = *other.entry(s);
      std::size_t i = home(KeyOf{}(e));
      while (full_[i]) i = (i + 1) & mask;
      ::new (static_cast<void*>(entry(i))) Entry(e);
      full_[i] = 1;
    }
    size_ = other.size_;
  }

  void destroy_all() noexcept {
    if constexpr (!std::is_trivially_destructible_v<Entry>) {
      for (std::size_t i = 0; i < cap_; ++i)
        if (full_[i]) entry(i)->~Entry();
    }
  }

  void release() noexcept {
    slots_.reset();
    full_.reset();
    cap_ = 0;
    size_ = 0;
  }

  void swap(FlatTable& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(full_, other.full_);
    std::swap(cap_, other.cap_);
    std::swap(size_, other.size_);
  }

  std::unique_ptr<std::byte[]> slots_;
  std::unique_ptr<std::uint8_t[]> full_;
  std::size_t cap_ = 0;
  std::size_t size_ = 0;
};

template <class K, class V>
struct PairKeyOf {
  const K& operator()(const std::pair<K, V>& e) const noexcept {
    return e.first;
  }
};
template <class K>
struct SelfKeyOf {
  const K& operator()(const K& e) const noexcept { return e; }
};

}  // namespace detail

// --- FlatMap ---------------------------------------------------------------

/// Drop-in replacement for the std::unordered_map uses on the packet path.
/// Differences: iteration order is unspecified and changes across rehashes;
/// iterators/pointers are invalidated by any insert or erase (backward
/// shifting moves elements); elements are exposed as std::pair<K,V>, and
/// callers must not modify `first` through iterators.
template <class K, class V, class Hasher = DefaultHash<K>>
class FlatMap : public detail::FlatTable<std::pair<K, V>, K,
                                         detail::PairKeyOf<K, V>, Hasher> {
  using Base = detail::FlatTable<std::pair<K, V>, K, detail::PairKeyOf<K, V>,
                                 Hasher>;

 public:
  using value_type = std::pair<K, V>;
  using iterator = typename Base::iterator;
  using const_iterator = typename Base::const_iterator;

  /// Inserts `(k, args...)` if `k` is absent. Mirrors unordered_map's
  /// try_emplace: on a hit the args are not consumed.
  template <class Key, class... Args>
  std::pair<iterator, bool> try_emplace(Key&& k, Args&&... args) {
    auto [i, inserted] = this->find_or_prepare(k);
    if (inserted) {
      ::new (static_cast<void*>(this->entry(i))) value_type(
          std::piecewise_construct,
          std::forward_as_tuple(std::forward<Key>(k)),
          std::forward_as_tuple(std::forward<Args>(args)...));
      this->commit(i);
    }
    return {this->make_iterator(i), inserted};
  }

  /// unordered_map-style emplace for the (key, value) call sites.
  template <class Key, class... Args>
  std::pair<iterator, bool> emplace(Key&& k, Args&&... args) {
    return try_emplace(std::forward<Key>(k), std::forward<Args>(args)...);
  }

  template <class Key, class Val>
  std::pair<iterator, bool> insert_or_assign(Key&& k, Val&& v) {
    auto [it, inserted] = try_emplace(std::forward<Key>(k));
    it->second = std::forward<Val>(v);
    return {it, inserted};
  }

  V& operator[](const K& k) { return try_emplace(k).first->second; }
};

// --- FlatSet ---------------------------------------------------------------

/// Open-addressing set with the same layout/probing as FlatMap.
template <class K, class Hasher = DefaultHash<K>>
class FlatSet
    : public detail::FlatTable<K, K, detail::SelfKeyOf<K>, Hasher> {
  using Base = detail::FlatTable<K, K, detail::SelfKeyOf<K>, Hasher>;

 public:
  using value_type = K;
  using iterator = typename Base::iterator;
  using const_iterator = typename Base::const_iterator;

  template <class Key>
  std::pair<iterator, bool> insert(Key&& k) {
    auto [i, inserted] = this->find_or_prepare(k);
    if (inserted) {
      ::new (static_cast<void*>(this->entry(i))) K(std::forward<Key>(k));
      this->commit(i);
    }
    return {this->make_iterator(i), inserted};
  }
};

// --- PortSet ---------------------------------------------------------------

/// Membership set over the 16-bit port space, sized by use. Up to
/// `kInline` ports live in an unsorted inline array (a home CPE's whole
/// port set, no allocation at all); the insert that would exceed that
/// promotes the set to an 8 KiB bitmap — O(1) everything, no hashing, no
/// per-insert allocation — which it keeps until clear(). clear() returns to
/// inline mode but keeps the bitmap allocation, so a re-promotion after the
/// restart path's flush allocates nothing. Nothing iterates a PortSet, so
/// the inline order is free to change under erase.
class PortSet {
 public:
  static constexpr std::size_t kInline = 12;
  static constexpr std::size_t kBitmapBytes = (std::size_t{1} << 16) / 8;

  [[nodiscard]] bool contains(std::uint16_t p) const noexcept {
    if (bitmap_) return (words_[p >> 6] >> (p & 63)) & 1u;
    for (std::uint32_t i = 0; i < size_; ++i)
      if (inline_[i] == p) return true;
    return false;
  }

  /// Returns true when `p` was newly inserted.
  bool insert(std::uint16_t p) {
    if (!bitmap_) {
      if (contains(p)) return false;
      if (size_ < kInline) {
        inline_[size_++] = p;
        return true;
      }
      promote();
    }
    std::uint64_t& w = words_[p >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (p & 63);
    if (w & bit) return false;
    w |= bit;
    ++size_;
    return true;
  }

  /// Returns 1 when `p` was present (erase-count, like the std containers).
  std::size_t erase(std::uint16_t p) noexcept {
    if (!bitmap_) {
      for (std::uint32_t i = 0; i < size_; ++i)
        if (inline_[i] == p) {
          inline_[i] = inline_[--size_];
          return 1;
        }
      return 0;
    }
    if (!contains(p)) return 0;
    words_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
    --size_;
    return 1;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Heap bytes held: the bitmap once the set has ever been promoted.
  [[nodiscard]] std::size_t heap_bytes() const noexcept {
    return words_ ? kBitmapBytes : 0;
  }

  void clear() noexcept {
    bitmap_ = false;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kWords = kBitmapBytes / sizeof(std::uint64_t);

  // Moves the inline ports into the bitmap (allocated on first promotion,
  // reused after clear()).
  void promote() {
    if (!words_)
      words_ = std::make_unique_for_overwrite<std::uint64_t[]>(kWords);
    std::memset(words_.get(), 0, kBitmapBytes);
    for (std::uint32_t i = 0; i < size_; ++i)
      words_[inline_[i] >> 6] |= std::uint64_t{1} << (inline_[i] & 63);
    bitmap_ = true;
  }

  std::unique_ptr<std::uint64_t[]> words_;
  std::uint32_t size_ = 0;
  bool bitmap_ = false;
  std::uint16_t inline_[kInline] = {};
};

}  // namespace cgn::flat
