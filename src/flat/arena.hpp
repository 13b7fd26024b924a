#pragma once
// Chunked object slab with stable addresses and 32-bit handles.
//
// `Arena<T>` owns its objects in geometrically growing chunks (no
// reallocation ever moves a live object), hands out dense `std::uint32_t`
// handles instead of pointers, and recycles erased slots through a LIFO
// free list. Compared to the `std::vector<std::unique_ptr<T>>` ownership
// pattern it replaces:
//
//   * chunk k holds `kFirstChunk << k` slots, so an arena pays for what it
//     uses: a home CPE with a handful of mappings holds one 16-slot chunk,
//     while a carrier NAT with 100k mappings needs only ~13 allocations
//     (and ~16 bytes/object less header overhead than one malloc each);
//   * handles are half the size of pointers, so side tables that reference
//     arena entries (e.g. the NAT translation maps) shrink accordingly;
//   * erase + emplace reuse is deterministic: the most recently freed slot
//     is always handed out next, independent of the heap state, which keeps
//     handle sequences reproducible across runs.
//
// Objects are constructed in place (`emplace` forwards to the constructor),
// so non-movable types work. Destruction order on `clear()` is slot order,
// chunk by chunk.
//
// Not thread-safe; external synchronisation required, same as the flat
// containers next door.

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace cgn::flat {

template <typename T>
class Arena {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNoHandle = 0xFFFFFFFFu;
  /// Slots in chunk 0; chunk k holds `kFirstChunk << k`.
  static constexpr std::size_t kFirstChunk = 16;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        live_(std::move(other.live_)),
        free_(std::move(other.free_)),
        end_(other.end_),
        size_(other.size_) {
    other.end_ = 0;
    other.size_ = 0;
  }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      destroy_all();
      chunks_ = std::move(other.chunks_);
      live_ = std::move(other.live_);
      free_ = std::move(other.free_);
      end_ = other.end_;
      size_ = other.size_;
      other.end_ = 0;
      other.size_ = 0;
    }
    return *this;
  }
  ~Arena() { destroy_all(); }

  /// Constructs a T in a free slot and returns its handle. Reuses the most
  /// recently erased slot first; otherwise appends (growing by one chunk,
  /// twice the size of the last, when the current one is full).
  template <typename... Args>
  Handle emplace(Args&&... args) {
    Handle h;
    if (!free_.empty()) {
      h = free_.back();
      free_.pop_back();
    } else {
      h = end_;
      if (end_ == live_.size()) {
        const std::size_t n = kFirstChunk << chunks_.size();
        // Every slot is built by placement-new before it is read, so the
        // chunk is left uninitialised rather than zero-filled.
        chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(n));
        live_.resize(live_.size() + n, 0);
      }
      ++end_;
    }
    ::new (static_cast<void*>(slot(h))) T(std::forward<Args>(args)...);
    live_[h] = 1;
    ++size_;
    return h;
  }

  /// Destroys the object at `h` and recycles its slot.
  void erase(Handle h) {
    assert(h < end_ && live_[h]);
    std::launder(reinterpret_cast<T*>(slot(h)))->~T();
    live_[h] = 0;
    --size_;
    free_.push_back(h);
  }

  T& operator[](Handle h) {
    assert(h < end_ && live_[h]);
    return *std::launder(reinterpret_cast<T*>(slot(h)));
  }
  const T& operator[](Handle h) const {
    assert(h < end_ && live_[h]);
    return *std::launder(reinterpret_cast<const T*>(slot(h)));
  }

  bool contains(Handle h) const { return h < end_ && live_[h]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots ever handed out (high-water mark), live or not.
  std::size_t slots() const { return end_; }
  /// Bytes reserved for object storage across all chunks.
  std::size_t capacity_bytes() const { return live_.size() * sizeof(T); }

  /// Destroys all live objects and resets the free list; chunk memory is
  /// kept for reuse (mirrors PortSet::clear()).
  void clear() {
    for (Handle h = 0; h < end_; ++h)
      if (live_[h]) {
        std::launder(reinterpret_cast<T*>(slot(h)))->~T();
        live_[h] = 0;
      }
    free_.clear();
    end_ = 0;
    size_ = 0;
  }

  /// Calls `fn(handle, T&)` for every live object in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (Handle h = 0; h < end_; ++h)
      if (live_[h]) fn(h, (*this)[h]);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (Handle h = 0; h < end_; ++h)
      if (live_[h]) fn(h, (*this)[h]);
  }

 private:
  struct alignas(alignof(T)) Slot {
    unsigned char bytes[sizeof(T)];
  };
  static_assert(std::has_single_bit(kFirstChunk),
                "kFirstChunk must be a power of two");
  static constexpr int kFirstShift = std::countr_zero(kFirstChunk);

  // Chunk k covers handles [kFirstChunk * (2^k - 1), kFirstChunk * (2^(k+1)
  // - 1)); biasing the handle by kFirstChunk turns that into "the position
  // of the top set bit", one bit_width away.
  const Slot* slot(Handle h) const {
    const std::size_t v = std::size_t{h} + kFirstChunk;
    const int k = std::bit_width(v) - 1 - kFirstShift;
    return &chunks_[k][v - (kFirstChunk << k)];
  }
  Slot* slot(Handle h) {
    return const_cast<Slot*>(std::as_const(*this).slot(h));
  }

  void destroy_all() {
    for (Handle h = 0; h < end_; ++h)
      if (live_[h]) std::launder(reinterpret_cast<T*>(slot(h)))->~T();
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint8_t> live_;  // one flag per slot in every chunk
  std::vector<Handle> free_;
  Handle end_ = 0;       // one past the highest slot ever handed out
  std::size_t size_ = 0; // live objects
};

}  // namespace cgn::flat
