// Copyright 2026 The HybridTree Authors.
// PageTable: a map from page id to an object pointer whose reads take no
// lock. It is the index behind the warm read path: the buffer pool's frame
// map, the tree's flat-node cache and the quantized-sidecar store.
//
// Layout. Slots are std::atomic<T*> in fixed chunks of kChunkSlots ids,
// each chunk allocated on the first install into its id range. A growable
// directory maps chunk numbers to chunks. Resident size is therefore about
// 8 bytes per installed page plus at most one partly used chunk, and the
// 32-bit id space is never reserved up front.
//
// Concurrency. Load() is a few acquire loads and never blocks. Installs
// (Store, PublishIfEmpty) take grow_mu_ only when they must allocate a
// chunk or grow the directory. A grown directory is published with a
// release store; the directory it replaces is retired, not freed, until
// the table is destroyed, so a reader still holding it never touches freed
// memory. Chunks live until destruction too. What a slot points to is the
// caller's business: PageTable never dereferences or deletes it (see
// OwnedPageTable for the owning variant).
//
// Memory order. Every install is a release store or a release CAS, and
// every Load is an acquire load, so a reader that gets a pointer also sees
// the object as its publisher finished writing it.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/sync.h"
#include "storage/page.h"

namespace ht {

template <typename T>
class PageTable {
 public:
  PageTable() = default;
  HT_DISALLOW_COPY_AND_ASSIGN(PageTable);

  /// The pointer at `id`, or nullptr. Lock-free.
  T* Load(PageId id) const {
    const std::atomic<T*>* slot = Find(id);
    return slot == nullptr ? nullptr : slot->load(std::memory_order_acquire);
  }

  /// Installs `p` at `id` (release), allocating the chunk if needed.
  void Store(PageId id, T* p) { Slot(id).store(p, std::memory_order_release); }

  /// Installs `p` at `id` only if the slot is empty (release CAS). Returns
  /// `p` on success, otherwise the pointer that got there first.
  T* PublishIfEmpty(PageId id, T* p) {
    T* expected = nullptr;
    if (Slot(id).compare_exchange_strong(expected, p,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return p;
    }
    return expected;
  }

  /// Empties the slot at `id` and returns what it held (nullptr if
  /// nothing). Never allocates.
  T* Take(PageId id) {
    std::atomic<T*>* slot = Find(id);
    return slot == nullptr ? nullptr
                           : slot->exchange(nullptr, std::memory_order_acq_rel);
  }

  /// Calls fn(id, pointer) for every non-empty slot, in id order. Sees a
  /// concurrent install or removal either before or after it happens.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Directory* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr) return;
    for (size_t c = 0; c < dir->size; ++c) {
      const Chunk* chunk = dir->chunks[c].load(std::memory_order_acquire);
      if (chunk == nullptr) continue;
      for (size_t i = 0; i < kChunkSlots; ++i) {
        if (T* p = chunk->slots[i].load(std::memory_order_acquire)) {
          fn(static_cast<PageId>(c * kChunkSlots + i), p);
        }
      }
    }
  }

 private:
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkBits;
  static constexpr size_t kMinChunks = 8;

  struct Chunk {
    std::array<std::atomic<T*>, kChunkSlots> slots{};
  };
  struct Directory {
    explicit Directory(size_t n)
        : size(n), chunks(std::make_unique<std::atomic<Chunk*>[]>(n)) {}
    const size_t size;
    const std::unique_ptr<std::atomic<Chunk*>[]> chunks;
  };

  /// The slot for `id` if its chunk exists, else nullptr. Lock-free.
  std::atomic<T*>* Find(PageId id) const {
    const size_t c = static_cast<size_t>(id) >> kChunkBits;
    const Directory* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr || c >= dir->size) return nullptr;
    Chunk* chunk = dir->chunks[c].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr
                            : &chunk->slots[id & (kChunkSlots - 1)];
  }

  /// The slot for `id`, allocating its chunk (and growing the directory)
  /// under grow_mu_ on first use.
  std::atomic<T*>& Slot(PageId id) {
    if (std::atomic<T*>* slot = Find(id)) return *slot;
    const size_t c = static_cast<size_t>(id) >> kChunkBits;
    MutexLock lock(&grow_mu_);
    // Relaxed: dir_ and the chunk pointers are only written under grow_mu_.
    Directory* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr || c >= dir->size) {
      size_t n = dir == nullptr ? kMinChunks : dir->size;
      while (n <= c) n *= 2;
      auto grown = std::make_unique<Directory>(n);
      for (size_t i = 0; dir != nullptr && i < dir->size; ++i) {
        grown->chunks[i].store(dir->chunks[i].load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
      }
      dir = grown.get();
      dirs_.push_back(std::move(grown));
      dir_.store(dir, std::memory_order_release);
    }
    Chunk* chunk = dir->chunks[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunks_.push_back(std::make_unique<Chunk>());
      chunk = chunks_.back().get();
      dir->chunks[c].store(chunk, std::memory_order_release);
    }
    return chunk->slots[id & (kChunkSlots - 1)];
  }

  /// The current directory. Acquire on read, release on publish.
  std::atomic<Directory*> dir_{nullptr};
  /// Leaf lock: nothing is acquired under it. Taken, rarely, inside the
  /// buffer-pool lock.
  Mutex grow_mu_{LockRank::kPageTable, "PageTable::grow_mu_"};
  /// Every directory ever published (the current one last) and every
  /// chunk, freed only with the table.
  std::vector<std::unique_ptr<Directory>> dirs_ HT_GUARDED_BY(grow_mu_);
  std::vector<std::unique_ptr<Chunk>> chunks_ HT_GUARDED_BY(grow_mu_);
};

/// A PageTable that owns its objects. Publish hands one over; Erase and
/// Clear delete. A reader's pointer stays valid until its object is erased,
/// and callers must order every Erase/Clear after the readers of that
/// object: the tree does so with its shared-read / exclusive-write contract
/// (core/hybrid_tree.h).
template <typename T>
class OwnedPageTable {
 public:
  OwnedPageTable() = default;
  ~OwnedPageTable() { Clear(); }
  HT_DISALLOW_COPY_AND_ASSIGN(OwnedPageTable);

  T* Get(PageId id) const { return table_.Load(id); }

  /// Publishes `obj` at `id` unless another object got there first, in
  /// which case `obj` is deleted. Returns the object now at `id`.
  T* Publish(PageId id, std::unique_ptr<T> obj) {
    T* winner = table_.PublishIfEmpty(id, obj.get());
    if (winner == obj.get()) (void)obj.release();
    return winner;
  }

  /// Deletes the object at `id`, if any.
  void Erase(PageId id) { delete table_.Take(id); }

  /// Deletes every object.
  void Clear() {
    table_.ForEach([this](PageId id, T*) { delete table_.Take(id); });
  }

  size_t Count() const {
    size_t n = 0;
    table_.ForEach([&n](PageId, T*) { ++n; });
    return n;
  }

  /// Calls fn(id, object) for every object, in id order.
  template <typename Fn>
  void ForEach(Fn&& fn) const { table_.ForEach(std::forward<Fn>(fn)); }

 private:
  PageTable<T> table_;
};

}  // namespace ht
