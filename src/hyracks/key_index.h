#ifndef SIMDB_HYRACKS_KEY_INDEX_H_
#define SIMDB_HYRACKS_KEY_INDEX_H_

// The key table of HASH-GROUP and HASH-JOIN: composite keys are hashed and
// compared on their adm::Values in place, with the bit-exact equality of
// Value::Identical, so no per-row key string is built.

#include <cstdint>
#include <utility>
#include <vector>

#include "hyracks/tuple.h"

namespace simdb::hyracks {

/// Hash of a composite key read through `value(i)` for i < n. Finalized
/// with a splitmix step: the rows of one partition share their exchange
/// hash modulo the partition count, so the raw combination would crowd the
/// low bits the table probes with.
template <typename ValueAt>
uint64_t HashKeyValues(size_t n, ValueAt value) {
  uint64_t h = 0x6b6579;
  for (size_t i = 0; i < n; ++i) {
    h ^= value(i).Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Open-addressing index from a composite key to a dense slot number
/// (0, 1, ... in first-insert order). The keys stay with the caller, which
/// compares a probe key with slot `s`'s key through the `same(s)` callback.
class KeyIndex {
 public:
  /// The slot of the key hashing to `hash`, inserting slot size() when no
  /// slot matches; the flag says whether it was inserted.
  template <typename Same>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, Same same) {
    if ((size_ + 1) * 2 > entries_.size()) Grow();
    size_t i = hash & (entries_.size() - 1);
    for (;; i = (i + 1) & (entries_.size() - 1)) {
      Entry& e = entries_[i];
      if (e.slot == kEmpty) {
        e = {hash, static_cast<uint32_t>(size_)};
        return {static_cast<uint32_t>(size_++), true};
      }
      if (e.hash == hash && same(e.slot)) return {e.slot, false};
    }
  }

  /// The slot of the key hashing to `hash`, or kEmpty.
  template <typename Same>
  uint32_t Find(uint64_t hash, Same same) const {
    if (entries_.empty()) return kEmpty;
    size_t i = hash & (entries_.size() - 1);
    for (;; i = (i + 1) & (entries_.size() - 1)) {
      const Entry& e = entries_[i];
      if (e.slot == kEmpty) return kEmpty;
      if (e.hash == hash && same(e.slot)) return e.slot;
    }
  }

  size_t size() const { return size_; }

  static constexpr uint32_t kEmpty = UINT32_MAX;

 private:
  struct Entry {
    uint64_t hash = 0;
    uint32_t slot = kEmpty;
  };

  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.empty() ? 16 : old.size() * 2, Entry{});
    for (const Entry& e : old) {
      if (e.slot == kEmpty) continue;
      size_t i = e.hash & (entries_.size() - 1);
      while (entries_[i].slot != kEmpty) i = (i + 1) & (entries_.size() - 1);
      entries_[i] = e;
    }
  }

  std::vector<Entry> entries_;  // power-of-two size, at most half full
  size_t size_ = 0;
};

}  // namespace simdb::hyracks

#endif  // SIMDB_HYRACKS_KEY_INDEX_H_
