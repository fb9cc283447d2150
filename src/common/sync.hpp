#pragma once

/// \file sync.hpp
/// Small concurrency primitives for the serving layer (docs/SERVING.md):
///
///  - StripedSharedMutex: a fixed array of reader-writer locks indexed by
///    key, so operations on unrelated keys (e.g. different region ids in
///    the encoding cache) never contend on one global mutex;
///  - VersionedSnapshot<T>: an atomically swappable shared_ptr with a
///    monotonically increasing version — the model-lifecycle primitive
///    behind zero-downtime hot reload. Readers grab a consistent
///    (value, version) pair; in-flight holders keep the old snapshot
///    alive until their shared_ptr drops.
///
/// Both are deliberately tiny: plain standard-library mutexes, no
/// lock-free cleverness, so they stay obviously correct under
/// ThreadSanitizer (CI runs the serving suites with -fsanitize=thread).

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/error.hpp"

namespace pnp {

/// Shard index a 64-bit key maps to among `n` shards. Mixes the bits
/// (splitmix64 finalizer) so both dense keys (region ids 0,1,2,…) and
/// pointer-like keys spread evenly. StripedSharedMutex::stripe_of
/// delegates here, so it picks the lock stripe of every region in
/// serve::TuningService's encoding cache.
inline std::size_t shard_of_key(std::uint64_t key, std::size_t n) {
  PNP_CHECK_MSG(n > 0, "shard_of_key needs at least one shard");
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ull;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebull;
  key ^= key >> 31;
  return static_cast<std::size_t>(key % n);
}

/// N independent reader-writer locks ("stripes") addressed by key. Callers
/// that partition a shared structure (a sharded cache, a bucketed table)
/// lock only the stripe their key hashes to, so accesses to different
/// stripes proceed fully concurrently.
class StripedSharedMutex {
 public:
  explicit StripedSharedMutex(std::size_t stripes) {
    PNP_CHECK_MSG(stripes > 0, "a striped mutex needs at least one stripe");
    mus_.reserve(stripes);
    for (std::size_t i = 0; i < stripes; ++i)
      mus_.push_back(std::make_unique<std::shared_mutex>());
  }

  std::size_t stripes() const { return mus_.size(); }

  /// Stripe a key maps to (shard_of_key over this mutex's stripe count).
  std::size_t stripe_of(std::uint64_t key) const {
    return shard_of_key(key, mus_.size());
  }

  /// The lock of one stripe (locking is logically non-mutating: the
  /// accessors are const so holders can be members of const snapshots).
  std::shared_mutex& at(std::size_t stripe) const {
    PNP_CHECK_MSG(stripe < mus_.size(), "stripe " << stripe
                                                  << " out of range [0, "
                                                  << mus_.size() << ")");
    return *mus_[stripe];
  }
  std::shared_mutex& for_key(std::uint64_t key) const {
    return *mus_[stripe_of(key)];
  }

 private:
  std::vector<std::unique_ptr<std::shared_mutex>> mus_;
};

/// Holder of an immutable snapshot that can be atomically replaced while
/// readers are using the previous one. publish() bumps the version and
/// swaps the pointer under a mutex; current() returns a consistent
/// (value, version) pair. A reader's shared_ptr keeps its snapshot alive
/// for as long as the reader works with it — replacing the snapshot never
/// invalidates in-flight uses, which is exactly the hot-reload contract
/// of serve::TuningService.
template <class T>
class VersionedSnapshot {
 public:
  struct Ref {
    std::shared_ptr<const T> value;
    std::uint64_t version = 0;
  };

  VersionedSnapshot() = default;

  /// Replace the snapshot; returns the new version (1 for the first
  /// publish, then 2, 3, …).
  std::uint64_t publish(std::shared_ptr<const T> next) {
    PNP_CHECK_MSG(next != nullptr, "cannot publish a null snapshot");
    std::lock_guard<std::mutex> lk(mu_);
    cur_ = std::move(next);
    return ++version_;
  }

  /// The current snapshot and its version, read atomically. value is null
  /// only before the first publish().
  Ref current() const {
    std::lock_guard<std::mutex> lk(mu_);
    return {cur_, version_};
  }

  /// Version of the current snapshot (0 before the first publish()).
  std::uint64_t version() const {
    std::lock_guard<std::mutex> lk(mu_);
    return version_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const T> cur_;
  std::uint64_t version_ = 0;
};

}  // namespace pnp
