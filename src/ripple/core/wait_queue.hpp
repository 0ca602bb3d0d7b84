#pragma once

/// \file wait_queue.hpp
/// Priority-ordered waiting queue for the scheduler, indexed by shape.
///
/// A balanced-tree indexed priority queue keyed by (priority desc,
/// sequence asc) — the scheduler's native grant order. The key is also
/// the request's name: the scheduler hands it out as the request's
/// ticket, and cancel() erases by it. Every entry also sits in one
/// *bucket*: the queued requests of one shape (cores, gpus, mem_gb,
/// tenant, declares-inputs), kept in the same grant order; an erase
/// finds the bucket from the request's shape. push and erase are
/// O(log N).
///
/// The buckets are what make a backfill pass cheap. Within one pass
/// capacity only shrinks, so once a request of some shape fails to fit,
/// every later request of that shape fails too. The scheduler's
/// backfill pass therefore merges bucket heads on its composite key and
/// probes one head at a time, dropping a bucket at its first miss:
/// O(buckets + grants) probes instead of one per queued request. A
/// bucket is in composite-key order as well as native order because the
/// extra key components (the tenant's share, the residency of declared
/// inputs) are per-bucket or per-run constants and `enqueued_at` rises
/// with the sequence.
///
/// Cross-tenant ordering audit (multi-tenant runtime). Sequences are
/// drawn from ONE scheduler-global counter (`Scheduler::next_sequence_`)
/// regardless of which tenant/session submitted, and `enqueued_at`
/// records the global sim-time of submission. Equal-priority requests
/// from different tenants therefore tie-break in global
/// (time, sequence) submission order — never per-session insertion
/// order — and the order is bit-identical across reruns. Pinned by
/// TenantsTest.CrossTenantTieBreakFollowsSubmissionOrder in
/// tests/test_tenants.cpp. Weighted fair-share (DRF-style) orders the
/// backfill pass by the tenants' shares but never mutates the keys
/// here, so disabling fair-share restores this queue's native order
/// exactly.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "ripple/core/scheduler_request.hpp"

namespace ripple::core {

class WaitQueue {
 public:
  /// Grant-order key: higher priority first, then submission order.
  struct Key {
    int priority = 0;
    std::uint64_t sequence = 0;

    bool operator<(const Key& other) const noexcept {
      if (priority != other.priority) return priority > other.priority;
      return sequence < other.sequence;
    }
  };

  struct Entry {
    ScheduleRequest request;
    double enqueued_at = 0.0;
  };

  using Map = std::map<Key, Entry>;
  using iterator = Map::iterator;
  using const_iterator = Map::const_iterator;

  /// What a bucket groups by: requests that fit exactly the same nodes
  /// and share every per-request component of the composite key.
  struct Shape {
    std::size_t cores = 0;
    std::size_t gpus = 0;
    double mem_gb = 0.0;
    std::string tenant;
    bool declares_inputs = false;

    bool operator<(const Shape& other) const {
      return std::tie(cores, gpus, mem_gb, tenant, declares_inputs) <
             std::tie(other.cores, other.gpus, other.mem_gb, other.tenant,
                      other.declares_inputs);
    }
  };

  /// Orders a bucket's members by their queue key.
  struct ByKey {
    bool operator()(const iterator& a, const iterator& b) const noexcept {
      return a->first < b->first;
    }
  };

  /// One shape's queued entries, in grant order. Non-empty while listed.
  using Bucket = std::set<iterator, ByKey>;
  using Buckets = std::map<Shape, Bucket>;

  /// Inserts in grant order. Keys are unique by construction (the
  /// sequence never repeats); a key already queued throws internal.
  void push(Key key, Entry entry);

  /// Removes the entry queued under `key`; false when none is (granted,
  /// cancelled or never issued).
  bool erase(const Key& key);

  /// Removes the entry an iterator points at.
  void erase(iterator position);

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }

  [[nodiscard]] iterator begin() noexcept { return queue_.begin(); }
  [[nodiscard]] iterator end() noexcept { return queue_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return queue_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return queue_.end(); }

  /// The non-empty buckets, in Shape order.
  [[nodiscard]] const Buckets& buckets() const noexcept { return buckets_; }

 private:
  Map queue_;
  Buckets buckets_;
};

}  // namespace ripple::core
