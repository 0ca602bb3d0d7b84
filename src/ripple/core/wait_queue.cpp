#include "ripple/core/wait_queue.hpp"

#include "ripple/common/error.hpp"

namespace ripple::core {

void WaitQueue::push(Key key, Entry entry) {
  const auto [located, fresh] = by_uid_.try_emplace(entry.request.uid);
  ensure(fresh, Errc::invalid_state, "wait queue: uid '", entry.request.uid,
         "' already queued");
  const auto [position, inserted] = queue_.emplace(key, std::move(entry));
  if (!inserted) {
    by_uid_.erase(located);
    raise(Errc::internal, "wait queue: duplicate sequence");
  }
  const ScheduleRequest& request = position->second.request;
  Shape shape{request.cores, request.gpus, request.mem_gb, request.tenant,
              !request.input_datasets.empty()};
  const auto bucket = buckets_.try_emplace(std::move(shape)).first;
  bucket->second.insert(position);
  located->second = Location{key, bucket};
}

bool WaitQueue::erase_uid(const std::string& uid) {
  const auto it = by_uid_.find(uid);
  if (it == by_uid_.end()) return false;
  erase(queue_.find(it->second.key));
  return true;
}

void WaitQueue::erase(iterator position) {
  const auto located = by_uid_.find(position->second.request.uid);
  const Buckets::iterator bucket = located->second.bucket;
  bucket->second.erase(position);
  if (bucket->second.empty()) buckets_.erase(bucket);
  by_uid_.erase(located);
  queue_.erase(position);
}

}  // namespace ripple::core
