#include "ripple/core/wait_queue.hpp"

#include "ripple/common/error.hpp"

namespace ripple::core {

namespace {

WaitQueue::Shape shape_of(const ScheduleRequest& request) {
  return {request.cores, request.gpus, request.mem_gb, request.tenant,
          !request.input_datasets.empty()};
}

}  // namespace

void WaitQueue::push(Key key, Entry entry) {
  const auto [position, inserted] = queue_.emplace(key, std::move(entry));
  ensure(inserted, Errc::internal, "wait queue: duplicate sequence");
  buckets_.try_emplace(shape_of(position->second.request))
      .first->second.insert(position);
}

bool WaitQueue::erase(const Key& key) {
  const auto position = queue_.find(key);
  if (position == queue_.end()) return false;
  erase(position);
  return true;
}

void WaitQueue::erase(iterator position) {
  const auto bucket = buckets_.find(shape_of(position->second.request));
  bucket->second.erase(position);
  if (bucket->second.empty()) buckets_.erase(bucket);
  queue_.erase(position);
}

}  // namespace ripple::core
