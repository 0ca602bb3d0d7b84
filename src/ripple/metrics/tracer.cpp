#include "ripple/metrics/tracer.hpp"

#include <bit>

#include "ripple/common/hash.hpp"

namespace ripple::metrics {

namespace {

std::uint64_t fold_double(std::uint64_t hash, double value) {
  return common::fnv1a(hash, std::bit_cast<std::uint64_t>(value));
}

}  // namespace

SpanId Tracer::make_id(const std::string& entity) {
  // Stable across runs: entity uids are session-scoped and the
  // sequence counts spans in deterministic log order, so the id is a
  // pure function of the run's history (never of addresses or wall
  // time). Unique with overwhelming probability; uniqueness is only
  // needed among *open* spans, which the open_ map keys by id.
  std::uint64_t hash = common::fnv1a(common::kFnvOffsetBasis, entity);
  hash = common::fnv1a(hash, ++next_sequence_);
  return hash == 0 ? 1 : hash;
}

SpanId Tracer::begin(std::string name, std::string category,
                     std::string entity, double time, SpanId parent,
                     Args args) {
  if (!enabled_) return 0;
  Span span;
  span.id = make_id(entity);
  span.parent = parent;
  span.name = std::move(name);
  span.category = std::move(category);
  span.entity = std::move(entity);
  span.begin = time;
  for (const auto& [key, value] : args) span.args.emplace_back(key, value);
  open_[span.id] = spans_.size();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::end(SpanId id, double time) {
  if (!enabled_ || id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end = time;
  open_.erase(it);
}

void Tracer::arg(SpanId id, std::string key, std::string value) {
  if (!enabled_ || id == 0) return;
  const auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].args.emplace_back(std::move(key), std::move(value));
}

void Tracer::instant(std::string name, std::string category,
                     std::string entity, double time, SpanId parent,
                     Args args) {
  (void)complete(std::move(name), std::move(category), std::move(entity),
                 time, time, parent, args);
}

SpanId Tracer::complete(std::string name, std::string category,
                        std::string entity, double begin_time,
                        double end_time, SpanId parent, Args args) {
  if (!enabled_) return 0;
  Span span;
  span.id = make_id(entity);
  span.parent = parent;
  span.name = std::move(name);
  span.category = std::move(category);
  span.entity = std::move(entity);
  span.begin = begin_time;
  span.end = end_time;
  for (const auto& [key, value] : args) span.args.emplace_back(key, value);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint64_t Tracer::span_log_hash() const {
  std::uint64_t hash = common::kFnvOffsetBasis;
  for (const Span& span : spans_) {
    hash = common::fnv1a(hash, span.name);
    hash = common::fnv1a(hash, span.category);
    hash = common::fnv1a(hash, span.entity);
    hash = common::fnv1a(hash, span.parent);
    hash = fold_double(hash, span.begin);
    hash = fold_double(hash, span.end);
    for (const auto& [key, value] : span.args) {
      hash = common::fnv1a(hash, key);
      hash = common::fnv1a(hash, value);
    }
  }
  return hash;
}

void Tracer::clear() {
  spans_.clear();
  open_.clear();
  next_sequence_ = 0;
}

}  // namespace ripple::metrics
