#include "ripple/metrics/chrome_trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::metrics {

namespace {

constexpr double kMicros = 1e6;

}  // namespace

json::Value chrome_trace_json(const Tracer& tracer,
                              const Counters* counters) {
  const auto& spans = tracer.spans();
  double last = 0.0;
  for (const Span& span : spans) {
    last = std::max(last, std::max(span.begin, span.end));
  }

  // One track per (category, entity), numbered in first-appearance
  // order so the layout is deterministic.
  std::map<std::string, int> tracks;
  json::Value events = json::Value::array();
  const auto track_of = [&](const Span& span) {
    const std::string key =
        strutil::cat(span.category, ":", span.entity);
    const auto it = tracks.find(key);
    if (it != tracks.end()) return it->second;
    const int tid = static_cast<int>(tracks.size()) + 1;
    tracks.emplace(key, tid);
    json::Value meta = json::Value::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", tid);
    meta.set("args", json::Value::object({{"name", key}}));
    events.push_back(std::move(meta));
    return tid;
  };

  for (const Span& span : spans) {
    const double end = span.end < 0.0 ? last : span.end;
    json::Value event = json::Value::object();
    event.set("name", span.name);
    event.set("cat", span.category);
    event.set("ph", "X");
    event.set("ts", span.begin * kMicros);
    event.set("dur", (end - span.begin) * kMicros);
    event.set("pid", 1);
    event.set("tid", track_of(span));
    json::Value args = json::Value::object();
    args.set("entity", span.entity);
    args.set("id", strutil::cat(span.id));
    if (span.parent != 0) {
      args.set("parent", strutil::cat(span.parent));
    }
    if (span.end < 0.0) args.set("open", true);
    for (const auto& [key, value] : span.args) args.set(key, value);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }

  if (counters != nullptr) {
    for (const Counters::Sample& sample : counters->samples()) {
      json::Value event = json::Value::object();
      event.set("name", sample.name);
      event.set("ph", "C");
      event.set("ts", sample.time * kMicros);
      event.set("pid", 1);
      event.set("args", json::Value::object({{"value", sample.value}}));
      events.push_back(std::move(event));
    }
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData",
          json::Value::object({{"producer", "ripple::metrics::Tracer"},
                               {"spans", spans.size()}}));
  return doc;
}

void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const Counters* counters) {
  std::ofstream out(path);
  ensure(out.good(), Errc::io_error, "cannot open trace file ", path);
  out << chrome_trace_json(tracer, counters).dump() << "\n";
}

}  // namespace ripple::metrics
