#include "ripple/metrics/registry.hpp"

#include "ripple/common/error.hpp"
#include "ripple/common/strutil.hpp"

namespace ripple::metrics {

void RequestSeries::add(const msg::RequestTiming& timing) {
  communication.add(timing.communication);
  service.add(timing.service);
  inference.add(timing.inference);
  total.add(timing.total);
}

json::Value RequestSeries::to_json() const {
  json::Value out = json::Value::object();
  out.set("communication", communication.to_json());
  out.set("service", service.to_json());
  out.set("inference", inference.to_json());
  out.set("total", total.to_json());
  return out;
}

void Registry::add_bootstrap(BootstrapRecord record) {
  bootstraps_.push_back(std::move(record));
}

common::Summary Registry::bootstrap_component(
    const std::string& component) const {
  common::Summary out;
  for (const auto& record : bootstraps_) {
    if (component == "launch") {
      out.add(record.launch);
    } else if (component == "init") {
      out.add(record.init);
    } else if (component == "publish") {
      out.add(record.publish);
    } else if (component == "total") {
      out.add(record.total());
    } else {
      raise(Errc::invalid_argument,
            strutil::cat("unknown bootstrap component '", component, "'"));
    }
  }
  return out;
}

void Registry::add_request(const std::string& series,
                           const msg::RequestTiming& t) {
  request_series_[series].add(t);
}

bool Registry::has_series(const std::string& series) const {
  return request_series_.count(series) != 0;
}

const RequestSeries& Registry::series(const std::string& name) const {
  const auto it = request_series_.find(name);
  ensure(it != request_series_.end(), Errc::not_found, "no request series '",
         name, "'");
  return it->second;
}

std::vector<std::string> Registry::series_names() const {
  std::vector<std::string> out;
  out.reserve(request_series_.size());
  for (const auto& [name, series] : request_series_) out.push_back(name);
  return out;
}

void Registry::clear() {
  bootstraps_.clear();
  request_series_.clear();
}

json::Value Registry::to_json() const {
  json::Value out = json::Value::object();
  json::Value boot = json::Value::object();
  boot.set("count", bootstraps_.size());
  if (!bootstraps_.empty()) {
    boot.set("launch", bootstrap_component("launch").to_json());
    boot.set("init", bootstrap_component("init").to_json());
    boot.set("publish", bootstrap_component("publish").to_json());
    boot.set("total", bootstrap_component("total").to_json());
  }
  out.set("bootstrap", std::move(boot));

  json::Value requests = json::Value::object();
  for (const auto& [name, series] : request_series_) {
    requests.set(name, series.to_json());
  }
  out.set("requests", std::move(requests));
  return out;
}

}  // namespace ripple::metrics
