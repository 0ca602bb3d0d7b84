#pragma once

/// \file registry.hpp
/// Central collection point for the paper's three metrics:
/// BT (bootstrap time, Fig. 3), RT (response time, Figs. 4-5) and
/// IT (inference time, Fig. 6).

#include <map>
#include <string>
#include <vector>

#include "ripple/common/statistics.hpp"
#include "ripple/msg/message.hpp"

namespace ripple::metrics {

/// One service bootstrap, decomposed like the paper's Fig. 3 stacks.
struct BootstrapRecord {
  std::string uid;        ///< service uid
  double launch = 0.0;    ///< process launch on target resources
  double init = 0.0;      ///< model load + initialization
  double publish = 0.0;   ///< endpoint publication
  std::size_t cohort = 0; ///< concurrent instances in this wave

  [[nodiscard]] double total() const noexcept {
    return launch + init + publish;
  }
};

/// Aggregated component summaries of a request series.
struct RequestSeries {
  common::Summary communication;
  common::Summary service;
  common::Summary inference;
  common::Summary total;

  void add(const msg::RequestTiming& timing);
  [[nodiscard]] std::size_t count() const noexcept { return total.count(); }
  [[nodiscard]] json::Value to_json() const;
};

class Registry {
 public:
  // --- bootstrap (BT) ---
  void add_bootstrap(BootstrapRecord record);
  [[nodiscard]] const std::vector<BootstrapRecord>& bootstraps() const
      noexcept {
    return bootstraps_;
  }
  [[nodiscard]] common::Summary bootstrap_component(
      const std::string& component) const;  // "launch"|"init"|"publish"|"total"

  // --- requests (RT / IT), grouped into named series ---
  void add_request(const std::string& series, const msg::RequestTiming& t);
  [[nodiscard]] bool has_series(const std::string& series) const;
  [[nodiscard]] const RequestSeries& series(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> series_names() const;

  void clear();

  [[nodiscard]] json::Value to_json() const;

 private:
  std::vector<BootstrapRecord> bootstraps_;
  std::map<std::string, RequestSeries> request_series_;
};

}  // namespace ripple::metrics
