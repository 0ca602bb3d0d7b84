#pragma once

/// \file network.hpp
/// Host registry and sampled-latency / bandwidth network model.
///
/// Hosts belong to *zones* (one zone per platform: "frontier", "delta",
/// "r3"). A link model — latency distribution plus bandwidth — is defined
/// per zone pair; intra-zone, loopback and inter-zone (WAN) links differ.
/// The paper's calibration lives here: Delta inter-node latency
/// 0.063 ms +/- 0.014 ms, Delta<->R3 0.47 ms +/- 0.04 ms (section IV-C).

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "ripple/common/random.hpp"
#include "ripple/common/statistics.hpp"
#include "ripple/sim/event_loop.hpp"

namespace ripple::sim {

/// Opaque host identifier ("delta:node03", "r3:server").
using HostId = std::string;

/// Latency + bandwidth parameters of one link class.
struct LinkModel {
  common::Distribution latency;      ///< one-way latency, seconds
  double bandwidth_bytes_per_s = 0;  ///< 0 means "latency only"

  /// Transfer delay for `bytes` over this link with a given rng.
  [[nodiscard]] Duration sample_delay(common::Rng& rng,
                                      std::size_t bytes) const;
};

class Network {
 public:
  Network(EventLoop& loop, common::Rng rng);

  /// Declares a zone; idempotent.
  void add_zone(const std::string& zone);

  /// Registers `host` as a member of `zone` (zone auto-created).
  void register_host(const HostId& host, const std::string& zone);

  [[nodiscard]] bool has_host(const HostId& host) const;

  /// Zone of a registered host; throws not_found otherwise.
  [[nodiscard]] const std::string& zone_of(const HostId& host) const;

  /// Sets the symmetric link model between two zones (a == b allowed:
  /// that is the intra-zone inter-node link).
  void set_link(const std::string& zone_a, const std::string& zone_b,
                LinkModel link);

  /// Sets the same-host model for hosts of one zone (hosts of other
  /// zones pay a 1 us constant loopback). HPC platforms use
  /// this to charge the local TCP/ZeroMQ stack cost even for node-local
  /// messaging (comparable to, slightly below, inter-node latency).
  void set_zone_loopback(const std::string& zone, LinkModel link) {
    zone_loopback_[zone] = link;
  }

  /// Bulk bandwidth of the zone-pair link model, bytes/s; 0 when the
  /// pair has no link or the link is latency-only. The data plane's
  /// TransferEngine reads shared-link rates from here, which makes the
  /// network's link models the single source of truth for bandwidth.
  [[nodiscard]] double link_bandwidth(const std::string& zone_a,
                                      const std::string& zone_b) const
      noexcept;

  /// Samples the delivery delay for a message of `bytes` from -> to.
  [[nodiscard]] Duration sample_delay(const HostId& from, const HostId& to,
                                      std::size_t bytes);

  /// Schedules `on_arrival` after the sampled delivery delay.
  void deliver(const HostId& from, const HostId& to, std::size_t bytes,
               EventLoop::Callback on_arrival);

  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_;
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return bytes_;
  }

  /// Observed one-way delays per zone pair ("delta->r3").
  [[nodiscard]] const std::map<std::string, common::Summary>& delay_stats()
      const noexcept {
    return delay_stats_;
  }

 private:
  [[nodiscard]] const LinkModel& link_between(const std::string& zone_a,
                                              const std::string& zone_b) const;

  EventLoop& loop_;
  common::Rng rng_;
  std::unordered_map<HostId, std::string> host_zone_;
  std::map<std::pair<std::string, std::string>, LinkModel> links_;
  std::unordered_map<std::string, LinkModel> zone_loopback_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::map<std::string, common::Summary> delay_stats_;
};

}  // namespace ripple::sim
