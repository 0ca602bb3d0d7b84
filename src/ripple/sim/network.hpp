#pragma once

/// \file network.hpp
/// Host registry and sampled-latency / bandwidth network model.
///
/// Hosts belong to *zones* (one zone per platform: "frontier", "delta",
/// "r3"). A link model — latency distribution plus bandwidth — is defined
/// per zone pair; intra-zone, loopback and inter-zone (WAN) links differ.
/// The paper's calibration lives here: Delta inter-node latency
/// 0.063 ms +/- 0.014 ms, Delta<->R3 0.47 ms +/- 0.04 ms (section IV-C).
///
/// A host resolves to a dense index and zone when it registers, and the
/// link models sit in a zone x zone table, so sampling a message's delay
/// hashes no string.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ripple/common/random.hpp"
#include "ripple/sim/event_loop.hpp"

namespace ripple::sim {

/// Opaque host identifier ("delta:node03", "r3:server").
using HostId = std::string;

/// Dense index of a registered host, in registration order. The message
/// path names hosts by index; HostId strings stay at registration and in
/// errors.
using HostIndex = std::uint32_t;

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

  /// Registers `host` as a member of `zone` (zone auto-created) and
  /// returns its index. Re-registering a host keeps its index and moves
  /// it to `zone`.
  HostIndex register_host(const HostId& host, const std::string& zone);

  [[nodiscard]] bool has_host(const HostId& host) const;

  /// Index of a registered host; throws not_found otherwise.
  [[nodiscard]] HostIndex host_index(const HostId& host) const;

  /// Name of a registered host.
  [[nodiscard]] const HostId& host_name(HostIndex host) const {
    return hosts_[host].name;
  }

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
  void set_zone_loopback(const std::string& zone, LinkModel link);

  /// Bulk bandwidth of the zone-pair link model, bytes/s; 0 when the
  /// pair has no link or the link is latency-only. The data plane's
  /// TransferEngine reads shared-link rates from here, which makes the
  /// network's link models the single source of truth for bandwidth.
  [[nodiscard]] double link_bandwidth(const std::string& zone_a,
                                      const std::string& zone_b) const
      noexcept;

  /// Samples the delivery delay for a message of `bytes` from -> to:
  /// the zone's loopback model when both are the same host, else the
  /// link between their zones (throws not_found when there is none).
  [[nodiscard]] Duration sample_delay(HostIndex from, HostIndex to,
                                      std::size_t bytes);

  /// Schedules `on_arrival` after the sampled delivery delay.
  void deliver(HostIndex from, HostIndex to, std::size_t bytes,
               EventLoop::Callback on_arrival);

  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return messages_;
  }
  [[nodiscard]] std::uint64_t bytes_delivered() const noexcept {
    return bytes_;
  }

 private:
  using ZoneIndex = std::uint32_t;

  struct Host {
    HostId name;
    ZoneIndex zone = 0;
  };

  /// One row of the zone x zone link table.
  struct Zone {
    std::string name;
    std::optional<LinkModel> loopback;
    /// Link model to each zone, by that zone's index; a row is as long
    /// as the highest index linked from it.
    std::vector<std::optional<LinkModel>> links;
  };

  /// Index of `zone`, added to the table when new.
  ZoneIndex zone_index(const std::string& zone);
  [[nodiscard]] const LinkModel* find_link(ZoneIndex a, ZoneIndex b) const
      noexcept;

  EventLoop& loop_;
  common::Rng rng_;
  std::vector<Host> hosts_;
  std::unordered_map<HostId, HostIndex> host_index_;
  std::vector<Zone> zones_;
  std::unordered_map<std::string, ZoneIndex> zone_index_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace ripple::sim
