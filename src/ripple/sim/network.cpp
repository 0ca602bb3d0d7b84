#include "ripple/sim/network.hpp"

#include <algorithm>

#include "ripple/common/error.hpp"

namespace ripple::sim {

Duration LinkModel::sample_delay(common::Rng& rng, std::size_t bytes) const {
  Duration delay = latency.sample(rng);
  if (bandwidth_bytes_per_s > 0.0 && bytes > 0) {
    delay += static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
  return delay;
}

Network::Network(EventLoop& loop, common::Rng rng)
    : loop_(loop), rng_(rng) {}

void Network::add_zone(const std::string& zone) {
  ensure(!zone.empty(), Errc::invalid_argument, "zone name must not be empty");
  // Zones materialize lazily through links and hosts; nothing to store.
  (void)zone;
}

void Network::register_host(const HostId& host, const std::string& zone) {
  ensure(!host.empty(), Errc::invalid_argument, "host id must not be empty");
  ensure(!zone.empty(), Errc::invalid_argument, "zone name must not be empty");
  host_zone_[host] = zone;
}

bool Network::has_host(const HostId& host) const {
  return host_zone_.count(host) != 0;
}

const std::string& Network::zone_of(const HostId& host) const {
  const auto it = host_zone_.find(host);
  ensure(it != host_zone_.end(), Errc::not_found, "unknown host '", host, "'");
  return it->second;
}

void Network::set_link(const std::string& zone_a, const std::string& zone_b,
                       LinkModel link) {
  auto key = std::minmax(zone_a, zone_b);
  links_[{key.first, key.second}] = link;
}

const LinkModel& Network::link_between(const std::string& zone_a,
                                       const std::string& zone_b) const {
  auto key = std::minmax(zone_a, zone_b);
  const auto it = links_.find({key.first, key.second});
  ensure(it != links_.end(), Errc::not_found, "no link model between zones '",
         zone_a, "' and '", zone_b, "'");
  return it->second;
}

double Network::link_bandwidth(const std::string& zone_a,
                               const std::string& zone_b) const noexcept {
  const auto key = std::minmax(zone_a, zone_b);
  const auto it = links_.find({key.first, key.second});
  return it == links_.end() ? 0.0 : it->second.bandwidth_bytes_per_s;
}

Duration Network::sample_delay(const HostId& from, const HostId& to,
                               std::size_t bytes) {
  Duration delay = 0.0;
  std::string label;
  if (from == to) {
    const auto zone = host_zone_.find(from);
    const auto zone_model =
        zone != host_zone_.end() ? zone_loopback_.find(zone->second)
                                 : zone_loopback_.end();
    if (zone_model != zone_loopback_.end()) {
      delay = zone_model->second.sample_delay(rng_, bytes);
    } else {
      static const LinkModel kLoopback{common::Distribution::constant(1e-6)};
      delay = kLoopback.sample_delay(rng_, bytes);
    }
    label = "loopback";
  } else {
    const std::string& zone_from = zone_of(from);
    const std::string& zone_to = zone_of(to);
    delay = link_between(zone_from, zone_to).sample_delay(rng_, bytes);
    label = zone_from + "->" + zone_to;
  }
  delay_stats_[label].add(delay);
  return delay;
}

void Network::deliver(const HostId& from, const HostId& to, std::size_t bytes,
                      EventLoop::Callback on_arrival) {
  const Duration delay = sample_delay(from, to, bytes);
  ++messages_;
  bytes_ += bytes;
  loop_.call_after(delay, std::move(on_arrival));
}

}  // namespace ripple::sim
