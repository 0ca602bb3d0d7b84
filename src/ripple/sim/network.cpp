#include "ripple/sim/network.hpp"

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

Network::ZoneIndex Network::zone_index(const std::string& zone) {
  ensure(!zone.empty(), Errc::invalid_argument, "zone name must not be empty");
  const auto [it, fresh] =
      zone_index_.try_emplace(zone, static_cast<ZoneIndex>(zones_.size()));
  if (fresh) zones_.push_back(Zone{zone, std::nullopt, {}});
  return it->second;
}

HostIndex Network::register_host(const HostId& host, const std::string& zone) {
  ensure(!host.empty(), Errc::invalid_argument, "host id must not be empty");
  const ZoneIndex zone_id = zone_index(zone);
  const auto [it, fresh] =
      host_index_.try_emplace(host, static_cast<HostIndex>(hosts_.size()));
  if (fresh) {
    hosts_.push_back(Host{host, zone_id});
  } else {
    hosts_[it->second].zone = zone_id;
  }
  return it->second;
}

bool Network::has_host(const HostId& host) const {
  return host_index_.count(host) != 0;
}

HostIndex Network::host_index(const HostId& host) const {
  const auto it = host_index_.find(host);
  ensure(it != host_index_.end(), Errc::not_found, "unknown host '", host, "'");
  return it->second;
}

const std::string& Network::zone_of(const HostId& host) const {
  return zones_[hosts_[host_index(host)].zone].name;
}

void Network::set_link(const std::string& zone_a, const std::string& zone_b,
                       LinkModel link) {
  const ZoneIndex a = zone_index(zone_a);
  const ZoneIndex b = zone_index(zone_b);
  for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    auto& row = zones_[from].links;
    if (row.size() <= to) row.resize(to + 1);
    row[to] = link;
  }
}

void Network::set_zone_loopback(const std::string& zone, LinkModel link) {
  zones_[zone_index(zone)].loopback = link;
}

const LinkModel* Network::find_link(ZoneIndex a, ZoneIndex b) const noexcept {
  const auto& row = zones_[a].links;
  return b < row.size() && row[b] ? &*row[b] : nullptr;
}

double Network::link_bandwidth(const std::string& zone_a,
                               const std::string& zone_b) const noexcept {
  const auto a = zone_index_.find(zone_a);
  const auto b = zone_index_.find(zone_b);
  if (a == zone_index_.end() || b == zone_index_.end()) return 0.0;
  const LinkModel* link = find_link(a->second, b->second);
  return link == nullptr ? 0.0 : link->bandwidth_bytes_per_s;
}

Duration Network::sample_delay(HostIndex from, HostIndex to,
                               std::size_t bytes) {
  const ZoneIndex zone_from = hosts_[from].zone;
  if (from == to) {
    static const LinkModel kLoopback{common::Distribution::constant(1e-6)};
    const auto& loopback = zones_[zone_from].loopback;
    return (loopback ? *loopback : kLoopback).sample_delay(rng_, bytes);
  }
  const ZoneIndex zone_to = hosts_[to].zone;
  const LinkModel* link = find_link(zone_from, zone_to);
  ensure(link != nullptr, Errc::not_found, "no link model between zones '",
         zones_[zone_from].name, "' and '", zones_[zone_to].name, "'");
  return link->sample_delay(rng_, bytes);
}

void Network::deliver(HostIndex from, HostIndex to, std::size_t bytes,
                      EventLoop::Callback on_arrival) {
  const Duration delay = sample_delay(from, to, bytes);
  ++messages_;
  bytes_ += bytes;
  loop_.call_after(delay, std::move(on_arrival));
}

}  // namespace ripple::sim
