#pragma once

/// \file zone_names.hpp
/// The zone interner shared by the data plane's dense tables.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ripple::data {

/// Zone names in first-mention order; a zone's id is its position, so
/// an owner keeps its per-zone rows (the catalog's stores, the engine's
/// link rows) in a vector indexed in parallel. Zones are few (one per
/// platform and data site), so lookup scans the names.
class ZoneNames {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = std::numeric_limits<Id>::max();

  /// The id of `zone`, or kNone.
  [[nodiscard]] Id find(const std::string& zone) const {
    for (std::size_t z = 0; z < names_.size(); ++z) {
      if (names_[z] == zone) return static_cast<Id>(z);
    }
    return kNone;
  }

  /// find() that appends an unknown zone; its id is then size() - 1.
  [[nodiscard]] Id intern(const std::string& zone) {
    const Id found = find(zone);
    if (found != kNone) return found;
    names_.push_back(zone);
    return static_cast<Id>(names_.size() - 1);
  }

  [[nodiscard]] const std::string& name(Id id) const { return names_[id]; }
  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

 private:
  std::vector<std::string> names_;
};

}  // namespace ripple::data
