#include "ripple/common/ids.hpp"

#include "ripple/common/strutil.hpp"

namespace ripple::common {
namespace {

/// Counter digits in a uid ("task.000042"); larger counters keep all of
/// theirs.
constexpr int kDigits = 6;

}  // namespace

std::string IdGenerator::next(const std::string& prefix) {
  const std::uint64_t n = counters_[prefix]++;
  // One buffer sized for the usual six digits; a short uid such as
  // "msg.000042" fits the small-string buffer and allocates nothing.
  std::string uid;
  uid.reserve(prefix.size() + 1 + kDigits);
  uid += prefix;
  uid += '.';
  uid += strutil::zero_pad(n, kDigits);
  return uid;
}

std::uint64_t IdGenerator::count(const std::string& prefix) const {
  const auto it = counters_.find(prefix);
  return it == counters_.end() ? 0 : it->second;
}

void IdGenerator::reset() { counters_.clear(); }

}  // namespace ripple::common
