#pragma once

/// \file hash.hpp
/// FNV-1a — the house fingerprint for determinism oracles.
///
/// Every subsystem that promises bit-reproducible behavior exposes a
/// rolling FNV-1a hash over its observable event stream (grant order,
/// transfer completions, batch traces). Suites and ablation benches
/// compare fingerprints across same-seed runs, so a determinism
/// regression fails loudly instead of drifting silently.

#include <cstdint>
#include <string_view>

namespace ripple::common {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds `text` into a running FNV-1a hash.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t hash,
                                         std::string_view text) noexcept {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds an integer (its 8 little-endian bytes) into a running hash.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t hash,
                                         std::uint64_t value) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (value >> shift) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace ripple::common
