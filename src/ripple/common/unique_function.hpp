#pragma once

/// \file unique_function.hpp
/// Small-buffer-optimized, move-only callable.
///
/// A `std::function<void()>`'s copyability forces a heap allocation for
/// any capture larger than the implementation's tiny inline buffer
/// (typically 16-24 bytes — less than `this` plus one uid string). The
/// event loop pays that cost at scale: millions of grant callbacks,
/// pub/sub deliveries and reply dispatches per run.
///
/// UniqueFunction is move-only, so a capture only needs to be movable,
/// and it reserves enough inline storage for the common "component
/// pointer + a couple of uids" closure shape. Larger captures fall back
/// to the heap transparently. Its one user is `sim::EventLoop`, whose
/// `Callback` is this type.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ripple::common {

class UniqueFunction {
 public:
  /// Inline capture budget. 64 bytes holds `this` plus two
  /// `std::string` uids (or one string and a couple of scalars), which
  /// covers the runtime's hot callbacks; bigger closures heap-allocate.
  static constexpr std::size_t inline_capacity = 64;

  UniqueFunction() noexcept = default;
  UniqueFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  UniqueFunction(F&& f) {  // NOLINT(runtime/explicit)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= inline_capacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move the callable from `from` into `to` and destroy the source.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* storage) { (*std::launder(static_cast<Fn*>(storage)))(); },
      [](void* from, void* to) noexcept {
        Fn* source = std::launder(static_cast<Fn*>(from));
        ::new (to) Fn(std::move(*source));
        source->~Fn();
      },
      [](void* storage) noexcept {
        std::launder(static_cast<Fn*>(storage))->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops heap_ops = {
      [](void* storage) { (**std::launder(static_cast<Fn**>(storage)))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(*std::launder(static_cast<Fn**>(from)));
      },
      [](void* storage) noexcept {
        delete *std::launder(static_cast<Fn**>(storage));
      }};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[inline_capacity];
  const Ops* ops_ = nullptr;
};

}  // namespace ripple::common
