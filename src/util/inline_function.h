// Move-only callable wrapper with fixed inline storage. Unlike
// std::function it never allocates: a callable larger than `Capacity`
// bytes (or over-aligned, or with a throwing move) is a compile error, so
// a capture that would have moved to the heap is caught where it is
// written. Used for the virtual-time event loop's timers, whose closures
// re-arm on every firing.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace nees::util {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFunction> &&
             std::is_invocable_r_v<R, std::decay_t<F>&, Args...>)
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable does not fit the inline storage: capture less "
                  "(ids or pointers instead of strings or shared_ptrs)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "callable is over-aligned for the inline storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callable must be nothrow move constructible");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* self, Args&&... args) -> R {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    };
    relocate_ = [](void* from, void* to) noexcept {
      Fn* source = static_cast<Fn*>(from);
      if (to != nullptr) ::new (to) Fn(std::move(*source));
      source->~Fn();
    };
  }

  InlineFunction(InlineFunction&& other) noexcept { TakeFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      TakeFrom(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { Reset(); }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

 private:
  void Reset() noexcept {
    if (relocate_ != nullptr) relocate_(storage_, nullptr);
    invoke_ = nullptr;
    relocate_ = nullptr;
  }
  void TakeFrom(InlineFunction& other) noexcept {
    if (other.relocate_ == nullptr) return;
    other.relocate_(other.storage_, storage_);
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  R (*invoke_)(void*, Args&&...) = nullptr;
  // Moves the callable to `to` and destroys the source; destroys only
  // when `to` is null.
  void (*relocate_)(void* from, void* to) noexcept = nullptr;
};

}  // namespace nees::util
