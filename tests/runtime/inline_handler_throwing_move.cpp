/// \file inline_handler_throwing_move.cpp
/// Must not compile: a small closure whose move constructor may throw.
/// Envelopes relocate closures inside noexcept moves, so InlineHandler's
/// nothrow-move static_assert rejects it. The
/// inline_handler_throwing_move_closure_rejected ctest builds this file and
/// passes only when that assertion is the error reported.

#include "runtime/inline_handler.hpp"

namespace {

struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove const&) = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
};

} // namespace

int main() {
  // Not const: a const capture would be moved through its nothrow copy.
  ThrowingMove payload;
  tlb::rt::InlineHandler handler{
      [payload](tlb::rt::RankContext&) { (void)payload; }};
  return handler ? 0 : 1;
}
