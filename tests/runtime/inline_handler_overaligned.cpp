/// \file inline_handler_overaligned.cpp
/// Must not compile: a closure that fits InlineHandler's inline buffer by
/// size but needs 16-byte alignment, more than the buffer's 8. InlineHandler
/// has no heap fallback, so its alignment static_assert rejects the
/// closure. The inline_handler_overaligned_closure_rejected ctest builds
/// this file and passes only when that assertion is the error reported.

#include "runtime/inline_handler.hpp"

namespace {

struct alignas(16) Wide {
  double lanes[2] = {};
};

} // namespace

int main() {
  Wide const wide;
  tlb::rt::InlineHandler handler{
      [wide](tlb::rt::RankContext&) { (void)wide; }};
  return handler ? 0 : 1;
}
