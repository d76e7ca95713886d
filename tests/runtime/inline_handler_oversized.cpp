/// \file inline_handler_oversized.cpp
/// Must not compile: a closure one word larger than InlineHandler's inline
/// buffer. InlineHandler has no heap fallback, so its size static_assert
/// rejects the closure. The inline_handler_oversized_closure_rejected
/// ctest builds this file and passes only when that assertion is the
/// error reported.

#include "runtime/inline_handler.hpp"

namespace {

struct Oversized {
  char bytes[tlb::rt::InlineHandler::inline_capacity + 8] = {};
};

} // namespace

int main() {
  Oversized const big;
  tlb::rt::InlineHandler handler{
      [big](tlb::rt::RankContext&) { (void)big; }};
  return handler ? 0 : 1;
}
