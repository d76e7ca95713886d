#include "support/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tlb {

bool env_switch(char const* name, bool unset) {
  char const* const v = std::getenv(name);
  if (v == nullptr) {
    return unset;
  }
  if (std::strcmp(v, "0") == 0) {
    return false;
  }
  if (std::strcmp(v, "1") == 0) {
    return true;
  }
  std::fprintf(stderr, "tlb: environment variable %s=\"%s\" is invalid: "
                       "expected 0 or 1\n", name, v);
  // _Exit, not exit: the first query may come from a worker thread, and
  // running static destructors under live threads is unsafe.
  std::_Exit(2);
}

} // namespace tlb
