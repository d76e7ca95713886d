#pragma once

/// \file env.hpp
/// Strict on/off switches read from the environment (TLB_TELEMETRY,
/// TLB_AUDIT). A switch is unset, "0" or "1"; anything else ("off",
/// "false", "yes", "") is a configuration error that ends the process
/// rather than being guessed at.

namespace tlb {

/// Value of the on/off environment variable `name`: `unset` when it is not
/// set, false for "0", true for "1". Any other value prints a message
/// naming the variable and its value to stderr and exits with status 2.
[[nodiscard]] bool env_switch(char const* name, bool unset);

} // namespace tlb
