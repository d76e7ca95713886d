/// \file env_test.cpp
/// The strict on/off environment switches (support/env.hpp): unset, "0"
/// and "1" are the only accepted values, and both switch sites —
/// TLB_AUDIT (support/check.cpp) and TLB_TELEMETRY (obs/telemetry.cpp) —
/// end the process on anything else instead of reading it as "on".

#include "support/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/telemetry.hpp"
#include "support/check.hpp"

namespace tlb {
namespace {

TEST(EnvSwitch, AcceptsUnsetZeroAndOne) {
  char const* const name = "TLB_ENV_SWITCH_TEST";
  ::unsetenv(name);
  EXPECT_TRUE(env_switch(name, true));
  EXPECT_FALSE(env_switch(name, false));
  ::setenv(name, "0", 1);
  EXPECT_FALSE(env_switch(name, true));
  ::setenv(name, "1", 1);
  EXPECT_TRUE(env_switch(name, false));
  ::unsetenv(name);
}

// Both sites cache the switch on first use, so the death tests re-execute
// the binary ("threadsafe" style) to get a process that has not read it.

TEST(EnvSwitchDeathTest, MalformedTlbAuditExits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("TLB_AUDIT", "false", 1);
        (void)audit::enabled();
      },
      ::testing::ExitedWithCode(2), "TLB_AUDIT=\"false\" is invalid");
}

TEST(EnvSwitchDeathTest, MalformedTlbTelemetryExits) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("TLB_TELEMETRY", "off", 1);
        (void)obs::enabled();
      },
      ::testing::ExitedWithCode(2), "TLB_TELEMETRY=\"off\" is invalid");
}

} // namespace
} // namespace tlb
