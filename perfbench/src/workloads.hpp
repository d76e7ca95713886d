#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each runs untraced (end-to-end metrics) or
/// traced (per-layer metrics) as `args.trace` selects, repeats its unit of
/// work until `args.seconds` is spent, checks the program's outputs, and
/// returns the filled report.

#include "harness.hpp"

namespace perfbench {

/// PicApp::run with Fig. 2's TemperedLB configuration at 1024 ranks.
[[nodiscard]] Report run_pic_bdot(Args const& args);

/// The drifting-hotspot phase loop; `chaos` installs the chaos fault
/// profile and the costbenefit policy (lb-chaos), otherwise every phase
/// balances (lb-hotspot).
[[nodiscard]] Report run_lb_phases(Args const& args, bool chaos);

/// lbaf::run_experiment on the §V-B/E2 instance.
[[nodiscard]] Report run_lbaf_e2(Args const& args);

/// The seconds each segment of a traced run gets: half untraced, half
/// traced.
[[nodiscard]] inline double traced_segment_s(Args const& args) {
  return 0.5 * args.seconds;
}

} // namespace perfbench
