/// \file main.cpp
/// tlb_perfbench: run one benchmark workload and print its result as the
/// last line of standard output.
///
///   tlb_perfbench --workload <pic-bdot|lb-hotspot|lb-chaos|lbaf-e2>
///                 --seed <n> --seconds <s> --trace <0|1>

#include <exception>
#include <iostream>

#include "harness.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Args const args = parse_args(argc, argv);
    Report report;
    if (args.workload == "pic-bdot") {
      report = run_pic_bdot(args);
    } else if (args.workload == "lb-hotspot") {
      report = run_lb_phases(args, false);
    } else if (args.workload == "lb-chaos") {
      report = run_lb_phases(args, true);
    } else if (args.workload == "lbaf-e2") {
      report = run_lbaf_e2(args);
    } else {
      std::cerr << "tlb_perfbench: unknown workload " << args.workload
                << "\n";
      return 2;
    }
    report.print_json(std::cout);
    return 0;
  } catch (std::exception const& e) {
    std::cerr << "tlb_perfbench: " << e.what() << "\n";
    return 2;
  }
}
