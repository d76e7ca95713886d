#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    std::string const flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument{"missing value for " + flag};
    }
    std::string const value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument{"--trace takes 0 or 1"};
      }
      args.trace = value == "1";
    } else {
      throw std::invalid_argument{"unknown flag " + flag};
    }
  }
  if (!have_workload) {
    throw std::invalid_argument{"--workload is required"};
  }
  if (!(args.seconds > 0.0)) {
    throw std::invalid_argument{"--seconds must be positive"};
  }
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  auto const mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(mid),
                   values.end());
  double const upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  double const lower =
      *std::max_element(values.begin(), values.begin() + static_cast<long>(mid));
  return 0.5 * (lower + upper);
}

double mean(std::vector<double> const& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_percentile(std::vector<double> values) {
  Tail out;
  std::size_t const n = values.size();
  if (n < 11) {
    return out;
  }
  std::sort(values.begin(), values.end());
  out.value = values[n - 11];
  out.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  out.samples = n;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

int repeat_units(double budget_s, int min_units,
                 std::function<double()> const& unit) {
  auto const start = Clock::now();
  int done = 0;
  double last = 0.0;
  while (done < min_units || seconds_since(start) + last <= budget_s) {
    last = unit();
    ++done;
  }
  return done;
}

double SetupSampler::batch() {
  auto const start = Clock::now();
  for (int i = 0; i < 3 || seconds_since(start) < batch_s_; ++i) {
    samples_.push_back(timed(construct_));
  }
  return seconds_since(start);
}

namespace {

/// Where reference_kernel() leaves its result, so that its work is kept.
volatile double reference_sink = 0.0;

} // namespace

double reference_kernel() {
  // 2000 small vectors grown one element at a time, gathered into one and
  // sorted: malloc- and branch-heavy integer work like most of the
  // workloads'. A fixed linear-congruential stream fills them, so every
  // call does the same work.
  return timed([] {
    std::vector<std::vector<double>> parts(2000);
    std::uint64_t x = 1;
    for (std::vector<double>& part : parts) {
      for (int k = 0; k < 16; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        part.push_back(static_cast<double>(x >> 11));
      }
    }
    std::vector<double> all;
    for (std::vector<double> const& part : parts) {
      all.insert(all.end(), part.begin(), part.end());
    }
    std::sort(all.begin(), all.end());
    reference_sink = all[all.size() / 2];
  });
}

HostReference::HostReference() {
  thread_ = std::thread{[this] {
    std::unique_lock<std::mutex> lock{mutex_};
    while (!wake_.wait_for(lock, std::chrono::milliseconds{50},
                           [this] { return stop_; })) {
      lock.unlock();
      double const seconds = reference_kernel();
      lock.lock();
      samples_.push_back(seconds);
    }
  }};
}

HostReference::~HostReference() {
  {
    std::lock_guard<std::mutex> const lock{mutex_};
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

double HostReference::median_ms() const {
  std::lock_guard<std::mutex> const lock{mutex_};
  return 1e3 * median(samples_);
}

void Report::metric(std::string const& name, double value) {
  if (!std::isfinite(value)) {
    violation("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = value;
}

void Report::not_called(std::initializer_list<char const*> names) {
  for (char const* name : names) {
    metric(name, 0.0);
  }
}

void Report::violation(std::string const& what) {
  std::cerr << "perfbench: check failed: " << what << "\n";
  violations_.push_back(what);
}

void Report::print_json(std::ostream& os) const {
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (auto const& [name, value] : metrics_) {
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", value);
    os << (first ? "" : ", ") << "\"" << name << "\": " << text;
    first = false;
  }
  os << "}}\n";
}

} // namespace perfbench
