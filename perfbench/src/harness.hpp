#pragma once

/// \file harness.hpp
/// Shared plumbing of the repository benchmark: command-line arguments,
/// wall-clock timing, order statistics, the unit-repetition loop, and the
/// result record printed as the run's final JSON line.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Time one call in seconds.
template <typename F> double timed(F&& fn) {
  auto const start = Clock::now();
  std::forward<F>(fn)();
  return seconds_since(start);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
/// Throws std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(std::vector<double> const& values);

/// The highest percentile with at least ten samples beyond it: with n
/// samples sorted ascending, the sample at index n - 11 (so exactly ten
/// lie above it) at percentile 100 * (n - 10) / n. Needs n >= 11;
/// `samples` is 0 when there are too few.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_percentile(std::vector<double> values);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Repeat `unit` (which returns its own measured seconds) until `budget_s`
/// is spent: at least `min_units` times, then again only while one more
/// unit of the last unit's length still fits. Returns the units run.
int repeat_units(double budget_s, int min_units,
                 std::function<double()> const& unit);

/// The setup_s measurement: back-to-back calls of `construct`, timed one
/// by one in batches spread over the run (one before the first unit and
/// one after each unit), so that the median covers the host's speed over
/// the whole run rather than over its first fraction of a second.
class SetupSampler {
public:
  /// Each batch times calls of `construct` for `batch_s` seconds, at
  /// least three calls.
  SetupSampler(std::function<void()> construct, double batch_s)
      : construct_{std::move(construct)}, batch_s_{batch_s} {}

  /// Run one batch; returns the seconds spent.
  double batch();
  [[nodiscard]] double median_s() const { return median(samples_); }

private:
  std::function<void()> construct_;
  double batch_s_;
  std::vector<double> samples_;
};

/// The host-speed reference. The shared host the benchmark was tuned on
/// runs in speed states that last minutes and stretch every timing of a
/// run, set-up included, by up to about 1.5 times, so no statistic inside
/// one run removes them. reference_kernel() is a fixed piece of
/// allocation-heavy work written here, in the benchmark. It calls nothing
/// in src/ and shares only the allocator (on lb-*, also the core and its
/// caches) with the program, so the host's state moves it and a change
/// to the program hardly does. The end-to-end timings are stated at the
/// reference speed: a raw host time times kReferenceMs over the run's
/// median kernel time (README, "Sizing and noise"). The raw times go to
/// standard error.
inline constexpr double kReferenceMs = 4.0;

/// Run the reference kernel once; returns its seconds.
double reference_kernel();

/// Samples the reference kernel every 50 ms on a second thread while it
/// lives, on one of the cores the single-threaded workload leaves idle:
/// the reference for work that runs as one long call (pic-bdot, lbaf-e2)
/// and cannot be interleaved with kernel calls.
class HostReference {
public:
  HostReference();
  ~HostReference();
  HostReference(HostReference const&) = delete;
  HostReference& operator=(HostReference const&) = delete;

  /// Median kernel time so far, in ms.
  [[nodiscard]] double median_ms() const;
  /// kReferenceMs over median_ms(): multiply a host time measured while
  /// this object lived by it to state the time at the reference speed.
  [[nodiscard]] double scale() const { return kReferenceMs / median_ms(); }

private:
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

/// One run's outcome: operation counts, correctness, and named metric
/// values. Units are attached from BENCHMARK.json by run.py, which also
/// rejects a result that lacks a metric of its mode.
class Report {
public:
  void metric(std::string const& name, double value);
  /// Record 0 for metrics of layers the workload never calls.
  void not_called(std::initializer_list<char const*> names);
  /// Count one operation, failed or not.
  void attempt(bool ok) {
    ++attempted_;
    failed_ += ok ? 0 : 1;
  }
  /// A check on the program's output did not hold: the run is incorrect.
  void violation(std::string const& what);

  [[nodiscard]] bool correct() const { return violations_.empty(); }
  /// The binary's result line: {"correct", "attempted", "failed",
  /// "metrics": {name: value}}.
  void print_json(std::ostream& os) const;

private:
  std::map<std::string, double> metrics_;
  std::vector<std::string> violations_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

} // namespace perfbench
