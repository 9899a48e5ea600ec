// Shared plumbing of the benchmark program: run arguments, the metric sink
// every workload fills, order statistics, seeded inputs and the environment
// block. Nothing here calls into the library's timed layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "matrix/csr.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }


/// Everything a workload receives: the seed, the measuring time, whether the
/// traced run is asked for, and the workload's fixed parameters (from
/// perfbench/workloads.json, passed as key=value).
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the result file and span dump are written
  std::map<std::string, std::string> params;

  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const;
};

/// Per-run sink. `metric` records one reported value; `detail` records an
/// unreported figure that only goes to the result file (per-matrix values,
/// generator lateness, ...). `check` records one verified operation.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& name, double value);
  void check(bool ok, const std::string& what);
  void fail(const std::string& code);  // an operation failed before a check
  void attempted(std::uint64_t n) { attempted_ += n; }
  [[nodiscard]] bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  [[nodiscard]] double value(const std::string& name) const { return metrics_.at(name).value; }
  [[nodiscard]] const std::string& unit(const std::string& name) const {
    return metrics_.at(name).unit;
  }
  /// Add another run's checks (attempted, mismatches, failures) to this one.
  void merge_checks(const Result& other);

  [[nodiscard]] bool correct() const { return mismatches_ == 0; }
  [[nodiscard]] std::uint64_t attempted_count() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed_count() const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& failures() const {
    return failures_;
  }

  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string summary_json() const;
  /// The result file: summary plus details, failures and the environment.
  [[nodiscard]] std::string full_json(const std::string& env_json) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::map<std::string, double> details_;
  std::map<std::string, std::uint64_t> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t mismatches_ = 0;
};

// --- order statistics --------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/// Quantile `q` of `v` in the quietest window: `window[k]` (0..windows-1)
/// says which equal slice of the run sample k fell in, and the lowest of
/// the slices' quantiles is returned, over slices with at least `min_count`
/// samples (the whole-run quantile when none has). Other tenants of a
/// shared host slow memory-bound work by 20-40% for seconds at a time; a
/// whole-run figure moves with how much of the run such an episode covered,
/// the quietest slice's does not.
double quietest_quantile(const std::vector<double>& v, const std::vector<int>& window,
                         int windows, double q, std::size_t min_count);

// --- inputs -------------------------------------------------------------------

/// Build the named matrix of the generated suite (the small-scale recipes of
/// gen/suite.cpp) with every random choice drawn from `seed`, and give it
/// random values in [0.5, 1.5). Throws cw::Error for an unknown name.
cw::Csr make_matrix(const std::string& name, std::uint64_t seed);

/// 64-bit digest of a matrix's shape, pattern and value bits: equal digests
/// stand for bit-identical products without keeping a reference copy.
std::uint64_t digest(const cw::Csr& c);

/// Derive an independent sub-seed (splitmix64 of seed and a salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- process counters -----------------------------------------------------------

struct OsCounters {
  double minflt = 0, majflt = 0, nvcsw = 0, nivcsw = 0;
};
OsCounters os_counters();  // getrusage(RUSAGE_SELF)
double peak_rss_mb();

/// The environment block written beside every result: CPU model, cores,
/// cache sizes, SIMD tier, OpenMP threads, build type, source revision,
/// workload and seed.
std::string environment_json(const RunArgs& args);
bool release_build();

/// Record the workload's per-layer OS counters from a before/after pair.
void report_os_counters(Result& r, const OsCounters& before, const OsCounters& after);

/// One number as JSON (finite, full precision).
std::string json_number(double v);

}  // namespace pb
