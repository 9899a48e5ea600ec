// Calls into the library's layers, shared by the workloads, plus the
// interleaved row-wise / cluster-wise timing loop of the batch workloads.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"

namespace pb {

/// Preprocess `a` (reorder -> cluster -> clustered format) with the
/// library's own `Pipeline` constructor, under a "setup" span when traced.
std::shared_ptr<const cw::Pipeline> prepare(const cw::Csr& a,
                                            const cw::PipelineOptions& opt);

/// Seconds each of probe_preprocess's layers took: reorder.s, cluster.s
/// (clustering plus its permute) and format.s.
struct PreprocessSeconds {
  double reorder = 0, cluster = 0, format = 0;
  PreprocessSeconds& operator+=(const PreprocessSeconds& o) {
    reorder += o.reorder;
    cluster += o.cluster;
    format += o.format;
    return *this;
  }
};

/// Traced runs only (returns zeros otherwise): call the public preprocessing
/// steps `Pipeline` is built from one at a time on `a` (reorder,
/// permute_symmetric, hierarchical_clustering, CsrCluster::build) under the
/// spans "reorder", "cluster", "cluster.permute" and "format", so each layer
/// gets its own time. The served pipeline `built` always comes from
/// prepare(); when the steps no longer rebuild its matrix and order (the
/// constructor changed), a warning goes to stderr and the result file's
/// `layer_probe.drift` is set to 1: these spans then no longer explain the
/// constructor's time.
PreprocessSeconds probe_preprocess(const cw::Csr& a, const cw::PipelineOptions& opt,
                                   const cw::Pipeline& built, Result& r);

/// One matrix's pair of operations in a batch workload. Each callable runs
/// its operation once, returns the milliseconds the operation took, and
/// checks the product it made (outside the timed interval).
struct AbCase {
  std::string name;
  bool skewed = false;  // member of the skewed/uniform group
  std::function<double()> rw;
  std::function<double()> cw;
};

/// Samples of run_ab (or of serve_mix's service slices), tagged with the
/// window of the run they fell in.
struct AbSamples {
  static constexpr int kWindows = 4;
  std::vector<std::vector<double>> rw, cw;  // [case][pair] milliseconds
  std::vector<std::vector<int>> window;     // [case][pair] window index
  std::size_t rounds = 0;

  /// Quantile `q` of one case's samples in the run's quietest window
  /// (quietest_quantile, windows with at least 3 samples).
  [[nodiscard]] double estimate(bool cw_variant, std::size_t c, double q) const;
};

/// Warm up (one untimed call per case and variant), then run rounds until
/// `seconds` have passed (at least `min_rounds`). A round gives every case
/// about equal time: a case runs as many A/B pairs as fit in the slowest
/// case's pair (at most 16), alternating which variant goes first so drift
/// hits both.
AbSamples run_ab(const std::vector<AbCase>& cases, double seconds, int min_rounds);

/// Report the end-to-end metrics of a batch workload from its samples:
/// cw_ms / rw_ms (primary group), cw_skew_ms / rw_skew_ms (skewed group),
/// p50_ms / p99_ms (geomean over every case of its cluster-wise median and
/// 99th percentile), sat_rps (cluster-wise calls per second, one per case at median speed).
/// Also records per-case medians.
void report_ab(Result& r, const std::vector<AbCase>& cases, const AbSamples& s);

/// Geomean over a group of per-case medians (AbSamples::estimate).
double group_ms(const std::vector<AbCase>& cases, const AbSamples& s, bool cw_variant,
                bool skewed);

/// Report every per-layer metric the workload did not exercise as 0, so each
/// traced run prints the full table.
void fill_unexercised_layers(Result& r);

/// The per-layer metrics every traced run shares: failure counts by code,
/// fail_frac, tracing overhead and the unattributed share.
void report_common_layers(Result& r);

}  // namespace pb
