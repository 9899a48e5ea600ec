#include "layers.hpp"

#include <algorithm>
#include <cstdio>

#include "core/clustering_schemes.hpp"
#include "fault/status.hpp"
#include "reorder/reorder.hpp"
#include "trace.hpp"

namespace pb {

using namespace cw;

std::shared_ptr<const Pipeline> prepare(const Csr& a, const PipelineOptions& opt) {
  const Span s("setup");
  return std::make_shared<const Pipeline>(a, opt);
}

PreprocessSeconds probe_preprocess(const Csr& a, const PipelineOptions& opt,
                                   const Pipeline& built, Result& r) {
  PreprocessSeconds out;
  if (!tracer().enabled()) return out;
  CW_CHECK_MSG(opt.scheme == ClusterScheme::kHierarchical,
               "perfbench: the layer probe covers the hierarchical scheme only");
  Clock::time_point t0 = Clock::now();
  Permutation order;
  Csr a1;
  {
    const Span s("reorder");
    order = reorder(a, opt.reorder, opt.reorder_opt);
    if (opt.reorder != ReorderAlgo::kOriginal) a1 = a.permute_symmetric(order);
  }
  out.reorder = ms_since(t0) / 1e3;
  t0 = Clock::now();
  const Csr& src = opt.reorder != ReorderAlgo::kOriginal ? a1 : a;
  HierarchicalResult h;
  {
    const Span s("cluster");
    h = hierarchical_clustering(src, opt.hierarchical_opt);
  }
  Csr a2;
  {
    const Span s("cluster.permute");
    a2 = src.permute_symmetric(h.order);
  }
  out.cluster = ms_since(t0) / 1e3;
  t0 = Clock::now();
  {
    const Span s("format");
    (void)CsrCluster::build(a2, h.clustering);
  }
  out.format = ms_since(t0) / 1e3;
  bool same = digest(a2) == digest(built.matrix()) && order.size() == built.order().size();
  for (std::size_t i = 0; same && i < order.size(); ++i)
    same = order[static_cast<std::size_t>(h.order[i])] == built.order()[i];
  if (!same) {
    std::fprintf(stderr,
                 "perfbench: WARNING: the layer probe's steps no longer rebuild the "
                 "Pipeline constructor's matrix and order; reorder.s / cluster.s / "
                 "format.s do not explain setup_s\n");
    r.detail("layer_probe.drift", 1);
  }
  return out;
}

AbSamples run_ab(const std::vector<AbCase>& cases, double seconds, int min_rounds) {
  // Warm-up, which also sizes each case's share of a round: fast cases run
  // several A/B pairs per round so every case gets about equal time and the
  // fast ones enough samples for a steady median.
  std::vector<double> warm_ms;
  for (const AbCase& c : cases) warm_ms.push_back(c.rw() + c.cw());
  const double slowest = *std::max_element(warm_ms.begin(), warm_ms.end());
  std::vector<int> pairs;
  for (double w : warm_ms)
    pairs.push_back(std::clamp(static_cast<int>(slowest / std::max(w, 1e-3)), 1, 16));
  AbSamples s;
  s.rw.resize(cases.size());
  s.cw.resize(cases.size());
  s.window.resize(cases.size());
  const double window_ms = seconds * 1e3 / AbSamples::kWindows;
  const Clock::time_point start = Clock::now();
  std::size_t flip = 0;
  for (int round = 0; round < min_rounds || ms_since(start) < seconds * 1e3; ++round) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      for (int k = 0; k < pairs[i]; ++k, ++flip) {
        s.window[i].push_back(
            std::min(static_cast<int>(ms_since(start) / window_ms), AbSamples::kWindows - 1));
        if (flip % 2 == 0) {
          s.rw[i].push_back(cases[i].rw());
          s.cw[i].push_back(cases[i].cw());
        } else {
          s.cw[i].push_back(cases[i].cw());
          s.rw[i].push_back(cases[i].rw());
        }
      }
    }
    ++s.rounds;
  }
  return s;
}

double AbSamples::estimate(bool cw_variant, std::size_t c, double q) const {
  return quietest_quantile(cw_variant ? cw[c] : rw[c], window[c], kWindows, q, 3);
}

double group_ms(const std::vector<AbCase>& cases, const AbSamples& s, bool cw_variant,
                bool skewed) {
  std::vector<double> meds;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].skewed == skewed) meds.push_back(s.estimate(cw_variant, i, 0.5));
  }
  return geomean(meds);
}

void report_ab(Result& r, const std::vector<AbCase>& cases, const AbSamples& s) {
  std::vector<double> p50, p99;
  double median_sum_s = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const double rw = s.estimate(false, i, 0.5), cw = s.estimate(true, i, 0.5);
    r.detail("rw_ms." + cases[i].name, rw);
    r.detail("cw_ms." + cases[i].name, cw);
    std::fprintf(stderr,
                 "  %-20s rw %9.3f ms  cw %9.3f ms  speedup %.3fx  (%zu reps; whole-run "
                 "medians rw %.3f cw %.3f)\n",
                 cases[i].name.c_str(), rw, cw, rw / cw, s.cw[i].size(), median(s.rw[i]),
                 median(s.cw[i]));
    p50.push_back(cw);
    p99.push_back(s.estimate(true, i, 0.99));
    median_sum_s += cw / 1e3;
  }
  r.metric("cw_ms", group_ms(cases, s, true, false), "ms");
  r.metric("rw_ms", group_ms(cases, s, false, false), "ms");
  r.metric("cw_skew_ms", group_ms(cases, s, true, true), "ms");
  r.metric("rw_skew_ms", group_ms(cases, s, false, true), "ms");
  r.metric("p50_ms", geomean(p50), "ms");
  r.metric("p99_ms", geomean(p99), "ms");
  // One cluster-wise call per case, back to back, at the median speed.
  r.metric("sat_rps", static_cast<double>(cases.size()) / median_sum_s, "1/s");
  r.detail("rounds", static_cast<double>(s.rounds));
}

void fill_unexercised_layers(Result& r) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"reorder.s", "s"}, {"cluster.s", "s"}, {"cluster.count", "count"},
      {"format.s", "s"}, {"format.mem_ratio", "ratio"},
      {"rw.symbolic_ms", "ms"}, {"rw.numeric_ms", "ms"},
      {"cw.symbolic_ms", "ms"}, {"cw.numeric_ms", "ms"},
      {"products", "count"}, {"output_nnz", "count"}, {"compression", "ratio"},
      {"compression_skew", "ratio"}, {"rw.b_fetch", "count"}, {"cw.b_fetch", "count"},
      {"fetch_ratio", "ratio"}, {"fetch_ratio_skew", "ratio"},
      {"pipe.permute_b_ms", "ms"}, {"pipe.kernel_ms", "ms"}, {"pipe.unpermute_ms", "ms"},
      {"speedup.gm", "x"}, {"speedup.skew_gm", "x"}, {"amortize.iters", "count"},
      {"serve.submit_us", "us"}, {"serve.service_ms", "ms"}, {"serve.wait_ms", "ms"},
      {"serve.batch_reqs", "count"}, {"serve.stacked_ms", "ms"},
      {"serve.unstacked_ms", "ms"}, {"slo_frac", "ratio"},
      {"gen.late_p99_ms", "ms"}, {"gen.late_max_ms", "ms"},
      {"registry.hit_frac", "ratio"}, {"registry.admit_ms", "ms"},
      {"registry.evictions", "count"}, {"shard.max_ms", "ms"},
      {"shard.imbalance", "ratio"}, {"io.cold_multiplies", "count"},
      {"io.resident_mb", "MB"}, {"gov.released_mb", "MB"}, {"load.s", "s"},
  };
  for (const auto& [name, unit] : kLayers) {
    if (!r.has(name)) r.metric(name, 0, unit);
  }
}

void report_common_layers(Result& r) {
  for (std::size_t c = 1; c < fault::kNumErrorCodes; ++c) {
    const std::string code = fault::code_label(static_cast<fault::ErrorCode>(c));
    const auto it = r.failures().find(code);
    r.metric("fail." + code,
             it == r.failures().end() ? 0 : static_cast<double>(it->second), "count");
  }
  const auto mm = r.failures().find("mismatch");
  r.metric("fail.mismatch", mm == r.failures().end() ? 0 : static_cast<double>(mm->second),
           "count");
  r.metric("fail_frac",
           r.attempted_count() > 0 ? static_cast<double>(r.failed_count()) /
                                         static_cast<double>(r.attempted_count())
                                   : 0,
           "ratio");
  const Tracer& t = tracer();
  r.metric("trace.overhead_pct", t.overhead_pct(), "%");
  r.metric("trace.unattributed_pct",
           t.phase_ms() > 0 ? 100.0 * t.unattributed_ms() / t.phase_ms() : 0, "%");
}

}  // namespace pb
