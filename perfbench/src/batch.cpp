// The paper's two multiply shapes.
//
//   square    A² on each matrix: hierarchical clustering in original order
//             (Pipeline::multiply_square) against row-wise spgemm(a, a).
//             The `square` workload.
//   frontier  BC forward frontiers A×F_1..A×F_k: GP reorder + hierarchical
//             clustering (Pipeline::multiply + unpermute_rows) against
//             row-wise spgemm(a, F_i) in original order. Run only at the end
//             of square's traced run, for the reorder / permute / unpermute
//             layers (its spread is too wide to gate; see README.md).
//
// Untraced runs report the end-to-end metrics; traced runs add spans around
// every layer call and a kernel probe that calls the kernels' symbolic and
// numeric entry points separately.
#include <algorithm>
#include <cstdio>

#include "core/clusterwise_spgemm.hpp"
#include "graph/frontier.hpp"
#include "layers.hpp"
#include "spgemm/spgemm.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

using namespace cw;

namespace {

constexpr double kTol = 1e-9;  // the test suite's approx_equal tolerance

struct Matrix {
  std::string name;
  bool skewed = false;
  Csr a;
  std::shared_ptr<const Pipeline> p;
  std::vector<Csr> frontiers;   // frontier workload only
  // Digests of the verified products, one per operation step: every timed
  // product must match them bit for bit.
  std::vector<std::uint64_t> rw_ref, cw_ref;
  double setup_ms = 0;          // last set-up round
};

/// Kernel figures for one matrix's operation (one product, or a whole
/// frontier series), each time a median over `reps`.
struct Probe {
  double rw_symbolic = 0, rw_full = 0, cw_symbolic = 0, cw_full = 0;
  double permute_b = 0, unpermute = 0;
  double products = 0, output_nnz = 0, rw_fetch = 0, cw_fetch = 0;
};

template <typename Fn>
double median_ms(int reps, const char* span, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const Span s(span);
    const Clock::time_point t0 = Clock::now();
    fn();
    v.push_back(ms_since(t0));
  }
  return median(v);
}

Probe probe_kernels(const Matrix& m, bool square, int reps) {
  const Pipeline& p = *m.p;
  const CsrCluster& cl = *p.clustered();
  std::vector<const Csr*> bs;         // B in original order
  std::vector<Csr> bs_perm;           // B as the cluster-wise kernel sees it
  if (square) {
    bs.push_back(&m.a);
    bs_perm.push_back(p.matrix());
  } else {
    for (const Csr& f : m.frontiers) {
      bs.push_back(&f);
      bs_perm.push_back(f.permute_rows(p.order()));
    }
  }
  Probe out;
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const Csr& b = *bs[k];
    const Csr& bp = bs_perm[k];
    out.rw_symbolic += median_ms(reps, "rw.symbolic", [&] { (void)spgemm_symbolic(m.a, b); });
    out.rw_full += median_ms(reps, "rw.spgemm", [&] { (void)spgemm(m.a, b); });
    out.cw_symbolic += median_ms(reps, "cw.symbolic", [&] { (void)clusterwise_symbolic(cl, bp); });
    Csr c;
    out.cw_full += median_ms(reps, "cw.spgemm", [&] { c = clusterwise_spgemm(cl, bp); });
    if (!square) {
      out.permute_b += median_ms(reps, "pipe.permute_b", [&] { (void)b.permute_rows(p.order()); });
      out.unpermute += median_ms(reps, "pipe.unpermute", [&] { (void)p.unpermute_rows(c); });
    }
    out.products += static_cast<double>(spgemm_products(m.a, b));
    out.output_nnz += static_cast<double>(c.nnz());
    out.rw_fetch += static_cast<double>(m.a.nnz());
    out.cw_fetch += static_cast<double>(cl.col_idx().size());
  }
  return out;
}

/// One matrix's clustered operation: returns the products in original
/// order (frontier) or the permuted space (square).
std::vector<Csr> cw_op(const Matrix& m, bool square) {
  std::vector<Csr> out;
  if (square) {
    const Span s("cw.multiply_square");
    out.push_back(m.p->multiply_square());
    return out;
  }
  for (const Csr& f : m.frontiers) {
    Csr c;
    {
      const Span s("cw.multiply");
      c = m.p->multiply(f);
    }
    const Span s("cw.unpermute");
    out.push_back(m.p->unpermute_rows(c));
  }
  return out;
}

std::vector<Csr> rw_op(const Matrix& m, bool square) {
  std::vector<Csr> out;
  if (square) {
    const Span s("rw.spgemm");
    out.push_back(spgemm(m.a, m.a));
    return out;
  }
  for (const Csr& f : m.frontiers) {
    const Span s("rw.spgemm");
    out.push_back(spgemm(m.a, f));
  }
  return out;
}

/// Check the clustered products against row-wise ones (approx_equal after
/// undoing the permutation) and keep both products' digests as the
/// references every timed product must match.
void verify_first(Matrix& m, bool square, Result& r) {
  const Span s("verify");
  const std::vector<Csr> rw = rw_op(m, square);
  const std::vector<Csr> cw = cw_op(m, square);
  m.rw_ref.clear();
  m.cw_ref.clear();
  for (std::size_t k = 0; k < rw.size(); ++k) {
    const Csr want = square ? rw[k].permute_symmetric(m.p->order()) : rw[k];
    r.check(cw[k].approx_equal(want, kTol),
            m.name + ": cluster-wise product differs from row-wise (step " +
                std::to_string(k) + ")");
    m.rw_ref.push_back(digest(rw[k]));
    m.cw_ref.push_back(digest(cw[k]));
  }
  r.attempted(2);
}

/// `probe`: a frontier series run inside square's traced run, which only
/// contributes per-layer figures and leaves the tracer's phase alone.
void run_batch(const RunArgs& args, Result& r, bool square, bool probe) {
  const bool traced = args.trace;
  std::vector<Matrix> ms;
  for (const char* group : {"matrices", "skewed"}) {
    for (const std::string& name : args.list(group)) {
      Matrix& m = ms.emplace_back();
      m.name = name;
      m.skewed = std::string(group) == "skewed";
    }
  }
  FrontierOptions fopt;
  if (!square) {
    fopt.batch = static_cast<index_t>(args.num("sources"));
    fopt.num_frontiers = static_cast<index_t>(args.num("frontiers"));
  }
  for (Matrix& m : ms) {
    m.a = make_matrix(m.name, args.seed);
    if (!square) {
      fopt.seed = mix_seed(args.seed, 7);
      m.frontiers = bc_frontiers(m.a, fopt);
    }
  }

  PipelineOptions opt;
  opt.scheme = ClusterScheme::kHierarchical;
  opt.reorder = square ? ReorderAlgo::kOriginal : ReorderAlgo::kGP;

  const OsCounters os0 = os_counters();
  const Clock::time_point phase0 = Clock::now();
  // Set-up: every round preprocesses every matrix afresh; set-up time is
  // the median round. `setup_rounds` rounds run before the timed phase and,
  // so that one slow moment of the host does not decide the median, as many
  // after it; those later rounds are checked against the pipelines in use
  // and dropped.
  const int rounds = static_cast<int>(args.num("setup_rounds"));
  std::vector<double> round_s;
  auto setup_round = [&](bool keep) {
    double total_ms = 0;
    for (Matrix& m : ms) {
      const Clock::time_point t0 = Clock::now();
      std::shared_ptr<const Pipeline> p = prepare(m.a, opt);
      const double took = ms_since(t0);
      total_ms += took;
      if (keep) {
        m.p = std::move(p);
        m.setup_ms = took;
      } else {
        r.check(digest(p->matrix()) == digest(m.p->matrix()),
                m.name + ": set-up is not deterministic");
      }
    }
    round_s.push_back(total_ms / 1e3);
  };
  for (int round = 0; round < rounds; ++round) setup_round(true);
  // Traced runs time the preprocessing layers one call each (summed over
  // the matrices), beside the pipelines the workload uses.
  PreprocessSeconds pre;
  for (const Matrix& m : ms) pre += probe_preprocess(m.a, opt, *m.p, r);

  for (Matrix& m : ms) verify_first(m, square, r);

  std::vector<AbCase> cases;
  for (Matrix& m : ms) {
    const Matrix* mp = &m;
    auto timed_op = [&r, mp, square](bool cw) {
      const Clock::time_point t0 = Clock::now();
      const std::vector<Csr> got = cw ? cw_op(*mp, square) : rw_op(*mp, square);
      const double ms_taken = ms_since(t0);
      const Span s("verify");
      const std::vector<std::uint64_t>& want = cw ? mp->cw_ref : mp->rw_ref;
      bool same = got.size() == want.size();
      for (std::size_t k = 0; same && k < got.size(); ++k) same = digest(got[k]) == want[k];
      r.check(same, mp->name + (cw ? ": cluster-wise" : ": row-wise") +
                        " product changed between calls");
      r.attempted(1);
      return ms_taken;
    };
    cases.push_back({m.name, m.skewed, [timed_op] { return timed_op(false); },
                     [timed_op] { return timed_op(true); }});
  }
  const AbSamples samples = run_ab(cases, args.seconds, 3);
  const OsCounters os1 = os_counters();
  if (!probe) {
    for (int round = 0; round < rounds; ++round) setup_round(false);
  }

  // Traced runs also call the kernels' entry points one at a time.
  std::vector<Probe> probes;
  if (traced) {
    for (const Matrix& m : ms) probes.push_back(probe_kernels(m, square, 3));
  }
  if (!probe) tracer().phase(phase0, Clock::now());

  if (!traced) {
    report_ab(r, cases, samples);
    r.metric("setup_s", median(round_s), "s");
    r.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // --- per-layer ----------------------------------------------------------
  report_ab(r, cases, samples);  // per-case detail only; the metrics below win
  r.metric("reorder.s", pre.reorder, "s");
  r.metric("cluster.s", pre.cluster, "s");
  r.metric("format.s", pre.format, "s");
  double clusters = 0, csr_bytes = 0, cl_bytes = 0;
  for (const Matrix& m : ms) {
    clusters += m.p->clustering().num_clusters();
    csr_bytes += static_cast<double>(m.a.memory_bytes());
    cl_bytes += static_cast<double>(m.p->clustered()->memory_bytes());
  }
  r.metric("cluster.count", clusters, "count");
  r.metric("format.mem_ratio", cl_bytes / csr_bytes, "ratio");

  auto group = [&](bool skewed, auto field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].skewed == skewed) v.push_back(std::max(field(probes[i]), 1e-6));
    }
    return geomean(v);
  };
  auto sum = [&](bool skewed, auto field) {
    double s = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].skewed == skewed) s += field(probes[i]);
    }
    return s;
  };
  r.metric("rw.symbolic_ms", group(false, [](const Probe& p) { return p.rw_symbolic; }), "ms");
  r.metric("rw.numeric_ms",
           group(false, [](const Probe& p) { return p.rw_full - p.rw_symbolic; }), "ms");
  r.metric("cw.symbolic_ms", group(false, [](const Probe& p) { return p.cw_symbolic; }), "ms");
  r.metric("cw.numeric_ms",
           group(false, [](const Probe& p) { return p.cw_full - p.cw_symbolic; }), "ms");
  r.metric("pipe.kernel_ms", group(false, [](const Probe& p) { return p.cw_full; }), "ms");
  if (!square) {
    r.metric("pipe.permute_b_ms", group(false, [](const Probe& p) { return p.permute_b; }), "ms");
    r.metric("pipe.unpermute_ms", group(false, [](const Probe& p) { return p.unpermute; }), "ms");
  }
  double products = 0, out_nnz = 0;
  for (const Probe& p : probes) {
    products += p.products;
    out_nnz += p.output_nnz;
  }
  r.metric("products", products, "count");
  r.metric("output_nnz", out_nnz, "count");
  auto products_of = [](const Probe& p) { return p.products; };
  auto nnz_of = [](const Probe& p) { return p.output_nnz; };
  r.metric("compression", sum(false, products_of) / sum(false, nnz_of), "ratio");
  r.metric("compression_skew", sum(true, products_of) / sum(true, nnz_of), "ratio");
  auto rw_fetch = [](const Probe& p) { return p.rw_fetch; };
  auto cw_fetch = [](const Probe& p) { return p.cw_fetch; };
  r.metric("rw.b_fetch", sum(false, rw_fetch) + sum(true, rw_fetch), "count");
  r.metric("cw.b_fetch", sum(false, cw_fetch) + sum(true, cw_fetch), "count");
  r.metric("fetch_ratio", sum(false, cw_fetch) / sum(false, rw_fetch), "ratio");
  r.metric("fetch_ratio_skew", sum(true, cw_fetch) / sum(true, rw_fetch), "ratio");
  std::fprintf(stderr, "  %-20s %12s %12s %8s %12s %12s\n", "matrix", "rw.b_fetch",
               "cw.b_fetch", "ratio", "products", "output_nnz");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Probe& p = probes[i];
    r.detail("fetch_ratio." + ms[i].name, p.cw_fetch / p.rw_fetch);
    r.detail("products." + ms[i].name, p.products);
    r.detail("output_nnz." + ms[i].name, p.output_nnz);
    std::fprintf(stderr, "  %-20s %12.0f %12.0f %8.3f %12.0f %12.0f\n", ms[i].name.c_str(),
                 p.rw_fetch, p.cw_fetch, p.cw_fetch / p.rw_fetch, p.products, p.output_nnz);
  }

  // Derived, not gated: the paper's speed-up and amortization (Fig. 10):
  // set-up seconds over the per-operation saving, for the primary group.
  const double rw = group_ms(cases, samples, false, false);
  const double cw = group_ms(cases, samples, true, false);
  r.metric("speedup.gm", rw / cw, "x");
  r.metric("speedup.skew_gm",
           group_ms(cases, samples, false, true) / group_ms(cases, samples, true, true), "x");
  double setup_ms = 0, saved_ms = 0;
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ms[i].skewed) continue;
    setup_ms += ms[i].setup_ms;
    saved_ms += samples.estimate(false, i, 0.5) - samples.estimate(true, i, 0.5);
  }
  // -1 = the clustered path never pays its set-up back on this group.
  r.metric("amortize.iters", saved_ms > 0 ? setup_ms / saved_ms : -1, "count");
  report_os_counters(r, os0, os1);
}

}  // namespace

void run_square(const RunArgs& args, Result& r) {
  run_batch(args, r, true, false);
  if (!args.trace) return;
  // The frontier shape (GP reorder + hierarchical clustering, BC frontier
  // series through Pipeline::multiply + unpermute_rows) is measured here for
  // the layers square leaves idle: reorder/partition and the B permute and
  // unpermute around each multiply.
  RunArgs fa = args;
  for (const char* key : {"matrices", "skewed", "sources", "frontiers", "setup_rounds"})
    fa.params[key] = args.str(std::string("frontier_") + key);
  fa.seconds = args.num("frontier_seconds");
  Result fr;
  run_batch(fa, fr, false, true);
  r.merge_checks(fr);
  for (const char* name : {"reorder.s", "pipe.permute_b_ms", "pipe.unpermute_ms"}) {
    r.metric(name, fr.value(name), fr.unit(name));
  }
  r.detail("frontier.cw_ms", fr.value("cw_ms"));
  r.detail("frontier.rw_ms", fr.value("rw_ms"));
  r.detail("frontier.speedup", fr.value("speedup.gm"));
}

}  // namespace pb
