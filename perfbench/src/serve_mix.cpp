// serve_mix: the serving path. A ServeEngine with its pipeline registry and
// a batch window serves a hot set of prepared hierarchical pipelines, each
// request carrying a tall-skinny payload B.
//
// Phases after set-up:
//   service    Pipeline::multiply + unpermute_rows (and row-wise spgemm) on
//              the payloads, called directly with no engine on as many
//              OpenMP threads as an engine worker uses: the service time,
//              measured in three slices (before and after each loop below);
//   closed     `nproc` clients, one request outstanding each, each picking
//              its matrix and payload from its own seeded stream: sat_rps;
//   open       Poisson arrivals at a fixed offered rate for the run's
//              seconds, latency timed from each request's scheduled send
//              time. Every `cold_every`-th request names a matrix outside
//              the registry; an admission thread admits it with
//              get_or_build, so preprocessing competes with multiplies for
//              the same cores while the generator keeps its schedule.
// Set-up (preparing the hot set) is repeated `setup_rounds` times at the
// start and again beside the later service slices; setup_s is the median
// round. Every served product must be bit-identical (by digest) to
// single-threaded Pipeline::multiply + unpermute_rows called directly, and
// completed + failed == sent.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <list>
#include <mutex>
#include <random>
#include <thread>

#include "common/parallel.hpp"
#include "core/clusterwise_spgemm.hpp"
#include "fault/status.hpp"
#include "gen/generators.hpp"
#include "layers.hpp"
#include "serve/engine.hpp"
#include "serve/fingerprint.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

using namespace cw;

namespace {

struct Entry {
  std::string name;
  bool cold = false;  // outside the registry: admitted during the open loop
  Csr a;
  serve::Fingerprint key;
  std::shared_ptr<const Pipeline> ref_pipeline;  // prepared before serving
  std::vector<std::shared_ptr<const Csr>> payloads;
  std::vector<std::uint64_t> want;  // digest of the direct multiply + unpermute per payload
};

/// One open-loop request as the collector sees it.
struct Pending {
  std::uint64_t id = 0;
  std::size_t entry = 0, payload = 0;
  Clock::time_point due{};
  std::future<Csr> fut;
};

/// A product to check, handed from the collector to the verifier.
struct Done {
  std::size_t entry = 0, payload = 0;
  Csr c;
};

/// Thread-safe FIFO with a close flag.
template <typename T>
class Queue {
 public:
  void push(T v) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      q_.push_back(std::move(v));
    }
    cv_.notify_one();
  }
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks until an item or close; false once closed and empty.
  bool pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    *out = std::move(q_.front());
    q_.pop_front();
    return true;
  }
  /// Non-blocking: moves everything queued into `out`; false once closed and
  /// drained.
  bool drain(std::list<T>* out) {
    const std::lock_guard<std::mutex> lock(mu_);
    while (!q_.empty()) {
      out->push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return !closed_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> q_;
  bool closed_ = false;
};

struct OpenLoopStats {
  Clock::time_point start{};
  std::vector<double> latency_ms;  // completed requests
  std::vector<double> late_ms;     // generator lateness per request
  std::vector<double> admit_ms;    // get_or_build calls that built
  std::uint64_t sent = 0, completed = 0, failed = 0;
  std::uint64_t within_slo = 0;
};

PipelineOptions pipeline_options() {
  PipelineOptions opt;
  opt.scheme = ClusterScheme::kHierarchical;
  return opt;
}

void record_failure(Result& r, const std::exception_ptr& e) {
  r.fail(fault::code_label(fault::code_of(e)));
}

/// Collector + verifier: polls the outstanding futures, stamps completion
/// times, and hands products to a verifier thread so checking never delays
/// the next completion's timestamp.
class Collector {
 public:
  Collector(std::vector<Entry>& entries, Result& r, double slo_ms, OpenLoopStats& st)
      : entries_(entries), r_(r), slo_ms_(slo_ms), st_(st),
        verifier_([this] { verify_loop_(); }),
        poller_([this] { poll_loop_(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void add(Pending p) { incoming_.push(std::move(p)); }

  /// Wait for every added request to resolve, then stop both threads.
  void finish() {
    if (finished_) return;
    finished_ = true;
    incoming_.close();
    poller_.join();
    done_.close();
    verifier_.join();
  }

 private:
  void poll_loop_() {
    std::list<Pending> outstanding;
    bool open = true;
    while (open || !outstanding.empty()) {
      open = incoming_.drain(&outstanding);
      bool any = false;
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++it;
          continue;
        }
        const Clock::time_point now = Clock::now();
        any = true;
        try {
          Csr c = it->fut.get();
          const double lat = ms_between(it->due, now);
          tracer().record("request", it->due, now, 0, it->id);
          st_.latency_ms.push_back(lat);
          ++st_.completed;
          if (lat <= slo_ms_) ++st_.within_slo;
          done_.push({it->entry, it->payload, std::move(c)});
        } catch (...) {
          ++st_.failed;
          const std::lock_guard<std::mutex> lock(r_mu_);
          record_failure(r_, std::current_exception());
        }
        it = outstanding.erase(it);
      }
      if (!any) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  void verify_loop_() {
    Done d;
    while (done_.pop(&d)) {
      const bool same = digest(d.c) == entries_[d.entry].want[d.payload];
      const std::lock_guard<std::mutex> lock(r_mu_);
      r_.check(same, entries_[d.entry].name + ": served product differs from the "
                                              "direct multiply");
    }
  }

  std::vector<Entry>& entries_;
  Result& r_;
  std::mutex r_mu_;  // guards r_ between the two threads
  const double slo_ms_;
  OpenLoopStats& st_;  // written by the poller only until finish()
  Queue<Pending> incoming_;
  Queue<Done> done_;
  bool finished_ = false;
  std::thread verifier_;  // declared after the queues they use
  std::thread poller_;
};

/// One slice of service-time samples, taken the way an engine at saturation
/// runs its kernels: `callers` threads at once, each on `omp_threads` OpenMP
/// threads, call every entry's cluster-wise path (Pipeline::multiply +
/// unpermute_rows) and its row-wise kernel in turn, alternating which goes
/// first, until `seconds` have passed; every pair is appended to `s` as
/// window `window`.
void service_slice(const std::vector<Entry>& entries, int callers, int omp_threads,
                   double seconds, int window, AbSamples& s, Result& r) {
  struct Local {
    std::vector<std::vector<double>> rw, cw;
    std::uint64_t calls = 0;
    std::vector<std::size_t> wrong;  // entries whose product changed
  };
  std::vector<Local> local(static_cast<std::size_t>(callers));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int t = 0; t < callers; ++t) {
    threads.emplace_back([&, t] {
      set_num_threads(omp_threads);
      Local& l = local[static_cast<std::size_t>(t)];
      l.rw.resize(entries.size());
      l.cw.resize(entries.size());
      // Caller t starts at entry t, so the callers work on different
      // matrices at once.
      for (std::size_t n = static_cast<std::size_t>(t); ms_since(start) < seconds * 1e3; ++n) {
        const std::size_t i = n % entries.size(), cycle = n / entries.size();
        const Entry& e = entries[i];
        const std::size_t k = cycle % e.payloads.size();
        for (int half = 0; half < 2; ++half) {
          const bool cw_path = (half == 0) == (cycle % 2 == 0);
          const Clock::time_point t0 = Clock::now();
          Csr c;
          if (cw_path) {
            const Span span("serve.service");
            c = e.ref_pipeline->unpermute_rows(e.ref_pipeline->multiply(*e.payloads[k]));
          } else {
            const Span span("rw.spgemm");
            c = spgemm(e.a, *e.payloads[k]);
          }
          (cw_path ? l.cw : l.rw)[i].push_back(ms_since(t0));
          ++l.calls;
          if (cw_path && digest(c) != e.want[k]) l.wrong.push_back(i);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  s.rw.resize(entries.size());
  s.cw.resize(entries.size());
  s.window.resize(entries.size());
  for (const Local& l : local) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      s.rw[i].insert(s.rw[i].end(), l.rw[i].begin(), l.rw[i].end());
      s.cw[i].insert(s.cw[i].end(), l.cw[i].begin(), l.cw[i].end());
      s.window[i].insert(s.window[i].end(), l.cw[i].size(), window);
    }
    r.attempted(l.calls);
    for (std::size_t i : l.wrong) r.check(false, entries[i].name + ": service product changed");
  }
  ++s.rounds;
}

}  // namespace

void run_serve_mix(const RunArgs& args, Result& r) {
  const bool traced = args.trace;
  const PipelineOptions popt = pipeline_options();
  const auto cols = static_cast<index_t>(args.num("payload_cols"));
  const auto row_nnz = static_cast<index_t>(args.num("payload_row_nnz"));
  const auto per_matrix = static_cast<std::size_t>(args.num("payloads_per_matrix"));
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // --- inputs ---------------------------------------------------------------
  std::vector<Entry> entries;
  for (const char* group : {"hot", "cold"}) {
    for (const std::string& name : args.list(group)) {
      Entry& e = entries.emplace_back();
      e.name = name;
      e.cold = std::string(group) == "cold";
      e.a = make_matrix(name, args.seed);
      e.key = serve::fingerprint(e.a);
      for (std::size_t k = 0; k < per_matrix; ++k) {
        e.payloads.push_back(std::make_shared<const Csr>(gen_request_payload(
            e.a.ncols(), cols, row_nnz, mix_seed(args.seed, 1000 * entries.size() + k))));
      }
    }
  }
  std::vector<std::size_t> hot, cold;
  for (std::size_t i = 0; i < entries.size(); ++i) (entries[i].cold ? cold : hot).push_back(i);

  // --- set-up: prepare and admit the hot set, afresh each round --------------
  serve::EngineOptions eopt;
  eopt.num_workers = static_cast<int>(args.num("workers"));
  eopt.omp_threads_per_worker = static_cast<int>(args.num("worker_omp_threads"));
  eopt.batch_window = std::chrono::microseconds(static_cast<long>(args.num("batch_window_us")));
  eopt.registry.capacity_bytes = std::size_t{1} << 40;  // resized below
  const Clock::time_point phase0 = Clock::now();
  const int setup_threads = num_threads();
  const int worker_threads = static_cast<int>(args.num("worker_omp_threads"));
  // One slice of set-up rounds. The first keeps its last round's pipelines;
  // later slices rebuild the hot set to time it again (the engine keeps
  // serving the first) and check that the rebuilt matrices are the same.
  std::vector<double> round_s;
  auto setup_slice = [&](bool keep) {
    set_num_threads(setup_threads);
    for (int round = 0; round < static_cast<int>(args.num("setup_rounds")); ++round) {
      std::vector<std::shared_ptr<const Pipeline>> built;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i : hot) built.push_back(prepare(entries[i].a, popt));
      round_s.push_back(ms_since(t0) / 1e3);
      for (std::size_t j = 0; j < hot.size(); ++j) {
        Entry& e = entries[hot[j]];
        if (keep) e.ref_pipeline = built[j];
        else r.check(digest(built[j]->matrix()) == digest(e.ref_pipeline->matrix()),
                     e.name + ": set-up is not deterministic");
      }
    }
    set_num_threads(worker_threads);
  };
  setup_slice(true);
  set_num_threads(setup_threads);
  PreprocessSeconds pre;  // traced runs: the hot set's layers, one call each
  for (std::size_t i : hot) pre += probe_preprocess(entries[i].a, popt, *entries[i].ref_pipeline, r);
  for (std::size_t i : cold) entries[i].ref_pipeline = prepare(entries[i].a, popt);
  // From here on the main thread runs its kernels as an engine worker does.
  set_num_threads(worker_threads);
  std::size_t hot_bytes = 0, cold_max_bytes = 0;
  for (const Entry& e : entries) {
    const std::size_t bytes = serve::pipeline_memory_bytes(*e.ref_pipeline);
    if (e.cold) cold_max_bytes = std::max(cold_max_bytes, bytes);
    else hot_bytes += bytes;
  }
  // Room for the hot set plus one cold pipeline: each cold admission evicts
  // the previous one, so every cold request is a miss.
  eopt.registry.capacity_bytes = hot_bytes + cold_max_bytes + cold_max_bytes / 4;
  serve::ServeEngine engine(eopt);
  for (std::size_t i : hot) (void)engine.admit(entries[i].key, entries[i].ref_pipeline);
  serve::PipelineRegistry& registry = *engine.registry();

  // --- references -------------------------------------------------------------
  for (Entry& e : entries) {
    const Span s("verify");
    for (const auto& b : e.payloads) {
      const Csr c = e.ref_pipeline->unpermute_rows(e.ref_pipeline->multiply(*b));
      r.check(c.approx_equal(spgemm(e.a, *b), 1e-9),
              e.name + ": cluster-wise payload product differs from row-wise");
      e.want.push_back(digest(c));
      r.attempted(1);
    }
  }

  // --- service: direct multiply, no engine -----------------------------------
  // Service time is measured in three slices: here, after the closed loop
  // and after the open loop, and taken from the quietest slice.
  std::vector<AbCase> cases;  // report_ab reads only each case's name and group
  for (const Entry& e : entries) cases.push_back({e.name, e.cold, {}, {}});
  const double slice_s = args.num("service_seconds");
  AbSamples service;
  service_slice(entries, eopt.num_workers, worker_threads, slice_s, 0, service, r);

  // --- closed loop: nproc clients, one request outstanding each ----------------
  // sat_rps: completions within the closed loop's seconds, per second.
  std::uint64_t closed_done = 0;
  const double sat_s = args.num("closed_seconds");
  {
    std::mutex mu;
    std::vector<std::thread> clients;
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < nproc; ++c) {
      clients.emplace_back([&, c] {
        std::mt19937_64 rng(mix_seed(args.seed, 200 + static_cast<std::uint64_t>(c)));
        std::uniform_int_distribution<std::size_t> pick_hot(0, hot.size() - 1);
        std::uniform_int_distribution<std::size_t> pick_payload(0, per_matrix - 1);
        while (ms_since(t0) < sat_s * 1e3) {
          const std::size_t i = hot[pick_hot(rng)];
          const std::size_t k = pick_payload(rng);
          bool same = false;
          bool ok = true;
          try {
            const Span s("closed.request");
            same = digest(engine.submit(entries[i].ref_pipeline, entries[i].payloads[k]).get()) ==
                   entries[i].want[k];
          } catch (...) {
            ok = false;
            const std::lock_guard<std::mutex> lock(mu);
            record_failure(r, std::current_exception());
          }
          const double at_s = ms_since(t0) / 1e3;
          const std::lock_guard<std::mutex> lock(mu);
          r.attempted(1);
          if (ok) {
            r.check(same, entries[i].name + ": closed-loop product differs");
            if (at_s < sat_s)
              ++closed_done;
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double sat_rps = static_cast<double>(closed_done) / sat_s;
  service_slice(entries, eopt.num_workers, worker_threads, slice_s, 1, service, r);
  setup_slice(false);
  const serve::EngineStats before_open = engine.stats();
  const serve::RegistryStats reg_before = registry.stats();

  // --- open loop ------------------------------------------------------------------
  const double rate = args.num("rate_rps");
  const auto cold_every = static_cast<std::uint64_t>(args.num("cold_every"));
  OpenLoopStats st;
  st.start = Clock::now();
  const OsCounters os0 = os_counters();
  {
    Collector collector(entries, r, args.num("slo_ms"), st);
    std::mutex admit_mu;  // guards st.admit_ms
    Queue<Pending> admissions;
    std::thread admitter([&] {
      Pending p;
      while (admissions.pop(&p)) {
        Entry& e = entries[p.entry];
        std::shared_ptr<const Pipeline> pipe;
        try {
          {
            const Span s("registry.get_or_build", p.id);
            pipe = registry.get_or_build(e.key, [&] {
              const Clock::time_point t0 = Clock::now();
              auto built = prepare(e.a, popt);
              const std::lock_guard<std::mutex> lock(admit_mu);
              st.admit_ms.push_back(ms_since(t0));
              return built;
            });
          }
          const Span sub("serve.submit", p.id);
          p.fut = engine.submit(std::move(pipe), e.payloads[p.payload]);
        } catch (...) {
          std::promise<Csr> failed;
          failed.set_exception(std::current_exception());
          p.fut = failed.get_future();
        }
        collector.add(std::move(p));
      }
    });

    std::mt19937_64 rng(mix_seed(args.seed, 99));
    std::exponential_distribution<double> gap_s(rate);
    std::uniform_int_distribution<std::size_t> pick_hot(0, hot.size() - 1);
    std::uniform_int_distribution<std::size_t> pick_payload(0, per_matrix - 1);
    const Clock::time_point start = st.start;
    double t_s = 0;
    for (std::uint64_t id = 1;; ++id) {
      t_s += gap_s(rng);
      if (t_s >= args.seconds) break;
      Pending p;
      p.id = id;
      p.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t_s));
      const bool is_cold = cold_every > 0 && !cold.empty() && id % cold_every == 0;
      p.entry = is_cold ? cold[(id / cold_every) % cold.size()] : hot[pick_hot(rng)];
      p.payload = pick_payload(rng);
      std::this_thread::sleep_until(p.due);
      st.late_ms.push_back(ms_since(p.due));
      ++st.sent;
      if (is_cold) {
        admissions.push(std::move(p));
        continue;
      }
      Entry& e = entries[p.entry];
      try {
        std::shared_ptr<const Pipeline> pipe;
        {
          const Span s("registry.get_or_build", id);
          pipe = registry.get_or_build(e.key, [&] { return prepare(e.a, popt); });
        }
        const Span s("serve.submit", id);
        p.fut = engine.submit(std::move(pipe), e.payloads[p.payload]);
      } catch (...) {
        std::promise<Csr> failed;
        failed.set_exception(std::current_exception());
        p.fut = failed.get_future();
      }
      collector.add(std::move(p));
    }
    admissions.close();
    admitter.join();
    collector.finish();
  }
  const OsCounters os1 = os_counters();
  service_slice(entries, eopt.num_workers, worker_threads, slice_s, 2, service, r);
  setup_slice(false);
  tracer().phase(phase0, Clock::now());
  r.attempted(st.sent);
  r.check(st.completed + st.failed == st.sent,
          "accounting: completed + failed != sent in the open loop");
  const serve::EngineStats es = engine.stats();
  const serve::RegistryStats rs = registry.stats();
  r.detail("open.sent", static_cast<double>(st.sent));
  r.detail("open.completed", static_cast<double>(st.completed));
  r.detail("gen.late_p99_ms", quantile(st.late_ms, 0.99));
  r.detail("gen.late_max_ms", quantile(st.late_ms, 1.0));
  std::fprintf(stderr, "  set-up rounds (s):");
  for (double v : round_s) std::fprintf(stderr, " %.3f", v);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "  open loop: %llu sent at %.0f req/s, p50 %.3f ms, p99 %.3f ms, "
               "generator late p99 %.3f ms / max %.3f ms; closed loop %.1f req/s\n",
               static_cast<unsigned long long>(st.sent), rate, quantile(st.latency_ms, 0.5),
               quantile(st.latency_ms, 0.99), quantile(st.late_ms, 0.99),
               quantile(st.late_ms, 1.0), sat_rps);

  report_ab(r, cases, service);  // cw_ms/rw_ms: hot set; *_skew_ms: cold set
  // Latency percentiles over the whole open loop: windowed estimates moved
  // more between runs, because each window holds few of the cold admissions
  // that make up part of the tail.
  const double p50 = quantile(st.latency_ms, 0.5);
  r.metric("p50_ms", p50, "ms");
  r.metric("p99_ms", quantile(st.latency_ms, 0.99), "ms");
  r.metric("sat_rps", sat_rps, "1/s");
  if (!traced) {
    r.metric("setup_s", median(round_s), "s");
    r.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // --- per-layer --------------------------------------------------------------
  r.metric("reorder.s", pre.reorder, "s");
  r.metric("cluster.s", pre.cluster, "s");
  r.metric("format.s", pre.format, "s");
  double clusters = 0, csr_bytes = 0, cl_bytes = 0;
  for (std::size_t i : hot) {
    clusters += entries[i].ref_pipeline->clustering().num_clusters();
    csr_bytes += static_cast<double>(entries[i].a.memory_bytes());
    cl_bytes += static_cast<double>(entries[i].ref_pipeline->clustered()->memory_bytes());
  }
  r.metric("cluster.count", clusters, "count");
  r.metric("format.mem_ratio", cl_bytes / csr_bytes, "ratio");
  const double service_ms = group_ms(cases, service, true, false);
  r.metric("serve.service_ms", service_ms, "ms");
  r.metric("serve.wait_ms", p50 - service_ms, "ms");
  r.metric("serve.submit_us", median(tracer().durations("serve.submit")) * 1e3, "us");
  const double batches = static_cast<double>(es.batches - before_open.batches);
  r.metric("serve.batch_reqs",
           batches > 0 ? static_cast<double>(es.completed - before_open.completed) / batches : 0,
           "count");
  r.metric("slo_frac",
           st.sent ? static_cast<double>(st.within_slo) / static_cast<double>(st.sent) : 0,
           "ratio");
  r.metric("gen.late_p99_ms", quantile(st.late_ms, 0.99), "ms");
  r.metric("gen.late_max_ms", quantile(st.late_ms, 1.0), "ms");
  const double lookups = static_cast<double>((rs.hits - reg_before.hits) +
                                             (rs.misses - reg_before.misses));
  r.metric("registry.hit_frac",
           lookups > 0 ? static_cast<double>(rs.hits - reg_before.hits) / lookups : 0, "ratio");
  r.metric("registry.admit_ms", median(st.admit_ms), "ms");
  r.metric("registry.evictions", static_cast<double>(rs.evictions - reg_before.evictions),
           "count");

  // One batch window's worth of Bs: fused multiply vs the per-request sum,
  // and the multiply path's stages on the first hot pipeline.
  const Entry& e0 = entries[hot.front()];
  std::vector<const Csr*> window;
  for (const auto& b : e0.payloads) window.push_back(b.get());
  std::vector<double> stacked, unstacked, permute_b, kernel, unpermute;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point t0 = Clock::now();
    {
      const Span s("serve.stacked");
      const std::vector<Csr> outs = e0.ref_pipeline->multiply_stacked(window);
      stacked.push_back(ms_since(t0));
      for (std::size_t k = 0; k < outs.size(); ++k)
        r.check(digest(e0.ref_pipeline->unpermute_rows(outs[k])) == e0.want[k],
                e0.name + ": stacked product differs");
    }
    double sum_ms = 0, perm_ms = 0, kern_ms = 0, unperm_ms = 0;
    for (const Csr* b : window) {
      t0 = Clock::now();
      Csr bp;
      {
        const Span s("pipe.permute_b");
        bp = b->permute_rows(e0.ref_pipeline->order());
      }
      const Clock::time_point t1 = Clock::now();
      Csr c;
      {
        const Span s("pipe.kernel");
        c = clusterwise_spgemm(*e0.ref_pipeline->clustered(), bp);
      }
      const Clock::time_point t2 = Clock::now();
      {
        const Span s("pipe.unpermute");
        (void)e0.ref_pipeline->unpermute_rows(c);
      }
      const Clock::time_point t3 = Clock::now();
      perm_ms += ms_between(t0, t1);
      kern_ms += ms_between(t1, t2);
      unperm_ms += ms_between(t2, t3);
      sum_ms += ms_between(t0, t2);
    }
    unstacked.push_back(sum_ms);
    const double n = static_cast<double>(window.size());
    permute_b.push_back(perm_ms / n);
    kernel.push_back(kern_ms / n);
    unpermute.push_back(unperm_ms / n);
  }
  r.metric("serve.stacked_ms", median(stacked), "ms");
  r.metric("serve.unstacked_ms", median(unstacked), "ms");
  r.metric("pipe.permute_b_ms", median(permute_b), "ms");
  r.metric("pipe.kernel_ms", median(kernel), "ms");
  r.metric("pipe.unpermute_ms", median(unpermute), "ms");
  report_os_counters(r, os0, os1);
  set_num_threads(setup_threads);
  sharded_cold_probe(args, r);
}

}  // namespace pb
