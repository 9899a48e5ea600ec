// Out-of-core serving probe, run inside serve_mix's traced run. A corpus of
// sharded pipelines is saved as v3 sharded snapshots, mmap-loaded, and
// served by a ShardedEngine whose paging governor holds resident mapped
// bytes to 1/`shard_budget_ratio` of the corpus; a closed-loop client keeps
// two requests outstanding, round robin over the corpus (bench/out_of_core's
// configuration with prefetch on). It reports only per-layer figures for the
// shard, io and paging-governor layers: as a workload of its own its
// latencies spread too far between seeds to gate (see perfbench/README.md).
// Every served product must be bit-identical to the sequential
// scatter/gather of the same loaded pipeline.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>

#include "gen/generators.hpp"
#include "io/prefetcher.hpp"
#include "layers.hpp"
#include "obs/sampler.hpp"
#include "serve/paging_governor.hpp"
#include "shard/engine.hpp"
#include "shard/snapshot.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

using namespace cw;

namespace {

using SpHandle = std::shared_ptr<const shard::ShardedPipeline>;

struct Item {
  std::string name;
  Csr a;
  std::string path;
  SpHandle sp;
  std::vector<Csr> payloads;
  std::vector<std::uint64_t> want;  // digest of the direct sharded product per payload
};

std::size_t mapped_bytes(const std::vector<Item>& items, bool resident_only) {
  std::size_t total = 0;
  for (const Item& it : items) {
    for (index_t s = 0; s < it.sp->num_shards(); ++s) {
      const PipelineResidency res = it.sp->shard(s)->residency();
      total += resident_only ? res.resident_mapped_bytes : res.mapped_bytes;
    }
  }
  return total;
}

}  // namespace

void sharded_cold_probe(const RunArgs& args, Result& r) {
  const auto shards = static_cast<index_t>(args.num("shard_count"));
  const auto cols = static_cast<index_t>(args.num("payload_cols"));
  const auto row_nnz = static_cast<index_t>(args.num("payload_row_nnz"));
  const auto per_item = static_cast<std::size_t>(args.num("shard_payloads_per_matrix"));
  const std::string dir = args.out_dir + "/snapshots";
  std::filesystem::create_directories(dir);

  std::vector<Item> items;
  for (const std::string& name : args.list("shard_corpus")) {
    const std::size_t idx = items.size();
    Item& it = items.emplace_back();
    it.name = name + "#" + std::to_string(idx);
    it.a = make_matrix(name, mix_seed(args.seed, 300 + idx));
    it.path = dir + "/corpus-" + std::to_string(idx) + ".cwsnap";
    for (std::size_t k = 0; k < per_item; ++k)
      it.payloads.push_back(gen_request_payload(it.a.ncols(), cols, row_nnz,
                                                mix_seed(args.seed, 5000 + 100 * idx + k)));
  }

  // Preprocess, save and mmap-load the corpus; check each product.
  PipelineOptions popt;
  popt.scheme = ClusterScheme::kHierarchical;
  shard::PlanOptions plan_opt;
  plan_opt.num_shards = shards;
  double load_ms = 0;
  for (Item& it : items) {
    {
      const Span s("shard.prepare");
      const shard::ShardedPipeline built(it.a, plan_opt, popt);
      shard::save_sharded_pipeline_file(it.path, built);
    }
    const Clock::time_point l0 = Clock::now();
    {
      const Span s("load");
      it.sp = std::make_shared<const shard::ShardedPipeline>(
          shard::load_sharded_pipeline_file(it.path));
    }
    load_ms += ms_since(l0);
    const Span s("verify");
    for (const Csr& b : it.payloads) {
      const Csr c = it.sp->multiply(b);
      it.want.push_back(digest(c));
      r.check(c.approx_equal(spgemm(it.a, b), 1e-9),
              it.name + ": sharded product differs from row-wise");
      r.attempted(1);
    }
  }

  // Each shard's multiply called directly: the slowest shard sets a
  // request's time.
  std::vector<double> shard_max, shard_imbalance;
  for (const Item& it : items) {
    std::vector<double> per_shard;
    for (index_t s = 0; s < it.sp->num_shards(); ++s) {
      std::vector<double> reps;
      for (const Csr& b : it.payloads) {
        const Span span("shard.block_multiply");
        const Clock::time_point t0 = Clock::now();
        (void)it.sp->shard(s)->multiply(b);
        reps.push_back(ms_since(t0));
      }
      per_shard.push_back(median(reps));
    }
    double mean = 0;
    for (double v : per_shard) mean += v / static_cast<double>(per_shard.size());
    const double mx = *std::max_element(per_shard.begin(), per_shard.end());
    shard_max.push_back(mx);
    shard_imbalance.push_back(mx / mean);
  }

  // --- cold, budgeted serving -------------------------------------------------------
  const std::size_t corpus_bytes = mapped_bytes(items, false);
  const std::size_t budget = corpus_bytes / static_cast<std::size_t>(args.num("shard_budget_ratio"));
  for (const Item& it : items) {
    for (index_t s = 0; s < it.sp->num_shards(); ++s) it.sp->shard(s)->release_residency();
  }

  shard::ShardedEngineOptions opt;
  opt.num_workers = 1;
  opt.gather_workers = 1;
  opt.registry.capacity_bytes = corpus_bytes * 4;  // the governor, not LRU, bounds memory
  opt.residency_order = true;
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  opt.metrics = metrics;
  obs::Gauge& resident_gauge = metrics->gauge(
      "cw_governor_resident_mapped_bytes",
      "Registry resident mapped bytes at last governor check");
  opt.max_prefetch_wait = std::chrono::milliseconds(10);
  opt.prefetch_lookahead = 1;
  io::PrefetchOptions pf;
  pf.num_workers = 1;
  pf.max_in_flight = items.size() * static_cast<std::size_t>(shards) + 4;
  pf.budget_bytes = budget + budget / 2;
  pf.wait_resident = false;
  pf.max_stream_wait = std::chrono::seconds(60);
  pf.resident_bytes_fn = [&resident_gauge]() -> std::size_t {
    return static_cast<std::size_t>(resident_gauge.value());
  };
  auto prefetcher = std::make_shared<io::ShardPrefetcher>(std::move(pf));
  prefetcher->start();
  opt.prefetcher = prefetcher;

  std::uint64_t sent = 0, completed = 0, failed = 0, cold_multiplies = 0;
  double released_mb = 0, resident_mb = 0;
  {
    shard::ShardedEngine eng(opt);
    for (const Item& it : items) eng.admit(*it.sp);
    serve::PagingGovernorOptions gopt;
    gopt.high_watermark_bytes = budget;
    gopt.low_watermark_bytes = budget / 2;
    gopt.metrics = eng.metrics();
    serve::PagingGovernor governor(*eng.registry(), *prefetcher, gopt);
    eng.set_governor(&governor);
    obs::PeriodicSampler sampler(eng.metrics(), std::chrono::milliseconds(20));
    governor.register_probes(sampler);
    sampler.start();

    struct InFlight {
      std::size_t item, payload;
      Clock::time_point sent;
      std::future<Csr> fut;
    };
    std::deque<InFlight> window;
    auto settle = [&] {
      InFlight f = std::move(window.front());
      window.pop_front();
      try {
        const Csr c = f.fut.get();
        tracer().record("shard.request", f.sent, Clock::now(), 0, 0);
        ++completed;
        const Span s("verify");
        r.check(digest(c) == items[f.item].want[f.payload],
                items[f.item].name + ": served sharded product differs");
      } catch (...) {
        ++failed;
        r.fail(fault::code_label(fault::code_of(std::current_exception())));
      }
    };
    const Clock::time_point start = Clock::now();
    for (std::size_t n = 0; ms_since(start) < args.num("shard_seconds") * 1e3; ++n) {
      if (window.size() == 2) settle();
      const std::size_t i = n % items.size();
      const std::size_t k = (n / items.size()) % per_item;
      const Clock::time_point t0 = Clock::now();
      std::future<Csr> fut;
      {
        const Span s("shard.submit");
        fut = eng.submit(items[i].sp, items[i].payloads[k]);
      }
      window.push_back({i, k, t0, std::move(fut)});
      ++sent;
    }
    while (!window.empty()) settle();
    sampler.stop();
    eng.set_governor(nullptr);  // the governor dies before the engine does
    cold_multiplies = eng.stats().cold_multiplies;
    released_mb = static_cast<double>(governor.stats().released_bytes) / 1e6;
    resident_mb = static_cast<double>(mapped_bytes(items, true)) / 1e6;
    eng.shutdown();
  }
  prefetcher->stop();
  std::filesystem::remove_all(dir);
  r.attempted(sent);
  r.check(completed + failed == sent, "accounting: completed + failed != sent (sharded)");
  r.detail("shard.corpus_mb", static_cast<double>(corpus_bytes) / 1e6);
  r.detail("shard.budget_mb", static_cast<double>(budget) / 1e6);
  r.detail("shard.requests", static_cast<double>(sent));
  std::fprintf(stderr,
               "  sharded probe: corpus %.1f MB, budget %.1f MB, %llu requests, "
               "%llu cold multiplies, governor released %.1f MB\n",
               static_cast<double>(corpus_bytes) / 1e6, static_cast<double>(budget) / 1e6,
               static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(cold_multiplies), released_mb);

  r.metric("load.s", load_ms / 1e3, "s");
  r.metric("shard.max_ms", geomean(shard_max), "ms");
  r.metric("shard.imbalance", geomean(shard_imbalance), "ratio");
  r.metric("io.cold_multiplies", static_cast<double>(cold_multiplies), "count");
  r.metric("io.resident_mb", resident_mb, "MB");
  r.metric("gov.released_mb", released_mb, "MB");
}

}  // namespace pb
