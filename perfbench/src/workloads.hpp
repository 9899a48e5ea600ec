// Workload entry points. Each builds its inputs from the run's seed, sets
// up, measures for the run's seconds, checks every product, and fills the
// Result with the end-to-end metrics (untraced) or the per-layer metrics
// (traced).
#pragma once

#include "common.hpp"

namespace pb {

void run_square(const RunArgs& args, Result& r);
void run_serve_mix(const RunArgs& args, Result& r);

/// serve_mix's traced run only: the shard / io / paging-governor layers.
void sharded_cold_probe(const RunArgs& args, Result& r);

}  // namespace pb
