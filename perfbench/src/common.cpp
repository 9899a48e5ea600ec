#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "gen/generators.hpp"
#include "simd/dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

// --- RunArgs -------------------------------------------------------------------

std::string RunArgs::str(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) throw cw::Error("missing workload parameter: " + key);
  return it->second;
}

double RunArgs::num(const std::string& key) const {
  const std::string s = str(key);
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    throw cw::Error("workload parameter " + key + " is not a number: " + s);
  return v;
}

std::vector<std::string> RunArgs::list(const std::string& key) const {
  std::vector<std::string> out;
  std::stringstream ss(str(key));
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// --- Result ---------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::detail(const std::string& name, double value) { details_[name] = value; }

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++mismatches_;
  ++failures_["mismatch"];
  std::fprintf(stderr, "perfbench: WRONG PRODUCT: %s\n", what.c_str());
}

void Result::fail(const std::string& code) { ++failures_[code]; }

void Result::merge_checks(const Result& other) {
  attempted_ += other.attempted_;
  mismatches_ += other.mismatches_;
  for (const auto& [code, count] : other.failures_) failures_[code] += count;
}

std::uint64_t Result::failed_count() const {
  std::uint64_t n = 0;
  for (const auto& [code, count] : failures_) n += count;
  return n;
}

std::string Result::summary_json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_count()
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(v.value) << ", \"unit\": \"" << v.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string Result::full_json(const std::string& env_json) const {
  std::ostringstream os;
  os << "{\"environment\": " << env_json << ",\n \"summary\": " << summary_json()
     << ",\n \"failures\": {";
  bool first = true;
  for (const auto& [code, count] : failures_) {
    os << (first ? "" : ", ") << "\"" << code << "\": " << count;
    first = false;
  }
  os << "},\n \"details\": {";
  first = true;
  for (const auto& [name, v] : details_) {
    os << (first ? "" : ",\n  ") << "\"" << name << "\": " << json_number(v);
    first = false;
  }
  os << "}}\n";
  return os.str();
}

// --- order statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double quietest_quantile(const std::vector<double>& v, const std::vector<int>& window,
                         int windows, double q, std::size_t min_count) {
  double best = -1;
  for (int w = 0; w < windows; ++w) {
    std::vector<double> in;
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (window[k] == w) in.push_back(v[k]);
    }
    if (in.size() < min_count) continue;
    const double x = quantile(std::move(in), q);
    if (best < 0 || x < best) best = x;
  }
  return best < 0 ? quantile(v, q) : best;
}

// --- inputs -----------------------------------------------------------------------

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

template <typename T>
std::uint64_t mix_words(std::uint64_t h, const cw::ArraySegment<T>& seg) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(seg.data());
  const std::size_t n = seg.size_bytes();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  for (; i < n; ++i) h = (h ^ bytes[i]) * 0x100000001B3ULL;
  return h;
}

}  // namespace

std::uint64_t digest(const cw::Csr& c) {
  std::uint64_t h = mix_seed(static_cast<std::uint64_t>(c.nrows()),
                             static_cast<std::uint64_t>(c.ncols()));
  h = mix_words(h, c.row_ptr());
  h = mix_words(h, c.col_idx());
  return mix_words(h, c.values());
}

cw::Csr make_matrix(const std::string& name, std::uint64_t seed) {
  using namespace cw;
  // Salt per name so two matrices of one run never share a stream.
  std::uint64_t salt = 0;
  for (char c : name) salt = salt * 131 + static_cast<unsigned char>(c);
  const std::uint64_t s = mix_seed(seed, salt);
  Csr a;
  if (name == "AS365") a = gen_tri_mesh(180, 180, true, s);
  else if (name == "M6") a = gen_tri_mesh(200, 200, true, s);
  else if (name == "fem-3dof-shuffled") a = block_expand(gen_grid2d(90, 90, 9), 3, s);
  else if (name == "conf5") a = block_expand(gen_lattice4d(8, 8, 8, 8), 3, s);
  else if (name == "rma10") a = block_expand(gen_grid3d(24, 20, 10), 3, s);
  else if (name == "wb") a = gen_rmat(14, 5, 0.57, 0.19, 0.19, s);
  else if (name == "er-sparse") a = gen_erdos_renyi(50000, 8, s);
  else if (name == "kkt_power") a = gen_kkt(80000, 300, 6, s);
  else if (name == "europe_osm") a = gen_road_network(120000, 2, s);
  else if (name == "banded") a = gen_banded(36000, 24, 0.9, s);
  else throw Error("perfbench: unknown matrix " + name);
  randomize_values(a, mix_seed(s, 1));
  return a;
}

// --- process counters ----------------------------------------------------------------

OsCounters os_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_minflt), static_cast<double>(ru.ru_majflt),
          static_cast<double>(ru.ru_nvcsw), static_cast<double>(ru.ru_nivcsw)};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void report_os_counters(Result& r, const OsCounters& before, const OsCounters& after) {
  r.metric("os.minflt", after.minflt - before.minflt, "count");
  r.metric("os.majflt", after.majflt - before.majflt, "count");
  r.metric("os.nvcsw", after.nvcsw - before.nvcsw, "count");
  r.metric("os.nivcsw", after.nivcsw - before.nivcsw, "count");
}

// --- environment -------------------------------------------------------------------

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Cache size of the given level as the kernel reports it ("2048K").
std::string cache_size(int level) {
  for (int idx = 0; idx < 8; ++idx) {
    const std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx) + "/";
    const std::string lvl = read_first_line(base + "level");
    if (lvl.empty()) break;
    if (std::atoi(lvl.c_str()) == level && read_first_line(base + "type") != "Instruction")
      return read_first_line(base + "size");
  }
  return "unknown";
}

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

bool release_build() { return std::string(PERFBENCH_BUILD_TYPE) == "Release"; }

std::string environment_json(const RunArgs& args) {
  const char* rev = std::getenv("PERFBENCH_GIT_DESCRIBE");
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << escape(cpu_model()) << "\""
     << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"l2\": \"" << cache_size(2) << "\", \"l3\": \"" << cache_size(3) << "\""
     << ", \"simd_tier\": \"" << cw::simd::to_string(cw::simd::active_tier()) << "\""
     << ", \"omp_max_threads\": " << cw::num_threads()
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"release_build\": " << (release_build() ? "true" : "false")
     << ", \"git_describe\": \"" << escape(rev != nullptr ? rev : "unknown") << "\""
     << ", \"workload\": \"" << escape(args.workload) << "\""
     << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
     << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace pb
