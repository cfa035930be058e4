// gdelay_perfbench: runs one workload as a closed loop (one client that
// waits for each reply) and prints its metrics as one JSON line.
//
//   gdelay_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --golden FILE --scratch DIR [--rev REV]
//   gdelay_perfbench --print-golden --golden FILE --scratch DIR
//
// Every performance knob is pinned here, whatever the environment says:
// 4 pool threads, 4 service shards, campaign Mode::kThread with 4 shards,
// and the backend selected explicitly before every op. Ops alternate
// between the `scalar` and `auto` backends in ABBA order.
//
// --trace 0 times the plain calls and reports the end-to-end metrics.
// --trace 1 runs each op twice on the same inputs, plain and then
// through the timed adapters, checks both give the same bytes, and
// reports the per-layer metrics plus the tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "harness.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace perfbench {

void Digest::bytes(const void* p, std::size_t n) {
  h_ = gdelay::util::fnv1a64(p, n, h_);
}

namespace {

constexpr int kThreads = 4;
// Set-up repeats: at least kMinSetupReps, more while they are cheap.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 100;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr std::uint64_t kMinOpsPerPass = 3;
// Hard cap on the measuring loop, far inside the 180 s a run may take.
constexpr double kMaxLoopSeconds = 120.0;

const char* const kWorkloads[] = {"stream_eye", "service_warm",
                                  "service_recal", "campaign_mc"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool print_golden = false;
  std::string golden_path;
  std::string scratch = ".";
  std::string rev = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "gdelay_perfbench: %s\nusage: gdelay_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 --golden FILE "
               "--scratch DIR [--rev REV]\n       gdelay_perfbench "
               "--print-golden --golden FILE --scratch DIR\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-golden") {
      a.print_golden = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--golden") a.golden_path = v;
      else if (k == "--scratch") a.scratch = v;
      else if (k == "--rev") a.rev = v;
      else usage(("unknown flag " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.golden_path.empty()) usage("--golden is required");
  if (!a.print_golden && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch) {
  if (name == "stream_eye") return make_stream_eye(seed);
  if (name == "service_warm") return make_service_warm(seed);
  if (name == "service_recal") return make_service_recal(seed);
  if (name == "campaign_mc") return make_campaign_mc(seed, scratch);
  usage(("unknown workload " + name).c_str());
}

// golden.txt: "<workload> <backend> <digest hex>" per line, '#' comments.
std::map<std::string, std::uint64_t> read_golden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::uint64_t> g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string wl, be, hex;
    if (!(ls >> wl >> be >> hex))
      throw std::runtime_error("malformed golden line: " + line);
    g[wl + " " + be] = std::stoull(hex, nullptr, 16);
  }
  return g;
}

void select_pass(int pass) { gdelay::backend::select(kPassSelect[pass]); }

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Peak RSS of this process image: VmHWM, which (unlike getrusage's
// ru_maxrss) does not carry over the parent's footprint across exec.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

// Steal and total jiffies of all CPUs from /proc/stat ({0, 0} when
// unreadable). Steal is time the hypervisor ran another guest on our
// vCPUs; on a shared host it is what makes runs disagree.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v = 0.0, total = 0.0, steal = 0.0;
  if (!(in >> cpu) || cpu != "cpu") return {0.0, 0.0};
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// Host, build and knob stamp, printed as a '#' line before the result.
void print_stamp(const Args& a, const Workload& wl, double steal_share) {
  std::ostringstream s;
  s << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
    << ", \"git_rev\": \"" << json_escape(a.rev) << "\""
    << ", \"build_type\": \"" << GDELAY_PERFBENCH_BUILD_TYPE << "\""
    << ", \"compiler\": \"" << GDELAY_PERFBENCH_CXX << "\""
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"isa\": {\"avx2\": "
    << (__builtin_cpu_supports("avx2") ? "true" : "false")
    << ", \"avx512f\": "
    << (__builtin_cpu_supports("avx512f") ? "true" : "false") << "}"
    << ", \"pool_threads\": " << gdelay::util::thread_count();
  std::map<std::string, std::string> knobs;
  wl.report_knobs(knobs);
  for (const auto& [k, v] : knobs) s << ", \"" << k << "\": " << v;
  s << ", \"backends\": [";
  for (int p = 0; p < kPasses; ++p) {
    select_pass(p);
    s << (p ? ", " : "") << "{\"select\": \"" << kPassSelect[p]
      << "\", \"name\": \"" << gdelay::backend::active().name
      << "\", \"reason\": \""
      << json_escape(gdelay::backend::dispatch_reason()) << "\"}";
  }
  s << "], \"host_steal_share\": " << steal_share << ", \"inherited_env\": {";
  bool first = true;
  for (const char* k : {"GDELAY_THREADS", "GDELAY_BACKEND",
                        "GDELAY_SERVICE_SHARDS", "GDELAY_CAMPAIGN_MODE",
                        "GDELAY_CAMPAIGN_SHARDS"}) {
    // Recorded only: every knob they steer is pinned in code above.
    if (const char* v = std::getenv(k)) {
      s << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v)
        << "\"";
      first = false;
    }
  }
  s << "}}";
  std::printf("# stamp %s\n", s.str().c_str());
}

struct OpRecord {
  int pass = 0;
  bool traced = false;
  double seconds = 0.0;
  double work = 0.0;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void count(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "gdelay_perfbench: FAILED %s\n", what.c_str());
  }
};

// Runs op k of `pass`; returns its duration, or a negative value when it
// threw.
double timed_op(Workload& wl, std::uint64_t k, int pass, bool traced,
                Tally& tally, double* work) {
  const std::string what = std::string(traced ? "traced " : "") + "op " +
                           std::to_string(k) + " on " + kPassSelect[pass];
  try {
    select_pass(pass);
    wl.prepare(k, pass);
    const auto t0 = Clock::now();
    *work = wl.run(traced);
    const double secs = ns_between(t0, Clock::now()) * 1e-9;
    tally.count(wl.verify(), what + " (output mismatch)");
    return secs;
  } catch (const std::exception& e) {
    tally.count(false, what + ": " + e.what());
    return -1.0;
  }
}

void print_metric(std::ostringstream& o, bool& first, const std::string& name,
                  double value, const char* unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buf
    << ", \"unit\": \"" << unit << "\"}";
  first = false;
}

int print_golden(const Args& a) {
  for (const char* name : kWorkloads) {
    auto wl = make_workload(name, kGoldenSeed, a.scratch);
    select_pass(0);
    wl->setup();
    for (int p = 0; p < kPasses; ++p) {
      select_pass(p);
      std::printf("%s %s %s\n", name, gdelay::backend::active().name,
                  hex(wl->golden_digest()).c_str());
    }
  }
  return 0;
}

int run(const Args& a) {
  const auto golden = read_golden(a.golden_path);
  auto wl = make_workload(a.workload, a.seed, a.scratch);

  // Set-up, several times; the last instance is the one measured.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total < kSetupBudgetSeconds &&
          setup_s.size() < kMaxSetupReps)) {
    select_pass(0);
    const auto t0 = Clock::now();
    wl->setup();
    setup_s.push_back(ns_between(t0, Clock::now()) * 1e-9);
    setup_total += setup_s.back();
  }

  Tally tally;
  for (int p = 0; p < kPasses; ++p) {
    select_pass(p);
    const std::string key =
        a.workload + " " + gdelay::backend::active().name;
    std::uint64_t d = 0;
    bool ok = false;
    try {
      d = wl->golden_digest();
      const auto it = golden.find(key);
      ok = it != golden.end() && it->second == d;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gdelay_perfbench: golden op threw: %s\n",
                   e.what());
    }
    std::printf("# golden %s %s %s\n", key.c_str(), hex(d).c_str(),
                ok ? "ok" : "MISMATCH");
    tally.count(ok, "golden digest of " + key);
  }

  std::vector<OpRecord> ops;
  std::uint64_t k[kPasses] = {0, 0};
  const auto steal0 = cpu_steal_jiffies();
  const auto loop_t0 = Clock::now();
  for (std::uint64_t slot = 0;; ++slot) {
    const double elapsed = ns_between(loop_t0, Clock::now()) * 1e-9;
    const bool enough = std::min(k[0], k[1]) >= kMinOpsPerPass;
    if ((elapsed >= a.seconds && enough) || elapsed >= kMaxLoopSeconds)
      break;
    const int pass = (slot % 4 == 0 || slot % 4 == 3) ? 0 : 1;  // ABBA
    for (const bool traced : {false, true}) {
      if (traced && !a.trace) break;
      double work = 0.0;
      const double secs = timed_op(*wl, k[pass], pass, traced, tally, &work);
      if (secs >= 0.0) ops.push_back({pass, traced, secs, work});
    }
    ++k[pass];
  }

  // Plain ops: per-pass median op rate and the auto pass's op latencies.
  std::vector<double> rate[kPasses], auto_ms, plain_s, traced_s;
  for (const OpRecord& r : ops) {
    (r.traced ? traced_s : plain_s).push_back(r.seconds);
    if (r.traced) continue;
    rate[r.pass].push_back(r.work / r.seconds);
    if (r.pass == 1) auto_ms.push_back(r.seconds * 1e3);
  }
  if (rate[0].empty() || rate[1].empty()) {
    std::fprintf(stderr, "gdelay_perfbench: no op completed\n");
    return 1;
  }

  std::ostringstream m;
  bool first = true;
  if (!a.trace) {
    print_metric(m, first, "setup_s", median(setup_s), "s");
    print_metric(m, first, "peak_rss_mib", peak_rss_mib(), "MiB");
    print_metric(m, first, "work_per_s_scalar", median(rate[0]), "1/s");
    print_metric(m, first, "work_per_s_auto", median(rate[1]), "1/s");
    print_metric(m, first, "op_ms_p50", median(auto_ms), "ms");
  } else {
    LayerMetrics layers;
    wl->report_layers(layers);
    for (const auto& [name, v] : layers)
      print_metric(m, first, name, v.value, v.unit);
    // Same inputs, same backend order: the traced run's own end-to-end
    // time against the plain one is the tracing overhead.
    const double plain_ms = median(plain_s) * 1e3;
    const double traced_ms = traced_s.empty() ? 0.0 : median(traced_s) * 1e3;
    std::printf("# traced run: median op %.6g ms plain, %.6g ms traced\n",
                plain_ms, traced_ms);
    const double overhead = traced_s.empty() ? 0.0 : traced_ms / plain_ms - 1.0;
    print_metric(m, first, "trace.overhead_share", overhead, "share");
    print_metric(m, first, "fail_share",
                 static_cast<double>(tally.failed) /
                     static_cast<double>(tally.attempted),
                 "share");
  }
  const auto steal1 = cpu_steal_jiffies();
  const double jiffies = steal1.second - steal0.second;
  print_stamp(a, *wl,
              jiffies > 0.0 ? (steal1.first - steal0.first) / jiffies : 0.0);
  std::printf("# ops scalar=%llu auto=%llu\n",
              static_cast<unsigned long long>(k[0]),
              static_cast<unsigned long long>(k[1]));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), m.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  gdelay::util::set_thread_count(kThreads);
  try {
    return a.print_golden ? print_golden(a) : run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gdelay_perfbench: %s\n", e.what());
    return 1;
  }
}
