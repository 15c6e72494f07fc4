// perfbench — the platform's end-to-end benchmark.
//
//   perfbench --workload <clinic_ingest|analyst_reads|study_fit> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Sets the workload up several times (reporting the median as setup_s),
// then runs its operations in a closed loop for --seconds and checks every
// output. The last line of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans of every traced pass are written to
// <out-dir>/spans-<workload>.jsonl. A traced run measures its own workload
// for the whole run and then the other two for a short fixed pass, so that
// every traced run reports every per-layer metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using pb::LayerSamples;
using pb::percentile;

// Operations in the short traced pass of each companion workload.
constexpr std::uint64_t kCompanionOps = 3;
// Set-up runs at least kMinSetups times, and more (up to kMaxSetups) until
// the set-ups have taken kSetupBudgetS, so a set-up of a millisecond still
// gets a median over enough samples.
constexpr int kMinSetups = 3;
constexpr double kSetupBudgetS = 1.0;
constexpr int kMaxSetups = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench/out";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(64);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end && *end != '\0') usage(("malformed value for " + flag).c_str());
  }
  const auto& names = pb::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> faults;
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  double busy_s = 0;  // summed operation wall time
  double cpu_s = 0;   // process CPU time during operations
  double rss_mb = 0;
  LayerSamples layer;
};

/// Sets `name` up, then runs it until `seconds` have passed or `max_ops`
/// operations are done (0 = no cap).
PassResult run_pass(const std::string& name, const Options& options, bool traced,
                    double seconds, std::uint64_t max_ops) {
  PassResult result;
  pb::Tracer tracer(traced);
  pb::WorkloadContext context;
  context.seed = options.seed;
  context.scratch_dir = options.out_dir + "/ckpt-" + name;
  context.tracer = &tracer;

  // The last set-up is the one that runs.
  std::unique_ptr<pb::Workload> workload;
  double setup_total = 0;
  for (int s = 0; s < kMinSetups || (setup_total < kSetupBudgetS && s < kMaxSetups); ++s) {
    workload.reset();
    const double t0 = pb::now_us();
    workload = pb::make_workload(name, context);
    workload->setup();
    result.setup_s.push_back((pb::now_us() - t0) / 1e6);
    setup_total += result.setup_s.back();
  }
  workload->warm();

  // Only the operations themselves are timed: wall and CPU time spent in
  // prepare/check/replay (the benchmark's own work) count toward no metric.
  const double deadline = pb::now_us() + seconds * 1e6;
  for (std::uint64_t i = 0; (max_ops == 0 || i < max_ops) && pb::now_us() < deadline; ++i) {
    workload->prepare(i, result.faults);
    tracer.set_op(i);
    bool ok = false;
    double t0 = 0, t1 = 0;
    const double cpu0 = cpu_seconds();
    {
      pb::Tracer::Scope root(tracer, "op");
      t0 = pb::now_us();
      ok = workload->op(i);
      t1 = pb::now_us();
    }
    result.cpu_s += cpu_seconds() - cpu0;
    result.op_ms.push_back((t1 - t0) / 1000.0);
    result.busy_s += (t1 - t0) / 1e6;
    ++result.attempted;
    if (!ok) ++result.failed;
    workload->check_op(i, result.faults);
    if (traced) workload->replay(i, result.layer);
  }
  result.rss_mb = peak_rss_mb();
  workload->finish(result.faults);
  if (traced) {
    workload->layer_counts(result.layer);
    const std::string path = options.out_dir + "/spans-" + name + ".jsonl";
    if (!tracer.write(path)) result.faults.push_back("cannot write " + path);
  }
  return result;
}

void print_metric(std::string& json, const char* name, double value, const char* unit) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name, value, unit);
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse(argc, argv);
  std::filesystem::create_directories(options.out_dir);
  std::printf(
      "host: {\"hardware_threads\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"seed\": %llu, \"workload\": \"%s\", \"trace\": %d, \"seconds\": %g}\n",
      std::thread::hardware_concurrency(), PB_BUILD_TYPE, __VERSION__,
      static_cast<unsigned long long>(options.seed), options.workload.c_str(),
      options.trace ? 1 : 0, options.seconds);

  std::string metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> faults;
  try {
    PassResult main =
        run_pass(options.workload, options, options.trace, options.seconds, 0);
    attempted = main.attempted;
    failed = main.failed;
    faults = main.faults;
    if (!options.trace) {
      // Tails and means follow the shared host's neighbours more than the
      // program (see README, "Steadiness"), so they go to standard error
      // only; the result carries the median.
      const double ops = static_cast<double>(main.attempted);
      print_metric(metrics, "op_p50_ms", percentile(main.op_ms, 0.5), "ms");
      print_metric(metrics, "cpu_ms_per_op", main.cpu_s * 1000.0 / ops, "ms");
      print_metric(metrics, "peak_rss_mb", main.rss_mb, "MB");
      print_metric(metrics, "setup_s", percentile(main.setup_s, 0.5), "s");
      std::fprintf(stderr,
                   "%s: %llu ops in %.2f s of operations (%.2f ops/s), op p10/p50/p90 "
                   "%.3f/%.3f/%.3f ms, %zu setups\n",
                   options.workload.c_str(), static_cast<unsigned long long>(main.attempted),
                   main.busy_s, ops / main.busy_s, percentile(main.op_ms, 0.1),
                   percentile(main.op_ms, 0.5), percentile(main.op_ms, 0.9),
                   main.setup_s.size());
    } else {
      std::vector<std::pair<std::string, PassResult>> passes;
      passes.emplace_back(options.workload, std::move(main));
      for (const auto& other : pb::workload_names()) {
        if (other == options.workload) continue;
        passes.emplace_back(other, run_pass(other, options, true, options.seconds,
                                            kCompanionOps));
        auto& companion = passes.back().second;
        attempted += companion.attempted;
        failed += companion.failed;
        for (auto& f : companion.faults) faults.push_back(other + ": " + f);
      }
      for (const auto& [name, pass] : passes) {
        for (const auto& spec : pb::layer_metrics(name)) {
          auto it = pass.layer.find(spec.name);
          if (it == pass.layer.end() || it->second.empty()) {
            faults.push_back(std::string("no samples for ") + spec.name);
            continue;
          }
          print_metric(metrics, spec.name, percentile(it->second, 0.5), spec.unit);
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& f : faults) std::fprintf(stderr, "FAULT: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              faults.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return faults.empty() ? 0 : 2;
}
