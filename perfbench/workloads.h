// The benchmark's three workloads behind one interface.
//
// main.cpp sets a workload up, then runs operations in a
// closed loop for the run length: prepare(i) draws the operation's inputs,
// op(i) is the timed part, check_op(i) checks its outputs. In a traced run,
// replay(i) re-times single layer calls on the operation's own inputs
// after the operation has been timed. finish() runs the checks that need
// the whole run, and layer_counts() adds the exact per-run counts.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace pb {

/// Per-layer samples, by metric name; a metric's value is their median.
using LayerSamples = std::map<std::string, std::vector<double>>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

struct WorkloadContext {
  std::uint64_t seed = 1;
  std::string scratch_dir;  // checkpoint files
  Tracer* tracer = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed and stands the platform up.
  virtual void setup() = 0;
  /// Untimed work that must precede timing (cache warm-up).
  virtual void warm() {}
  /// Draws operation `index`'s inputs (untimed); appends faults found on
  /// the way.
  virtual void prepare(std::uint64_t /*index*/, std::vector<std::string>& /*faults*/) {}
  /// The timed operation. False when a platform call failed outright.
  virtual bool op(std::uint64_t index) = 0;
  /// Checks operation `index`'s outputs (untimed); appends faults.
  virtual void check_op(std::uint64_t index, std::vector<std::string>& faults) = 0;
  /// Traced runs only: layer timings taken on the operation's inputs.
  virtual void replay(std::uint64_t /*index*/, LayerSamples& /*layer*/) {}
  /// Whole-run checks after timing ends.
  virtual void finish(std::vector<std::string>& faults) = 0;
  /// Traced runs only: exact counts and derived layer metrics.
  virtual void layer_counts(LayerSamples& /*layer*/) {}
};

/// Linear-interpolation quantile (q in [0, 1]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double q);

const std::vector<std::string>& workload_names();

/// The per-layer metrics a traced pass of `workload` reports.
const std::vector<MetricSpec>& layer_metrics(const std::string& workload);

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadContext& context);

}  // namespace pb
