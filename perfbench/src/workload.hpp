// The benchmark's workloads behind one type-erased interface.
//
// A workload owns a pool of seeded input batches, generated (together with
// the expected RunRecord of every instance, from the bare in-memory
// Stepper) before anything is timed. It runs a batch two ways:
//
//  * `run_driver` — through the public instance-path entry point
//    (`run_workload` or `run_adaptive_workload`) with a worker count, then
//    checks every result. This is what the end-to-end metrics time.
//  * `run_loop` — through the benchmark's own single-threaded round loop,
//    which calls each layer's public function itself and records a span
//    around every call when the tracer is enabled (traced.hpp). The loop
//    mirrors the driver's wire path step for step and its results pass
//    the same checks, so the per-layer numbers describe the same work.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "net/serialize.hpp"
#include "trace.hpp"
#include "traced.hpp"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  std::string why;
  int n = 0;
  int t = 0;
  std::size_t batch_size = 0;
  std::size_t pool_batches = 0;
  /// run_adaptive_workload over shipped_strategies (GO) with EBTR traces,
  /// a RunLog on MemVfs snapshotting every round and one seeded mid-round
  /// crash per instance, instead of run_workload over sampled SO patterns.
  bool durable_adaptive = false;
  /// Every preference 1 (no 0-chain can short-circuit the run); otherwise
  /// uniformly random preferences.
  bool unanimous_one = false;
};

/// Outcome of one batch, after every correctness gate ran on it.
struct BatchStats {
  std::size_t instances = 0;
  std::size_t failed = 0;
  std::size_t crashes = 0;
  /// Sum over instances of the last nonfaulty decision round.
  double decision_round_sum = 0;
  std::vector<std::string> errors;  ///< first few gate failures

  void fail(std::string why);
  void merge(const BatchStats& o);
};

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const WorkloadConfig& config() const = 0;
  [[nodiscard]] virtual std::size_t batches() const = 0;
  /// Builds the protocol objects (exchange, action rule). Called once,
  /// after input generation and before the first batch.
  virtual void setup() = 0;
  [[nodiscard]] virtual BatchStats run_driver(std::size_t batch,
                                              int workers) = 0;
  [[nodiscard]] virtual BatchStats run_loop(std::size_t batch,
                                            Tracer& tracer,
                                            LoopCounters& counters) = 0;
};

[[nodiscard]] std::vector<WorkloadConfig> workload_configs();

/// Generates the named workload's input pool from `seed`; nullptr for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

// -- Correctness gates -------------------------------------------------------

/// One instance's result against its expected record: identical record,
/// `check_eba(...).ok_strict()`, and every nonfaulty agent decided.
/// Returns the first violation, or nullopt.
[[nodiscard]] std::optional<std::string> check_instance(
    const eba::RunRecord& got, const eba::RunRecord& expected);

/// An EBTR trace must pass `replay_verify`.
[[nodiscard]] std::optional<std::string> check_trace(const eba::Bytes& trace);

/// Last nonfaulty decision round of a record that passed check_instance.
[[nodiscard]] int last_nonfaulty_round(const eba::RunRecord& record);

/// Runs the gate self-test: a tampered trace and a mismatched record must
/// both be rejected. Returns the failures (empty = pass).
[[nodiscard]] std::vector<std::string> gate_selftest();

}  // namespace perfbench
