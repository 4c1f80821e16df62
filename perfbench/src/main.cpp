// perfbench: the instance-path benchmark. See perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--short] [--spans-out PATH]
//   perfbench --workload NAME --seed N --setup-only
//   perfbench --gate-selftest
//   perfbench --list
//
// --trace 0 prints the end-to-end metrics of the untraced driver run;
// --trace 1 prints the per-layer metrics of a separate run that times the
// driver at 1 and 2 workers, the untraced bench loop and the traced bench
// loop. The last stdout line is one JSON object; a human-readable table
// goes to stderr. Any failed correctness gate makes the exit code nonzero.
// --setup-only stops where the first timed batch would start; the untraced
// run starts itself that way a few times to measure set-up.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Fresh processes whose set-up the untraced run times (1 in --short mode);
/// setup_s is their median.
constexpr int kSetupProcesses = 7;

/// Worker threads of the timed driver batches (the machine this benchmark
/// was sized on reports nproc = 4).
constexpr int kWorkers = 2;
/// Equal slices of the timed window; instances_per_s is their median.
constexpr int kSlices = 10;
/// The traced run's cycle: attribution iterations, then one block of
/// back-to-back batches at each worker count after kWarmupBatches untimed.
constexpr double kAttributionSeconds = 0.7;
constexpr double kScalingBlockSeconds = 0.15;
constexpr int kWarmupBatches = 2;
/// Batches per phase in --short mode.
constexpr std::size_t kShortBatches = 3;
/// Spans kept in memory for --spans-out (32 bytes each).
constexpr std::size_t kSpanCapacity = 1'000'000;
/// Layer self times plus the residual must match the untraced 1-worker
/// driver cost per instance within this share.
constexpr double kReconcileBound = 0.10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void print(const BatchStats& total, bool correct) const {
    for (const Metric& m : metrics_)
      std::cerr << "  " << std::left << std::setw(44) << m.name << std::right
                << std::setw(18) << std::setprecision(6) << m.value << " "
                << m.unit << "\n";
    std::ostringstream out;
    out << std::setprecision(12);
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << total.instances
        << ", \"failed\": " << total.failed << ", \"metrics\": {";
    for (std::size_t k = 0; k < metrics_.size(); ++k) {
      if (k) out << ", ";
      out << "\"" << metrics_[k].name << "\": {\"value\": "
          << metrics_[k].value << ", \"unit\": \"" << metrics_[k].unit
          << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool short_mode = false;
  bool setup_only = false;
  std::string spans_out;
};

std::int64_t clock_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Set-up after input generation: the protocol objects plus one untimed
/// warm-up batch at the timed worker count.
BatchStats set_up(Workload& wl) {
  wl.setup();
  return wl.run_driver(0, kWorkers);
}

/// Runs this program again with `args` and returns its stdout; nullopt when
/// it cannot be started or does not exit with 0.
std::optional<std::string> run_self(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const char* self = "/proc/self/exe";
  std::vector<char*> argv{const_cast<char*>(self)};
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  while (spawned == 0) {
    const ssize_t got = read(fds[0], buf, sizeof buf);
    if (got > 0)
      out.append(buf, static_cast<std::size_t>(got));
    else if (got == 0 || errno != EINTR)
      break;
  }
  close(fds[0]);
  if (spawned != 0) return std::nullopt;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return std::nullopt;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

/// Set-up time of `count` fresh processes: from just before each is
/// started to where its first timed batch would start, minus its input
/// generation. Appends an error to `total` for a process that fails. The
/// two processes' clock readings compare because steady_clock is Linux's
/// CLOCK_MONOTONIC, which every process shares.
std::vector<double> measure_setup(const Args& args, int count,
                                  BatchStats& total) {
  std::vector<double> seconds;
  for (int k = 0; k < count; ++k) {
    const Clock::time_point start = Clock::now();
    const std::optional<std::string> out =
        run_self({"--workload", args.workload, "--seed",
                  std::to_string(args.seed), "--setup-only"});
    std::istringstream in(out.value_or(""));
    std::int64_t ready_ns = 0;
    std::int64_t generate_ns = 0;
    if (!(in >> ready_ns >> generate_ns)) {
      total.fail("a --setup-only process failed");
      continue;
    }
    seconds.push_back(
        static_cast<double>(ready_ns - clock_ns(start) - generate_ns) * 1e-9);
  }
  return seconds;
}

/// --setup-only: prints the clock reading where the first timed batch
/// would start and the nanoseconds input generation took.
bool report_setup(Workload& wl, double generate_s) {
  const BatchStats st = set_up(wl);
  const Clock::time_point ready = Clock::now();
  for (const std::string& e : st.errors) std::cerr << "FAILED: " << e << "\n";
  std::cout << clock_ns(ready) << " "
            << static_cast<std::int64_t>(generate_s * 1e9) << std::endl;
  return st.failed == 0;
}

// -- --trace 0: end-to-end metrics of the untraced driver -------------------

bool run_end_to_end(Workload& wl, const Args& args) {
  BatchStats total = set_up(wl);
  const std::size_t pool = wl.batches();

  // The timed window cycles over the input pool; it lasts at least
  // --seconds and at least one full pass, so mean_decision_round covers
  // exactly the seed's pool. It is cut into kSlices equal slices by batch
  // end time; each metric is the median over slices of the slice's value,
  // so a stall that hits one slice does not move the result. A slice's
  // rate is over the wall time of its batches, which run back to back.
  struct Slice {
    std::size_t instances = 0;
    std::vector<double> batch_ms;
  };
  std::vector<Slice> slices(kSlices);
  const double slice_s = args.seconds / kSlices;
  std::size_t batches = 0;
  std::vector<char> seen(pool, 0);
  std::size_t seen_batches = 0;
  double decision_sum = 0;
  std::size_t decided_instances = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  for (std::size_t b = 0;; ++b) {
    const std::size_t pb = b % pool;
    const Clock::time_point t0 = Clock::now();
    const BatchStats st = wl.run_driver(pb, kWorkers);
    const Clock::time_point t1 = Clock::now();
    elapsed = seconds_between(start, t1);
    // --short runs a few batches into the first slice.
    const std::size_t s = args.short_mode
                              ? 0
                              : static_cast<std::size_t>(elapsed / slice_s);
    if (s < slices.size()) {
      slices[s].instances += st.instances;
      slices[s].batch_ms.push_back(seconds_between(t0, t1) * 1e3);
      batches += 1;
    }
    total.merge(st);
    if (!seen[pb]) {
      seen[pb] = 1;
      seen_batches += 1;
      decision_sum += st.decision_round_sum;
      decided_instances += st.instances - st.failed;
    }
    if (args.short_mode ? b + 1 >= kShortBatches
                        : elapsed >= args.seconds && seen_batches == pool)
      break;
  }
  if (args.short_mode) slices.resize(1);
  // Set-up is timed in fresh processes after the window, so it holds what
  // a process pays once (start-up, first touches, worker threads) and the
  // window holds none of it.
  const std::vector<double> setup_s =
      measure_setup(args, args.short_mode ? 1 : kSetupProcesses, total);

  std::vector<double> rate, p50, p90;
  std::size_t fewest = batches;
  for (const Slice& sl : slices) {
    double busy_ms = 0;
    for (const double ms : sl.batch_ms) busy_ms += ms;
    rate.push_back(ratio(static_cast<double>(sl.instances), busy_ms * 1e-3));
    p50.push_back(quantile(sl.batch_ms, 0.5));
    p90.push_back(quantile(sl.batch_ms, 0.9));
    fewest = std::min(fewest, sl.batch_ms.size());
  }

  const bool correct = total.failed == 0;
  std::cerr << "perfbench " << wl.config().name << ": " << batches
            << " timed batches of " << wl.config().batch_size
            << " instances at " << kWorkers << " workers (nproc "
            << std::thread::hardware_concurrency() << "), "
            << slices.size() << " slices of >= " << fewest
            << " batches, window " << elapsed << " s; set-up in "
            << setup_s.size() << " fresh processes: median "
            << quantile(setup_s, 0.5) << " s, min " << quantile(setup_s, 0.0)
            << " s, max " << quantile(setup_s, 1.0) << " s\n";
  Report report;
  report.add("instances_per_s", quantile(rate, 0.5), "1/s");
  report.add("batch_p50_ms", quantile(p50, 0.5), "ms");
  report.add("batch_p90_ms", quantile(p90, 0.5), "ms");
  report.add("mean_decision_round",
             ratio(decision_sum, static_cast<double>(decided_instances)),
             "rounds");
  report.add("passed_ratio",
             ratio(static_cast<double>(total.instances - total.failed),
                   static_cast<double>(total.instances)),
             "fraction");
  report.add("setup_s", quantile(setup_s, 0.5), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  for (const std::string& e : total.errors) std::cerr << "FAILED: " << e << "\n";
  report.print(total, correct);
  return correct;
}

// -- --trace 1: per-layer metrics ---------------------------------------------

/// Accumulated time and instances of one way of running a batch.
struct Tally {
  double seconds = 0;
  std::size_t instances = 0;
  std::size_t runs = 0;

  void add(double s, std::size_t n) {
    seconds += s;
    instances += n;
    runs += 1;
  }
  [[nodiscard]] double ns_per_instance() const {
    return ratio(seconds * 1e9, static_cast<double>(instances));
  }
};

bool run_per_layer(Workload& wl, const Args& args) {
  BatchStats total;
  const std::size_t pool = wl.batches();
  Tracer untraced;  // never enabled: the loop's spans cost one branch
  Tracer tracer;
  Tracer calibration;
  LoopCounters untraced_counters;  // the traced loop counts the same work
  LoopCounters counters;

  wl.setup();
  total.merge(wl.run_driver(0, 1));
  total.merge(wl.run_loop(0, untraced, untraced_counters));

  // The run alternates two parts until the time is up.
  //
  // Attribution: each iteration runs one pool batch through the driver at
  // 1 worker, the untraced loop and the traced loop, so drift in the host's
  // speed hits all three alike. A traced batch's spans are reduced right
  // after it, with the span cost measured just before it; the first
  // kSpanCapacity spans are kept for --spans-out.
  //
  // Scaling: a block of back-to-back batches at 1 worker, then one at
  // kWorkers, as in the untraced run. Each block starts with untimed
  // batches: workers that start on CPUs idle for a while run slower.
  Tally driver1, loop, traced;
  std::vector<double> scaling;  // per block pair: kWorkers rate / 1-worker
  SpanTotals spans;
  std::vector<SpanRecord> kept;
  kept.reserve(kSpanCapacity);
  double span_cost_sum = 0;
  tracer.enable(kSpanCapacity / 8);
  std::size_t b = 0;
  const auto iterate = [&] {
    const std::size_t pb = b++ % pool;
    const Clock::time_point t0 = Clock::now();
    const BatchStats s1 = wl.run_driver(pb, 1);
    const Clock::time_point t1 = Clock::now();
    const BatchStats s2 = wl.run_loop(pb, untraced, untraced_counters);
    const Clock::time_point t2 = Clock::now();
    const SpanCost cost = measure_span_cost(calibration);
    tracer.clear();
    const Clock::time_point t3 = Clock::now();
    const BatchStats s3 = wl.run_loop(pb, tracer, counters);
    const Clock::time_point t4 = Clock::now();
    for (const BatchStats* st : {&s1, &s2, &s3}) total.merge(*st);
    driver1.add(seconds_between(t0, t1), s1.instances);
    loop.add(seconds_between(t1, t2), s2.instances);
    traced.add(seconds_between(t3, t4), s3.instances);
    spans.add(tracer.spans(), cost);
    span_cost_sum += cost.outside_ns + cost.inside_ns;
    keep_spans(kept, tracer.spans(), kSpanCapacity);
  };
  const auto block_rate = [&](int workers) {
    for (int w = 0; w < kWarmupBatches; ++w)
      total.merge(wl.run_driver(b++ % pool, workers));
    std::size_t done = 0;
    std::size_t timed = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0;
    do {
      const BatchStats st = wl.run_driver(b++ % pool, workers);
      total.merge(st);
      done += st.instances;
      timed += 1;
      elapsed = seconds_between(t0, Clock::now());
    } while (args.short_mode ? timed < kShortBatches
                             : elapsed < kScalingBlockSeconds);
    return ratio(static_cast<double>(done), elapsed);
  };
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point chunk = Clock::now();
    do {
      iterate();
    } while (args.short_mode ? b < kShortBatches
                             : seconds_between(chunk, Clock::now()) <
                                   kAttributionSeconds);
    const double rate1 = block_rate(1);
    scaling.push_back(ratio(block_rate(kWorkers), rate1));
    if (args.short_mode || seconds_between(start, Clock::now()) >= args.seconds)
      break;
  }
  tracer.disable();
  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    write_spans_tsv(out, kept);
  }

  const double inst = static_cast<double>(counters.instances);
  const double driver1_ns = driver1.ns_per_instance();
  const double loop_ns = loop.ns_per_instance();
  const double residual = driver1_ns - loop_ns;
  const auto per = [&](double v) { return ratio(v, inst); };
  const auto self = [&](SpanKind k) { return per(spans.self(k)); };
  const double layers = per(spans.self_sum()) + residual;
  const double reconcile_error =
      ratio(std::abs(layers - driver1_ns), driver1_ns);
  // A few batches (--short) are too few for the sums to settle.
  const bool reconciled =
      args.short_mode || reconcile_error <= kReconcileBound;

  Report report;
  report.add("sim.stepper.self_ns_per_instance",
             self(SpanKind::stepper_init) + self(SpanKind::begin_round) +
                 self(SpanKind::finish_round),
             "ns");
  report.add("sim.rounds_per_instance", per(counters.rounds), "rounds");
  report.add("sim.adaptive.hook_ns_per_instance", self(SpanKind::hook), "ns");
  report.add("action.ns_per_instance", self(SpanKind::action), "ns");
  report.add("action.calls_per_instance", per(counters.action_calls), "count");
  report.add("action.decides_per_call",
             ratio(counters.action_decides, counters.action_calls),
             "fraction");
  report.add("exchange.message.ns_per_instance", self(SpanKind::message),
             "ns");
  report.add("exchange.update.ns_per_instance", self(SpanKind::update), "ns");
  report.add("exchange.bits_per_instance", per(counters.bits), "bits");
  report.add("exchange.messages_per_instance", per(counters.messages),
             "count");
  report.add("serialize.encode.ns_per_instance", self(SpanKind::encode), "ns");
  report.add("serialize.decode.ns_per_instance", self(SpanKind::decode), "ns");
  report.add("serialize.bytes_per_instance", per(counters.encoded_bytes),
             "bytes");
  report.add("serialize.decodes_per_delivered_payload",
             ratio(counters.decodes, counters.delivered_payloads), "fraction");
  report.add("bus.exchange_round.ns_per_instance",
             self(SpanKind::bus_exchange), "ns");
  report.add("bus.acquire_release.ns_per_instance",
             self(SpanKind::bus_acquire), "ns");
  report.add("bus.update_pattern.ns_per_instance", self(SpanKind::bus_update),
             "ns");
  report.add("bus.delivered_ratio",
             ratio(counters.bus_delivered, counters.bus_sent), "fraction");
  report.add("audit.trace.ns_per_instance", self(SpanKind::trace_write), "ns");
  report.add("audit.certificate.ns_per_instance", self(SpanKind::certificate),
             "ns");
  report.add("audit.replay_verify.ns_per_instance",
             self(SpanKind::replay_verify), "ns");
  report.add("audit.trace_bytes_per_instance", per(counters.trace_bytes),
             "bytes");
  report.add("store.checkpoint_encode.ns_per_instance",
             self(SpanKind::checkpoint), "ns");
  report.add("store.log_intent.ns_per_instance", self(SpanKind::log_intent),
             "ns");
  report.add("store.log_delta.ns_per_instance", self(SpanKind::log_delta),
             "ns");
  report.add("store.log_checkpoint.ns_per_instance",
             self(SpanKind::log_checkpoint), "ns");
  report.add("store.create_gc.ns_per_instance", self(SpanKind::log_create_gc),
             "ns");
  report.add("store.recover.self_ns_per_instance", self(SpanKind::recover),
             "ns");
  report.add("store.recover.ns_per_crash",
             ratio(spans.inclusive(SpanKind::recover), counters.crashes),
             "ns");
  report.add("store.bytes_appended_per_instance", per(counters.store_bytes),
             "bytes");
  report.add("store.fsyncs_per_instance", per(counters.fsyncs), "count");
  report.add("store.crashes_per_instance", per(counters.crashes), "count");
  report.add("check.ns_per_instance", self(SpanKind::check), "ns");
  report.add("workload.wire_glue.ns_per_instance", self(SpanKind::loop), "ns");
  report.add("workload.residual_ns_per_instance", residual, "ns");
  report.add("workload.driver_1w_ns_per_instance", driver1_ns, "ns");
  report.add("workload.loop_ns_per_instance", loop_ns, "ns");
  report.add("pool.scaling_2w", quantile(scaling, 0.5), "ratio");
  report.add("trace.overhead_ratio", ratio(traced.ns_per_instance(), loop_ns),
             "ratio");
  report.add("trace.span_cost_ns",
             ratio(span_cost_sum, static_cast<double>(traced.runs)), "ns");
  report.add("trace.spans_per_instance",
             per(static_cast<double>(spans.spans)), "count");
  report.add("trace.instances", inst, "count");
  report.add("reconcile.layers_ns_per_instance", layers, "ns");
  report.add("reconcile.error_ratio", reconcile_error, "fraction");

  std::cerr << "perfbench " << wl.config().name << " (traced): "
            << counters.instances << " traced instances, "
            << traced.runs << " iterations, reconcile error "
            << reconcile_error << " (bound " << kReconcileBound << ")\n";
  if (!reconciled)
    std::cerr << "FAILED: layer self times plus the residual do not add up "
                 "to the 1-worker driver cost\n";
  for (const std::string& e : total.errors) std::cerr << "FAILED: " << e << "\n";
  const bool correct = total.failed == 0 && reconciled;
  report.print(total, correct);
  return correct;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--short] [--spans-out PATH]\n"
               "       perfbench --workload NAME --seed N --setup-only\n"
               "       perfbench --gate-selftest | --list\n";
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.seconds = std::stod(value());
    } else if (a == "--trace") {
      args.trace = std::stoi(value());
    } else if (a == "--short") {
      args.short_mode = true;
    } else if (a == "--setup-only") {
      args.setup_only = true;
    } else if (a == "--spans-out") {
      args.spans_out = value();
    } else if (a == "--gate-selftest") {
      const std::vector<std::string> failures = gate_selftest();
      for (const std::string& f : failures) std::cerr << "FAILED: " << f << "\n";
      if (failures.empty()) std::cerr << "gate self-test passed\n";
      return failures.empty() ? 0 : 1;
    } else if (a == "--list") {
      for (const WorkloadConfig& c : workload_configs())
        std::cout << c.name << "\t" << c.why << "\n";
      return 0;
    } else {
      return usage();
    }
  }
  if (args.trace != 0 && args.trace != 1) return usage();
  if (!(args.seconds > 0)) return usage();
  const Clock::time_point generate = Clock::now();
  std::unique_ptr<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return usage();
  }
  const double generate_s = seconds_between(generate, Clock::now());
  const bool ok = args.setup_only ? report_setup(*wl, generate_s)
                  : args.trace    ? run_per_layer(*wl, args)
                                  : run_end_to_end(*wl, args);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }
}
