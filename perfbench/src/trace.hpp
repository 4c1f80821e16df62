// In-memory span recorder for the traced bench loop.
//
// Every call the loop makes into a layer's public function is wrapped in a
// `Span`: kind, start, end, parent span and instance id. Spans stay in a
// preallocated vector while a batch runs and are reduced (and kept for
// writing out) after it ends, so recording costs two clock reads and one
// append.
//
// With the tracer disabled a Span is one branch, which is how the untraced
// loop runs the very same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

namespace perfbench {

/// The layer boundary a span marks; main.cpp charges each kind's self time
/// to one per-layer metric.
enum class SpanKind : std::uint8_t {
  loop,              ///< one bench-loop batch (root; self = wire-round glue)
  stepper_init,      ///< Stepper construction
  begin_round,       ///< Stepper::begin_round
  finish_round,      ///< Stepper::finish_round
  action,            ///< the action rule (P_min / P_opt / P_opt_go)
  hook,              ///< adaptive strategy: base_pattern and on-round hook
  message,           ///< exchange µ
  update,            ///< exchange δ (update / apply_round)
  encode,            ///< net/serialize to_bytes
  decode,            ///< net/serialize from_bytes
  bus_acquire,       ///< BusPool construction / acquire / release
  bus_exchange,      ///< BusPool::exchange_round
  bus_update,        ///< BusPool::update_pattern
  trace_write,       ///< TraceWriter construction / add_round / finish
  certificate,       ///< build_certificate
  replay_verify,     ///< replay_verify
  checkpoint,        ///< checkpoint_stepper
  log_intent,        ///< RunLog::log_intent
  log_delta,         ///< RunLog::log_delta
  log_checkpoint,    ///< RunLog::log_checkpoint
  log_create_gc,     ///< RunLog::create / gc_keep_checkpoints
  recover,           ///< power_cut + RunLog::open + recover_run
  check,             ///< check_eba and the record comparison
  count_
};

inline constexpr std::size_t kSpanKinds =
    static_cast<std::size_t>(SpanKind::count_);

[[nodiscard]] const char* to_string(SpanKind k);

struct SpanRecord {
  std::int64_t start = 0;  ///< ns since the tracer's epoch
  std::int64_t end = 0;
  std::uint32_t parent = 0;
  std::uint32_t instance = 0;
  SpanKind kind = SpanKind::loop;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  void enable(std::size_t capacity) {
    // Touch the whole buffer once so recording never takes a page fault.
    spans_.assign(capacity, SpanRecord{});
    spans_.clear();
    current_ = kNoParent;
    enabled_ = true;
    epoch_ = Clock::now();
  }
  void disable() { enabled_ = false; }
  /// Forgets the recorded spans; the buffer and the epoch stay.
  void clear() {
    spans_.clear();
    current_ = kNoParent;
  }

  void set_instance(std::uint32_t id) { instance_ = id; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class Span;

  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::uint32_t current_ = kNoParent;
  std::uint32_t instance_ = 0;
  Clock::time_point epoch_{};
};

/// RAII span: records [construction, destruction) as a child of the span
/// open at construction time.
class Span {
 public:
  Span(Tracer& tracer, SpanKind kind) : tracer_(&tracer) {
    if (!tracer.enabled_) return;
    index_ = static_cast<std::uint32_t>(tracer.spans_.size());
    parent_ = tracer.current_;
    tracer.current_ = index_;
    tracer.spans_.push_back(SpanRecord{.start = 0,
                                       .end = 0,
                                       .parent = parent_,
                                       .instance = tracer.instance_,
                                       .kind = kind});
    tracer.spans_.back().start = tracer.now();
  }
  ~Span() {
    if (index_ == Tracer::kNoParent) return;
    tracer_->spans_[index_].end = tracer_->now();
    tracer_->current_ = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_ = Tracer::kNoParent;
  std::uint32_t parent_ = Tracer::kNoParent;
};

/// What recording one span costs, measured on this machine: `outside_ns` is
/// charged to the parent's self time (the clock read and append before the
/// child's start plus the clock read after its end), `inside_ns` to the
/// span's own duration.
struct SpanCost {
  double outside_ns = 0;
  double inside_ns = 0;
};

/// One measurement of SpanCost, recorded in `probe` (whose spans it
/// replaces); callers take the median of many.
[[nodiscard]] SpanCost measure_span_cost(Tracer& probe);

/// Per-kind totals of recorded spans. `self_ns` is each span's duration
/// minus its children's durations, with the calibrated recording cost of
/// the span itself and of its children taken out, so the self times of all
/// kinds add up to what the same loop costs untraced.
struct SpanTotals {
  double self_ns[kSpanKinds] = {};
  double inclusive_ns[kSpanKinds] = {};
  std::size_t spans = 0;

  [[nodiscard]] double self(SpanKind k) const {
    return self_ns[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double inclusive(SpanKind k) const {
    return inclusive_ns[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] double self_sum() const {
    double s = 0;
    for (double v : self_ns) s += v;
    return s;
  }

  /// Adds one traced batch's spans, recorded at the given span cost.
  void add(const std::vector<SpanRecord>& batch, const SpanCost& cost);
};

/// Appends `batch` to `kept` while `kept` holds fewer than `limit` spans,
/// rebasing parent indices so the kept spans stay one consistent tree.
void keep_spans(std::vector<SpanRecord>& kept,
                const std::vector<SpanRecord>& batch, std::size_t limit);

/// Writes every span as one tab-separated line:
/// index, kind, parent (-1 for a root), instance, start_ns, end_ns.
void write_spans_tsv(std::ostream& os, const std::vector<SpanRecord>& spans);

}  // namespace perfbench
