#include "trace.hpp"

namespace perfbench {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::loop: return "loop";
    case SpanKind::stepper_init: return "stepper_init";
    case SpanKind::begin_round: return "begin_round";
    case SpanKind::finish_round: return "finish_round";
    case SpanKind::action: return "action";
    case SpanKind::hook: return "hook";
    case SpanKind::message: return "message";
    case SpanKind::update: return "update";
    case SpanKind::encode: return "encode";
    case SpanKind::decode: return "decode";
    case SpanKind::bus_acquire: return "bus_acquire";
    case SpanKind::bus_exchange: return "bus_exchange";
    case SpanKind::bus_update: return "bus_update";
    case SpanKind::trace_write: return "trace_write";
    case SpanKind::certificate: return "certificate";
    case SpanKind::replay_verify: return "replay_verify";
    case SpanKind::checkpoint: return "checkpoint";
    case SpanKind::log_intent: return "log_intent";
    case SpanKind::log_delta: return "log_delta";
    case SpanKind::log_checkpoint: return "log_checkpoint";
    case SpanKind::log_create_gc: return "log_create_gc";
    case SpanKind::recover: return "recover";
    case SpanKind::check: return "check";
    case SpanKind::count_: break;
  }
  return "?";
}

void keep_spans(std::vector<SpanRecord>& kept,
                const std::vector<SpanRecord>& batch, std::size_t limit) {
  if (kept.size() + batch.size() > limit) return;
  const std::uint32_t base = static_cast<std::uint32_t>(kept.size());
  for (SpanRecord s : batch) {
    if (s.parent != Tracer::kNoParent) s.parent += base;
    kept.push_back(s);
  }
}

void write_spans_tsv(std::ostream& os, const std::vector<SpanRecord>& spans) {
  os << "index\tkind\tparent\tinstance\tstart_ns\tend_ns\n";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const SpanRecord& s = spans[k];
    os << k << '\t' << to_string(s.kind) << '\t';
    if (s.parent == Tracer::kNoParent)
      os << -1;
    else
      os << s.parent;
    os << '\t' << s.instance << '\t' << s.start << '\t' << s.end << '\n';
  }
}

namespace {

/// A few dozen cycles of dependent arithmetic: stands in for the work a
/// span encloses, so the clock reads overlap with work as they do in the
/// loop instead of running back to back.
std::uint64_t span_work(std::uint64_t x) {
  for (int k = 0; k < 8; ++k) x = x * 6364136223846793005ull + (x >> 29);
  return x;
}

}  // namespace

SpanCost measure_span_cost(Tracer& probe) {
  // The same children — a span around span_work — run once untraced and
  // once traced inside one parent: the parent's self time is the
  // children's outside cost, their durations minus the untraced time their
  // inside cost.
  constexpr std::size_t kChildren = 2000;
  std::uint64_t sink = 1;
  probe.disable();
  const Tracer::Clock::time_point t0 = Tracer::Clock::now();
  for (std::size_t c = 0; c < kChildren; ++c) {
    Span child(probe, SpanKind::check);
    sink = span_work(sink);
  }
  const double untraced = std::chrono::duration<double, std::nano>(
                              Tracer::Clock::now() - t0)
                              .count();
  probe.enable(kChildren + 1);
  {
    Span parent(probe, SpanKind::loop);
    for (std::size_t c = 0; c < kChildren; ++c) {
      Span child(probe, SpanKind::check);
      sink = span_work(sink);
    }
  }
  probe.disable();
  const auto& spans = probe.spans();
  double child_sum = 0;
  for (std::size_t k = 1; k < spans.size(); ++k)
    child_sum += static_cast<double>(spans[k].end - spans[k].start);
  const double parent_dur = static_cast<double>(spans[0].end - spans[0].start);
  // Keep the work observable so the compiler cannot drop it.
  if (sink == 0) probe.clear();
  return SpanCost{.outside_ns = (parent_dur - child_sum) / kChildren,
                  .inside_ns = (child_sum - untraced) / kChildren};
}

void SpanTotals::add(const std::vector<SpanRecord>& batch,
                     const SpanCost& cost) {
  spans += batch.size();
  std::vector<double> child_ns(batch.size(), 0.0);
  std::vector<std::uint32_t> children(batch.size(), 0);
  for (const SpanRecord& s : batch) {
    if (s.parent == Tracer::kNoParent) continue;
    child_ns[s.parent] += static_cast<double>(s.end - s.start);
    children[s.parent] += 1;
  }
  // Children always follow their parent, so one reverse pass folds each
  // span's corrected inclusive time into its parent's.
  std::vector<double> child_inclusive(batch.size(), 0.0);
  for (std::size_t k = batch.size(); k-- > 0;) {
    const SpanRecord& s = batch[k];
    const std::size_t kind = static_cast<std::size_t>(s.kind);
    const double self = static_cast<double>(s.end - s.start) - child_ns[k] -
                        static_cast<double>(children[k]) * cost.outside_ns -
                        cost.inside_ns;
    const double inclusive = self + child_inclusive[k];
    if (s.parent != Tracer::kNoParent) child_inclusive[s.parent] += inclusive;
    self_ns[kind] += self;
    inclusive_ns[kind] += inclusive;
  }
}

}  // namespace perfbench
