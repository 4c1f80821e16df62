// Forwarding wrappers that put a span around every call the Stepper makes
// into the exchange (µ, δ) and the action rule. `State` and `Message` are
// aliases of the wrapped types, so the library's codecs (to_bytes,
// checkpoint_stepper, recover_run) apply to the wrapped exchange unchanged,
// and a Stepper over the wrappers produces the same RunRecord as one over
// the wrapped types.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>

#include "exchange/exchange.hpp"
#include "sim/stepper.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work the bench loop counts at the layer boundaries it wraps.
struct LoopCounters {
  std::size_t instances = 0;
  std::size_t rounds = 0;
  std::size_t action_calls = 0;
  std::size_t action_decides = 0;
  std::size_t bits = 0;
  std::size_t messages = 0;
  std::size_t encoded_bytes = 0;
  std::size_t decodes = 0;
  std::size_t delivered_payloads = 0;
  std::size_t bus_sent = 0;
  std::size_t bus_delivered = 0;
  std::size_t trace_bytes = 0;
  std::size_t store_bytes = 0;
  std::size_t fsyncs = 0;
  std::size_t crashes = 0;
};

/// Carries `Snapshot` only for exchanges with the borrowed-round pipeline,
/// so the Stepper picks the same round path for the wrapper as for X.
template <class X>
struct SnapshotAlias {};
template <class X>
  requires eba::BorrowedRoundExchange<X>
struct SnapshotAlias<X> {
  using Snapshot = typename X::Snapshot;
};

template <eba::ExchangeProtocol X>
class TracedExchange : public SnapshotAlias<X> {
 public:
  using State = typename X::State;
  using Message = typename X::Message;
  static constexpr bool kBroadcast = eba::BroadcastExchange<X>;

  TracedExchange(const X& x, Tracer& tracer) : x_(&x), tracer_(&tracer) {}

  [[nodiscard]] int n() const { return x_->n(); }
  [[nodiscard]] State initial_state(eba::AgentId i, eba::Value v) const {
    return x_->initial_state(i, v);
  }
  [[nodiscard]] std::optional<Message> message(const State& s,
                                               const eba::Action& a,
                                               eba::AgentId dest) const {
    Span span(*tracer_, SpanKind::message);
    return x_->message(s, a, dest);
  }
  [[nodiscard]] std::size_t message_bits(const Message& m) const {
    return x_->message_bits(m);
  }
  void update(State& s, const eba::Action& a,
              std::span<const std::optional<Message>> inbox) const {
    Span span(*tracer_, SpanKind::update);
    x_->update(s, a, inbox);
  }

  template <class Y = X>
    requires eba::BorrowedRoundExchange<Y>
  [[nodiscard]] typename Y::Snapshot take_snapshot(State& s) const {
    return x_->take_snapshot(s);
  }
  template <class Y = X>
    requires eba::BorrowedRoundExchange<Y>
  [[nodiscard]] std::size_t snapshot_bits(
      const typename Y::Snapshot& g) const {
    return x_->snapshot_bits(g);
  }
  template <class Y = X>
    requires eba::BorrowedRoundExchange<Y>
  void apply_round(State& s, const eba::Action& a, typename Y::Snapshot&& own,
                   eba::AgentSet received,
                   std::span<const typename Y::Snapshot* const> merged) const {
    Span span(*tracer_, SpanKind::update);
    x_->apply_round(s, a, std::move(own), received, merged);
  }

 private:
  const X* x_;
  Tracer* tracer_;
};

template <class P>
class TracedAction {
 public:
  TracedAction(const P& p, Tracer& tracer, LoopCounters& counters)
      : p_(&p), tracer_(&tracer), counters_(&counters) {}

  template <class State>
  [[nodiscard]] eba::Action operator()(const State& s) const {
    Span span(*tracer_, SpanKind::action);
    const eba::Action a = (*p_)(s);
    counters_->action_calls += 1;
    if (a.is_decide()) counters_->action_decides += 1;
    return a;
  }

 private:
  const P* p_;
  Tracer* tracer_;
  LoopCounters* counters_;
};

}  // namespace perfbench
