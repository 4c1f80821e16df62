// The workload template: input generation, the driver batch, and the bench
// loop that mirrors the driver's wire path (net/workload.hpp
// drive_workload with one worker) call for call, with a span around each
// call into a layer.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/certificate.hpp"
#include "audit/trace_file.hpp"
#include "failure/generators.hpp"
#include "net/bus.hpp"
#include "net/checkpoint.hpp"
#include "net/serialize.hpp"
#include "net/workload.hpp"
#include "sim/adaptive.hpp"
#include "sim/stepper.hpp"
#include "stats/rng.hpp"
#include "store/run_log.hpp"
#include "store/vfs.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace perfbench {

/// Vfs decorator that counts the bytes appended through it; everything
/// else forwards to the wrapped MemVfs.
class CountingVfs final : public eba::Vfs {
 public:
  explicit CountingVfs(eba::Vfs& inner) : inner_(&inner) {}

  [[nodiscard]] std::unique_ptr<eba::File> open_append(
      const std::string& path) override;
  [[nodiscard]] std::unique_ptr<eba::File> create(
      const std::string& path) override;
  [[nodiscard]] std::vector<std::uint8_t> read(
      const std::string& path) const override {
    return inner_->read(path);
  }
  [[nodiscard]] bool exists(const std::string& path) const override {
    return inner_->exists(path);
  }
  void rename(const std::string& from, const std::string& to) override {
    inner_->rename(from, to);
  }
  void remove(const std::string& path) override { inner_->remove(path); }
  void truncate(const std::string& path, std::uint64_t size) override {
    inner_->truncate(path, size);
  }
  [[nodiscard]] std::vector<std::string> list(
      const std::string& prefix) const override {
    return inner_->list(prefix);
  }
  void sync_dir(const std::string& prefix) override {
    inner_->sync_dir(prefix);
  }
  void make_dirs(const std::string& dir) override { inner_->make_dirs(dir); }
  void power_cut(const std::string& prefix,
                 const std::optional<eba::TearSpec>& tear = {}) override {
    inner_->power_cut(prefix, tear);
  }

  [[nodiscard]] std::size_t bytes_appended() const { return bytes_; }

 private:
  eba::Vfs* inner_;
  std::size_t bytes_ = 0;
};

/// Send-drop probability of the sampled SO patterns (static workloads).
inline constexpr double kDropProb = 0.3;

/// The journal geometry both the driver and the loop use.
[[nodiscard]] inline eba::JournalOptions bench_journal_options() {
  eba::JournalOptions opt;
  opt.page_size = 256;
  return opt;
}

template <class X, class P>
class Runner final : public Workload {
 public:
  Runner(WorkloadConfig cfg, std::uint64_t seed) : cfg_(std::move(cfg)) {
    if (cfg_.durable_adaptive)
      factories_ =
          eba::shipped_strategies(cfg_.n, cfg_.t, eba::FailureModel::general);
    const X x(cfg_.n);
    const P p(cfg_.n, cfg_.t);
    eba::Rng rng(seed);
    pool_.resize(cfg_.pool_batches);
    for (Batch& batch : pool_) {
      for (std::size_t k = 0; k < cfg_.batch_size; ++k) {
        std::vector<eba::Value> inits =
            cfg_.unanimous_one
                ? std::vector<eba::Value>(static_cast<std::size_t>(cfg_.n),
                                          eba::Value::one)
                : eba::sample_preferences(cfg_.n, rng);
        if (!cfg_.durable_adaptive) {
          const int faulty = rng.below(cfg_.t + 1);
          eba::FailurePattern alpha = eba::sample_adversary(
              cfg_.n, faulty, cfg_.t + 2, kDropProb, rng);
          eba::Stepper<X, P> bare(x, p, alpha, inits, cfg_.t);
          while (bare.step()) {
          }
          batch.expected.push_back(bare.take_record());
          batch.specs.push_back({std::move(alpha), std::move(inits)});
        } else {
          const std::size_t factory = rng.below(
              static_cast<int>(factories_.size()));
          const std::uint64_t strategy_seed = rng.raw();
          auto strategy = factories_[factory].make(strategy_seed);
          batch.expected.push_back(
              eba::run_adaptive(x, p, *strategy, inits, cfg_.t)
                  .summary.record);
          batch.factory.push_back(factory);
          batch.strategy_seed.push_back(strategy_seed);
          batch.inits.push_back(std::move(inits));
          // One mid-round crash per instance, inside a round the
          // uninterrupted run reaches, so every scheduled crash fires.
          batch.crashes.mid_rounds.push_back(
              {1 + rng.below(batch.expected.back().rounds)});
        }
      }
    }
  }

  [[nodiscard]] const WorkloadConfig& config() const override { return cfg_; }
  [[nodiscard]] std::size_t batches() const override { return pool_.size(); }

  void setup() override {
    x_ = std::make_unique<X>(cfg_.n);
    p_ = std::make_unique<P>(cfg_.n, cfg_.t);
  }

  BatchStats run_driver(std::size_t b, int workers) override {
    const Batch& batch = pool_[b];
    eba::WorkloadOptions opt;
    opt.workers = workers;
    BatchStats st;
    if (!cfg_.durable_adaptive) {
      const auto res = eba::run_workload(
          *x_, *p_, std::span<const eba::InstanceSpec>(batch.specs), cfg_.t,
          opt);
      for (std::size_t k = 0; k < batch.specs.size(); ++k)
        account(st, res.instances[k].record, batch.expected[k], nullptr);
      return st;
    }
    std::vector<eba::AdaptiveInstanceSpec> specs;
    specs.reserve(batch.inits.size());
    for (std::size_t k = 0; k < batch.inits.size(); ++k)
      specs.push_back({make_strategy(batch, k), batch.inits[k]});
    eba::MemVfs vfs;
    eba::DurableStoreOptions store;
    store.vfs = &vfs;
    store.root = "wl";
    store.journal = bench_journal_options();
    opt.snapshot_every = 1;
    opt.crashes = &batch.crashes;
    opt.record_traces = true;
    opt.store = &store;
    const auto res = eba::run_adaptive_workload(
        *x_, *p_, std::span<eba::AdaptiveInstanceSpec>(specs), cfg_.t, opt);
    for (std::size_t k = 0; k < specs.size(); ++k)
      account(st, res.instances[k].record, batch.expected[k],
              &res.traces[k]);
    st.crashes = res.crashes_injected;
    check_crashes(st, batch);
    return st;
  }

  BatchStats run_loop(std::size_t b, Tracer& tracer,
                      LoopCounters& counters) override {
    Loop loop(*this, pool_[b], tracer, counters);
    return loop.run();
  }

 private:
  using TX = TracedExchange<X>;
  using TP = TracedAction<P>;

  struct Batch {
    std::vector<eba::InstanceSpec> specs;  ///< static workloads
    std::vector<std::vector<eba::Value>> inits;  ///< durable_adaptive
    std::vector<std::size_t> factory;
    std::vector<std::uint64_t> strategy_seed;
    eba::CrashSchedule crashes;  ///< mid-round crashes only; empty if static
    std::vector<eba::RunRecord> expected;
  };

  [[nodiscard]] std::unique_ptr<eba::AdversaryStrategy> make_strategy(
      const Batch& batch, std::size_t k) const {
    return factories_[batch.factory[k]].make(batch.strategy_seed[k]);
  }

  static void account(BatchStats& st, const eba::RunRecord& got,
                      const eba::RunRecord& expected,
                      const eba::Bytes* trace) {
    st.instances += 1;
    std::optional<std::string> err = check_instance(got, expected);
    if (!err && trace) err = check_trace(*trace);
    if (err) {
      st.fail(std::move(*err));
      return;
    }
    st.decision_round_sum += last_nonfaulty_round(got);
  }

  void check_crashes(BatchStats& st, const Batch& batch) const {
    if (st.crashes == batch.crashes.mid_rounds.size()) return;
    std::string why = "injected ";
    why += std::to_string(st.crashes);
    why += " crashes, scheduled ";
    why += std::to_string(batch.crashes.mid_rounds.size());
    // A batch that skipped its crashes did not do the work it claims.
    st.failed = st.instances;
    st.errors.push_back(std::move(why));
  }

  /// One instance of the bench loop: the driver's ManagedInstance, over
  /// the traced wrappers.
  struct LoopInstance {
    LoopInstance(eba::Stepper<TX, TP> s, eba::BusPool::SlotId sl,
                 std::unique_ptr<eba::AdversaryStrategy> strat)
        : stepper(std::move(s)), slot(sl), strategy(std::move(strat)) {}

    eba::Stepper<TX, TP> stepper;
    eba::BusPool::SlotId slot = 0;
    std::unique_ptr<eba::AdversaryStrategy> strategy;
    eba::Bytes checkpoint;
    std::span<const int> mid_crash_rounds;
    std::size_t next_mid_crash = 0;
    std::optional<eba::TraceWriter> trace;
    std::optional<eba::RunLog> log;
    std::string log_dir;
  };

  /// The single-threaded round loop over one batch.
  class Loop {
   public:
    Loop(Runner& r, const Batch& batch, Tracer& tracer, LoopCounters& c)
        : r_(r),
          cfg_(r.cfg_),
          batch_(batch),
          tracer_(tracer),
          c_(c),
          tx_(*r.x_, tracer),
          tp_(*r.p_, tracer, c),
          vfs_(mem_) {}

    BatchStats run() {
      const std::size_t syncs_before = mem_.sync_count();
      {
        Span root(tracer_, SpanKind::loop);
        const std::size_t count = batch_.expected.size();
        {
          Span span(tracer_, SpanKind::bus_acquire);
          pool_.emplace(count);
        }
        admit(count);
        std::deque<std::size_t> ready;
        for (std::size_t k = 0; k < count; ++k) ready.push_back(k);
        while (!ready.empty()) {
          const std::size_t idx = ready.front();
          ready.pop_front();
          tracer_.set_instance(static_cast<std::uint32_t>(idx));
          if (!step_one(idx)) ready.push_back(idx);
        }
      }
      c_.store_bytes += vfs_.bytes_appended();
      c_.fsyncs += mem_.sync_count() - syncs_before;
      c_.crashes += st_.crashes;
      r_.check_crashes(st_, batch_);
      return std::move(st_);
    }

   private:
    /// run_workload / run_adaptive_workload admission plus
    /// prepare_durability.
    void admit(std::size_t count) {
      eba::StepperOptions sopt;
      insts_.reserve(count);
      for (std::size_t k = 0; k < count; ++k) {
        tracer_.set_instance(static_cast<std::uint32_t>(k));
        std::unique_ptr<eba::AdversaryStrategy> strategy;
        eba::FailurePattern alpha = eba::FailurePattern::failure_free(1);
        const std::vector<eba::Value>* inits = nullptr;
        if (!cfg_.durable_adaptive) {
          alpha = batch_.specs[k].alpha;
          inits = &batch_.specs[k].inits;
        } else {
          strategy = r_.make_strategy(batch_, k);
          Span span(tracer_, SpanKind::hook);
          alpha = strategy->base_pattern();
          inits = &batch_.inits[k];
        }
        std::optional<eba::Stepper<TX, TP>> stepper;
        {
          Span span(tracer_, SpanKind::stepper_init);
          stepper.emplace(tx_, tp_, alpha, *inits, cfg_.t, sopt);
        }
        eba::BusPool::SlotId slot = 0;
        {
          Span span(tracer_, SpanKind::bus_acquire);
          slot = pool_->acquire(std::move(alpha));
        }
        insts_.emplace_back(std::move(*stepper), slot, std::move(strategy));
        LoopInstance& inst = insts_.back();
        if (inst.strategy) {
          eba::AdversaryHook inner =
              eba::make_strategy_hook(*inst.strategy, cfg_.t);
          inst.stepper.set_adversary_hook(
              [inner = std::move(inner), tracer = &tracer_](
                  const eba::StagedRound& staged, eba::FailurePattern& a) {
                Span span(*tracer, SpanKind::hook);
                inner(staged, a);
              });
        }
      }
      if (!cfg_.durable_adaptive) return;
      for (std::size_t k = 0; k < count; ++k) {
        insts_[k].mid_crash_rounds = batch_.crashes.mid_rounds[k];
        tracer_.set_instance(static_cast<std::uint32_t>(k));
        const eba::RunRecord& rec = insts_[k].stepper.record();
        Span span(tracer_, SpanKind::trace_write);
        insts_[k].trace.emplace(static_cast<std::uint64_t>(k), rec.n, rec.t,
                                rec.nonfaulty, rec.inits);
      }
      for (std::size_t k = 0; k < count; ++k) {
        tracer_.set_instance(static_cast<std::uint32_t>(k));
        cut_checkpoint(insts_[k]);
      }
      for (std::size_t k = 0; k < count; ++k) {
        tracer_.set_instance(static_cast<std::uint32_t>(k));
        LoopInstance& inst = insts_[k];
        inst.log_dir = "wl/inst-";
        inst.log_dir += std::to_string(k);
        {
          Span span(tracer_, SpanKind::log_create_gc);
          inst.log.emplace(eba::RunLog::create(vfs_, inst.log_dir,
                                               bench_journal_options()));
        }
        Span span(tracer_, SpanKind::log_checkpoint);
        inst.log->log_checkpoint(inst.checkpoint);
      }
    }

    void cut_checkpoint(LoopInstance& inst) {
      Span span(tracer_, SpanKind::checkpoint);
      inst.checkpoint = eba::checkpoint_stepper(
          inst.stepper, inst.strategy->checkpoint_state());
    }

    /// drive_workload's restore_from_store.
    void recover(LoopInstance& inst, std::size_t idx) {
      Span span(tracer_, SpanKind::recover);
      const eba::JournalOptions jopt = bench_journal_options();
      vfs_.power_cut(inst.log_dir + "/");
      inst.log.emplace(eba::RunLog::open(vfs_, inst.log_dir, jopt));
      eba::RecoveredRun<TX, TP> recovered = eba::recover_run<TX, TP>(
          tx_, tp_, inst.log->journal().records(), inst.strategy.get());
      if (recovered.finished_intent) {
        Span delta(tracer_, SpanKind::log_delta);
        inst.log->log_delta(eba::delta_of_record(
            recovered.stepper.record(), recovered.stepper.time() - 1));
      }
      inst.stepper = std::move(recovered.stepper);
      {
        Span bus(tracer_, SpanKind::bus_acquire);
        inst.slot = pool_->acquire(inst.stepper.pattern(), inst.stepper.time());
      }
      const eba::RunRecord& rec = inst.stepper.record();
      Span trace(tracer_, SpanKind::trace_write);
      inst.trace.emplace(static_cast<std::uint64_t>(idx), rec.n, rec.t,
                         rec.nonfaulty, rec.inits);
      inst.trace->add_record_rounds(rec);
    }

    /// Durable intent record plus the scheduled mid-round crash; false =
    /// the instance dies here.
    bool on_staged(LoopInstance& inst, const std::vector<eba::Action>& acts) {
      const int m = inst.stepper.time();
      eba::IntentPayload intent;
      intent.round = m;
      intent.actions = acts;
      const eba::FailurePattern& alpha = inst.stepper.pattern();
      const int n = inst.stepper.n();
      intent.dropped_send.reserve(static_cast<std::size_t>(n));
      intent.dropped_receive.reserve(static_cast<std::size_t>(n));
      for (eba::AgentId i = 0; i < n; ++i) {
        intent.dropped_send.push_back(alpha.dropped(m, i));
        intent.dropped_receive.push_back(alpha.dropped_receive(m, i));
      }
      {
        Span span(tracer_, SpanKind::log_intent);
        inst.log->log_intent(intent);
      }
      if (inst.next_mid_crash < inst.mid_crash_rounds.size() &&
          m + 1 == inst.mid_crash_rounds[inst.next_mid_crash]) {
        inst.next_mid_crash += 1;
        return false;
      }
      return true;
    }

    /// One wire round of net/workload.hpp advance_wire_round_staged.
    void wire_round(LoopInstance& inst, const std::vector<eba::Action>& acts) {
      static_assert(eba::BroadcastExchange<X>,
                    "the loop mirrors the driver's one-payload-per-sender path");
      using Message = typename X::Message;
      const int n = cfg_.n;
      const std::size_t un = static_cast<std::size_t>(n);
      std::size_t bits = 0;
      std::size_t messages = 0;
      std::vector<std::optional<eba::Bytes>> outbox(un);
      for (eba::AgentId i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const std::optional<Message> m =
            tx_.message(inst.stepper.states()[ui], acts[ui], /*dest=*/0);
        if (!m) continue;
        bits += static_cast<std::size_t>(n - 1) * tx_.message_bits(*m);
        messages += static_cast<std::size_t>(n - 1);
        Span span(tracer_, SpanKind::encode);
        outbox[ui] = eba::to_bytes(*m);
        c_.encoded_bytes += outbox[ui]->size();
      }
      eba::BusPool::RoundResult res;
      {
        Span span(tracer_, SpanKind::bus_exchange);
        res = pool_->exchange_round(inst.slot, std::move(outbox));
      }
      for (std::size_t i = 0; i < un; ++i) {
        c_.bus_sent += static_cast<std::size_t>(res.sent[i].size());
        c_.bus_delivered += static_cast<std::size_t>(res.delivered[i].size());
      }
      std::vector<std::vector<std::optional<Message>>> inbox(
          un, std::vector<std::optional<Message>>(un));
      for (std::size_t from = 0; from < un; ++from) {
        std::optional<Message> decoded;
        for (std::size_t to = 0; to < un; ++to) {
          const auto& payload = res.inbox[to][from];
          if (!payload) continue;
          c_.delivered_payloads += 1;
          if (!decoded) {
            Span span(tracer_, SpanKind::decode);
            decoded = eba::from_bytes<Message>(*payload);
            c_.decodes += 1;
          }
          inbox[to][from] = *decoded;
        }
      }
      Span span(tracer_, SpanKind::finish_round);
      inst.stepper.finish_round(inbox, std::move(res.sent),
                                std::move(res.delivered), bits, messages);
    }

    /// drive_workload's step_one; true = the instance completed.
    bool step_one(std::size_t idx) {
      LoopInstance& inst = insts_[idx];
      const int before = inst.stepper.time();
      const std::vector<eba::Action>* acts = nullptr;
      {
        Span span(tracer_, SpanKind::begin_round);
        acts = inst.stepper.begin_round();
      }
      if (acts) {
        if (cfg_.durable_adaptive) {
          {
            Span span(tracer_, SpanKind::bus_update);
            pool_->update_pattern(inst.slot, inst.stepper.pattern());
          }
          if (!on_staged(inst, *acts)) {
            st_.crashes += 1;
            {
              Span span(tracer_, SpanKind::bus_acquire);
              pool_->release(inst.slot);
            }
            recover(inst, idx);
            return false;
          }
        }
        wire_round(inst, *acts);
      }
      const bool finished = inst.stepper.done();
      if (inst.stepper.time() > before && cfg_.durable_adaptive) {
        {
          Span span(tracer_, SpanKind::log_delta);
          inst.log->log_delta(
              eba::delta_of_record(inst.stepper.record(), before));
        }
        const eba::RunRecord& rec = inst.stepper.record();
        Span span(tracer_, SpanKind::trace_write);
        inst.trace->add_round(rec.actions.back(), rec.sent.back(),
                              rec.delivered.back());
      }
      if (!finished) {
        if (cfg_.durable_adaptive) {
          cut_checkpoint(inst);
          {
            Span span(tracer_, SpanKind::log_checkpoint);
            inst.log->log_checkpoint(inst.checkpoint);
          }
          Span span(tracer_, SpanKind::log_create_gc);
          inst.log->gc_keep_checkpoints(1);
        }
        return false;
      }
      finish(inst, idx);
      return true;
    }

    void finish(LoopInstance& inst, std::size_t idx) {
      eba::RunRecord record = inst.stepper.take_record();
      eba::Bytes trace;
      if (inst.trace) {
        eba::DecisionCertificate cert;
        {
          Span span(tracer_, SpanKind::certificate);
          cert = eba::build_certificate(record, static_cast<std::uint64_t>(idx));
        }
        Span span(tracer_, SpanKind::trace_write);
        trace = inst.trace->finish(cert);
      }
      {
        Span span(tracer_, SpanKind::bus_acquire);
        pool_->release(inst.slot);
      }
      c_.instances += 1;
      c_.rounds += static_cast<std::size_t>(record.rounds);
      c_.bits += inst.stepper.bits_sent();
      c_.messages += inst.stepper.messages_sent();
      c_.trace_bytes += trace.size();
      st_.instances += 1;
      std::optional<std::string> err;
      {
        Span span(tracer_, SpanKind::check);
        err = check_instance(record, batch_.expected[idx]);
      }
      if (!err && inst.trace) {
        Span span(tracer_, SpanKind::replay_verify);
        err = check_trace(trace);
      }
      if (err)
        st_.fail(std::move(*err));
      else
        st_.decision_round_sum += last_nonfaulty_round(record);
    }

    Runner& r_;
    const WorkloadConfig& cfg_;
    const Batch& batch_;
    Tracer& tracer_;
    LoopCounters& c_;
    TX tx_;
    TP tp_;
    eba::MemVfs mem_;
    CountingVfs vfs_;
    std::optional<eba::BusPool> pool_;
    std::vector<LoopInstance> insts_;
    BatchStats st_;
  };

  WorkloadConfig cfg_;
  std::vector<eba::NamedStrategyFactory> factories_;
  std::vector<Batch> pool_;
  std::unique_ptr<X> x_;
  std::unique_ptr<P> p_;
};

}  // namespace perfbench
