#include <algorithm>
#include <utility>

#include "action/p_min.hpp"
#include "action/p_opt.hpp"
#include "action/p_opt_go.hpp"
#include "core/spec.hpp"
#include "exchange/fip.hpp"
#include "exchange/min.hpp"
#include "runner.hpp"

namespace perfbench {

namespace {

class CountingFile final : public eba::File {
 public:
  CountingFile(std::unique_ptr<eba::File> inner, std::size_t& bytes)
      : inner_(std::move(inner)), bytes_(&bytes) {}

  using eba::File::append;
  void append(const std::uint8_t* data, std::size_t len) override {
    inner_->append(data, len);
    *bytes_ += len;
  }
  void sync() override { inner_->sync(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<eba::File> inner_;
  std::size_t* bytes_;
};

constexpr std::size_t kMaxErrors = 8;

}  // namespace

std::unique_ptr<eba::File> CountingVfs::open_append(const std::string& path) {
  return std::make_unique<CountingFile>(inner_->open_append(path), bytes_);
}

std::unique_ptr<eba::File> CountingVfs::create(const std::string& path) {
  return std::make_unique<CountingFile>(inner_->create(path), bytes_);
}

void BatchStats::fail(std::string why) {
  failed += 1;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(why));
}

void BatchStats::merge(const BatchStats& o) {
  instances += o.instances;
  failed += o.failed;
  crashes += o.crashes;
  decision_round_sum += o.decision_round_sum;
  for (const std::string& e : o.errors)
    if (errors.size() < kMaxErrors) errors.push_back(e);
}

std::optional<std::string> check_instance(const eba::RunRecord& got,
                                          const eba::RunRecord& expected) {
  if (!(got == expected))
    return "record differs from the in-memory engine's on the same inputs";
  const eba::SpecReport spec = eba::check_eba(got);
  if (!spec.ok_strict()) {
    std::string why = "EBA spec violated";
    for (const std::string& v : spec.violations) {
      why += "; ";
      why += v;
    }
    return why;
  }
  for (eba::AgentId i : got.nonfaulty)
    if (!got.decision(i)) return "a nonfaulty agent never decided";
  return std::nullopt;
}

std::optional<std::string> check_trace(const eba::Bytes& trace) {
  const eba::ReplayReport report = eba::replay_verify(trace);
  if (report.ok) return std::nullopt;
  return "replay_verify rejected the trace: " + report.summary();
}

int last_nonfaulty_round(const eba::RunRecord& record) {
  int last = 0;
  for (eba::AgentId i : record.nonfaulty)
    if (const auto d = record.decision(i)) last = std::max(last, d->round);
  return last;
}

std::vector<WorkloadConfig> workload_configs() {
  std::vector<WorkloadConfig> out;
  {
    WorkloadConfig c;
    c.name = "wire_pmin_n8";
    c.why =
        "P_min n=8: protocol work is a small share of each instance, so the "
        "net codec, bus, scheduler and sim bookkeeping dominate; knowledge "
        "tests are bypassed";
    c.n = 8;
    c.t = 2;
    c.batch_size = 256;
    c.pool_batches = 32;
    out.push_back(std::move(c));
  }
  {
    WorkloadConfig c;
    c.name = "knowledge_popt_n16";
    c.why =
        "P_opt n=16, all preferences 1: exchange graph merges and the "
        "action rule's knowledge tests dominate, with few large payloads; "
        "store and audit are bypassed";
    c.n = 16;
    c.t = 4;
    c.batch_size = 16;
    c.pool_batches = 64;
    c.unanimous_one = true;
    out.push_back(std::move(c));
  }
  {
    WorkloadConfig c;
    c.name = "durable_go_adaptive_n8";
    c.why =
        "P_opt_go n=8 under adaptive GO strategies with a RunLog on MemVfs, "
        "EBTR traces, one mid-round crash per instance and replay_verify: "
        "loads store and audit";
    c.n = 8;
    c.t = 2;
    c.batch_size = 32;
    c.pool_batches = 64;
    c.durable_adaptive = true;
    out.push_back(std::move(c));
  }
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  for (WorkloadConfig& c : workload_configs()) {
    if (c.name != name) continue;
    if (name == "wire_pmin_n8")
      return std::make_unique<Runner<eba::MinExchange, eba::PMin>>(
          std::move(c), seed);
    if (name == "knowledge_popt_n16")
      return std::make_unique<Runner<eba::FipExchange, eba::POpt>>(
          std::move(c), seed);
    return std::make_unique<Runner<eba::FipExchange, eba::POptGo>>(
        std::move(c), seed);
  }
  return nullptr;
}

std::vector<std::string> gate_selftest() {
  std::vector<std::string> failures;
  const int n = 4, t = 1;
  const eba::MinExchange x(n);
  const eba::PMin p(n, t);
  eba::Rng rng(7);
  const eba::FailurePattern alpha = eba::sample_adversary(n, 1, t + 2, 0.5, rng);
  eba::Stepper<eba::MinExchange, eba::PMin> stepper(
      x, p, alpha, eba::sample_preferences(n, rng), t);
  while (stepper.step()) {
  }
  const eba::RunRecord record = stepper.take_record();

  if (check_instance(record, record))
    failures.push_back("the record gate rejects a correct record");
  eba::RunRecord mismatched = record;
  mismatched.delivered[0][0] = mismatched.delivered[0][0].complement(n);
  if (!check_instance(mismatched, record))
    failures.push_back("the record gate accepts a mismatched record");
  eba::RunRecord undecided = record;
  for (auto& row : undecided.actions) std::fill(row.begin(), row.end(),
                                                eba::Action::noop());
  if (!check_instance(undecided, undecided))
    failures.push_back("the record gate accepts a run nobody decided in");

  const eba::Bytes trace = eba::write_trace(record, 3);
  if (check_trace(trace))
    failures.push_back("the trace gate rejects an untampered trace");
  for (std::size_t at : {trace.size() / 3, trace.size() / 2,
                         trace.size() - 1}) {
    eba::Bytes tampered = trace;
    tampered[at] ^= 0x40;
    if (!check_trace(tampered)) {
      std::string why = "the trace gate accepts a trace tampered at byte ";
      why += std::to_string(at);
      failures.push_back(std::move(why));
    }
  }
  return failures;
}

}  // namespace perfbench
