#include "session/checkpoint.hpp"

#include <new>

#include "netlist/netlist.hpp"
#include "opt/powder.hpp"
#include "trace/audit.hpp"
#include "trace/metrics.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace powder {
namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xFF);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  std::uint64_t digest() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

}  // namespace

std::uint64_t netlist_fingerprint(const Netlist& netlist) {
  Fnv h;
  h.u64(netlist.num_slots());
  for (GateId g = 0; g < static_cast<GateId>(netlist.num_slots()); ++g) {
    if (!netlist.alive(g)) {
      h.u64(0xDEAD);
      continue;
    }
    h.u64(static_cast<std::uint64_t>(netlist.kind(g)));
    h.i64(netlist.cell_id(g));
    h.bytes(netlist.gate_name(g));
    for (const GateId fi : netlist.fanins(g))
      h.u64(static_cast<std::uint64_t>(fi));
    h.u64(0xF00D);  // fanin-list terminator: {a,b},{c} != {a},{b,c}
  }
  h.u64(0x1217);
  for (const GateId g : netlist.inputs()) h.u64(g);
  h.u64(0x0D17);
  for (const GateId g : netlist.outputs()) h.u64(g);
  h.u64(0x1A7C);
  for (const Latch& l : netlist.latches()) {
    h.u64(l.input);
    h.u64(l.output);
    h.i64(l.init);
  }
  return h.digest();
}

std::uint64_t options_fingerprint(const PowderOptions& o) {
  // Only fields that steer the deterministic decision sequence; execution
  // knobs (threads, deadline, pools, sinks, session paths) excluded so a
  // resume may change them. Keep in sync with DESIGN.md §10.2.
  Fnv h;
  h.u64(static_cast<std::uint64_t>(o.objective));
  h.i64(o.num_patterns);
  h.u64(o.pi_probs.size());
  for (const double p : o.pi_probs) h.f64(p);
  h.u64(o.seed);
  h.i64(o.repeat);
  h.f64(o.delay_limit_factor);
  h.f64(o.min_gain);
  h.i64(o.shortlist);
  h.i64(o.max_outer_iterations);
  h.u64(static_cast<std::uint64_t>(o.proof.engine));
  h.i64(o.candidates.local_pool_size);
  h.i64(o.candidates.random_pool_size);
  h.i64(o.candidates.resub.enable_three_subs ? 1 : 0);
  h.i64(o.candidates.resub.three_sub_b_pool);
  h.i64(o.candidates.resub.max_three_per_target);
  h.i64(o.candidates.resub.max_divisors);
  h.i64(o.candidates.resub.ksub_b_pool);
  h.i64(o.candidates.resub.max_k_per_target);
  h.i64(o.candidates.max_candidates);
  h.i64(o.candidates.allow_constants ? 1 : 0);
  h.i64(o.guard.signature_check ? 1 : 0);
  h.i64(o.guard.final_equivalence_check ? 1 : 0);
  h.i64(o.proof.atpg.backtrack_limit);
  h.i64(o.proof.sat.conflict_budget);
  // The power model defines the objective landscape (activities, PG_C), so
  // a resume under a different model would replay foreign decisions.
  h.u64(static_cast<std::uint64_t>(o.power_model));
  h.i64(o.glitch.num_vector_pairs);
  h.i64(o.glitch.max_events_per_pair);
  h.u64(o.glitch.seed);
  h.u64(o.glitch.stimulus.prob.size());
  for (const double p : o.glitch.stimulus.prob) h.f64(p);
  for (const double d : o.glitch.stimulus.toggle) h.f64(d);
  return h.digest();
}

// --- SessionRecorder -----------------------------------------------------

SessionRecorder::SessionRecorder(MetricsRegistry* metrics, AuditLog* audit)
    : audit_(audit), metrics_(metrics) {
  if (metrics_ != nullptr) {
    frames_counter_ = metrics_->counter(
        "powder_checkpoint_frames_total",
        "WAL commit frames durably written");
    disabled_counter_ = metrics_->counter(
        "powder_checkpoint_disabled_total",
        "checkpointing lost to an I/O failure mid-run");
  }
}

void SessionRecorder::open(const std::string& path, const Netlist& netlist,
                           const PowderOptions& options) {
  std::string err;
  if (!writer_.open(path, &err)) throw Error::io(err);
  WalHeader h;
  h.netlist_hash = netlist_fingerprint(netlist);
  h.options_hash = options_fingerprint(options);
  h.seed = options.seed;
  h.num_patterns = static_cast<std::uint32_t>(options.num_patterns);
  if (!writer_.append(WalFrameType::kHeader, encode_header(h), &err))
    throw Error::io(err);
}

void SessionRecorder::append_commit(int outer, int performed,
                                    const CandidateSub& cand,
                                    const AppliedSub& applied) {
  std::string payload;
  try {
    if (inject_fault(FaultInjector::Site::kAllocFail)) throw std::bad_alloc();
    WalCommit commit;
    commit.outer = static_cast<std::uint32_t>(outer);
    commit.performed = static_cast<std::uint32_t>(performed);
    commit.cand = cand;
    commit.applied = applied;
    payload = encode_commit(commit);
  } catch (const std::bad_alloc&) {
    degrade("allocation failure while encoding commit frame");
    return;
  }
  std::string err;
  if (!writer_.append(WalFrameType::kCommit, payload, &err)) {
    degrade(err);
    return;
  }
  ++frames_;
  if (frames_counter_ != nullptr) frames_counter_->inc();
  if (after_frame_) after_frame_(frames_);
}

void SessionRecorder::record_end() {
  if (!enabled()) return;
  std::string err;
  if (!writer_.append(WalFrameType::kEnd,
                      encode_end(static_cast<std::uint64_t>(frames_)), &err)) {
    degrade(err);
    return;
  }
  writer_.close();
}

void SessionRecorder::degrade(const std::string& why) {
  writer_.close();
  degraded_ = true;
  error_ = why;
  if (disabled_counter_ != nullptr) disabled_counter_->inc();
  if (audit_ != nullptr) {
    AuditEvent e;
    e.event = "checkpoint_disabled";
    e.reason = "io";
    e.detail = why.c_str();
    e.value = frames_;
    audit_->write_event(e);
  }
}

// --- SessionResume -------------------------------------------------------

void SessionResume::load(const std::string& path, const Netlist& netlist,
                         const PowderOptions& options) {
  contents_ = read_wal(path);
  if (contents_.status == WalReadStatus::kCorrupt)
    throw Error::io("checkpoint '" + path + "' is corrupt: " +
                    contents_.error);
  if (!contents_.has_header)
    throw Error::input("checkpoint '" + path +
                       "' has no header frame (empty or foreign file)");
  if (contents_.header.version != kWalVersion)
    throw Error::input("checkpoint '" + path + "' has WAL version " +
                       std::to_string(contents_.header.version) +
                       ", expected " + std::to_string(kWalVersion));
  if (contents_.header.netlist_hash != netlist_fingerprint(netlist))
    throw Error::input("checkpoint '" + path +
                       "' was recorded for a different input netlist");
  if (contents_.header.options_hash != options_fingerprint(options))
    throw Error::input(
        "checkpoint '" + path +
        "' was recorded with different optimization options (seed, "
        "patterns, selection or proof knobs)");
  cursor_ = 0;
}

}  // namespace powder
