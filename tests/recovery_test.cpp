// Crash-safe session tests (DESIGN.md §10): checkpoint/resume bit-identity
// (including a real fork+SIGKILL crash at a commit boundary), typed
// rejection of mismatched, damaged or retired-format checkpoints, graceful
// degradation of checkpointing under injected I/O faults, the degradation
// ladder's monotone staircase, and sound rejection by a throwing proof
// engine.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/netlist_bdd.hpp"
#include "benchgen/benchmarks.hpp"
#include "io/blif.hpp"
#include "mapper/mapper.hpp"
#include "powder.hpp"
#include "session/checkpoint.hpp"
#include "session/degradation.hpp"
#include "session/wal.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace powder {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* stem) {
  return (fs::temp_directory_path() /
          (std::string(stem) + "." + std::to_string(::getpid()) + ".wal"))
      .string();
}

Netlist make_input(const char* bench = "duke2") {
  // The netlist shares ownership of the library, so it (and copies of it)
  // can outlive this helper without any leaked sentinel.
  const auto lib = CellLibrary::standard_shared();
  Netlist nl = map_aig(make_benchmark(bench), *lib);
  nl.adopt_library(lib);
  return nl;
}

/// The deterministic configuration every identity test runs under. The
/// session knobs vary per test; the decision-steering knobs never do.
PowderOptions::Builder base_options() {
  return PowderOptions::builder()
      .patterns(1024)
      .repeat(10)
      .max_outer_iterations(3)
      .seed(7);
}

struct RunResult {
  std::string blif;
  PowderReport report;
  long long audit_lines = 0;
};

RunResult run(const Netlist& input, PowderOptions::Builder builder) {
  Netlist nl = input;
  std::ostringstream audit_os;
  AuditLog audit(&audit_os);
  RunResult rr;
  rr.report = optimize(nl, builder.audit(&audit).build());
  rr.blif = write_blif(nl);
  rr.audit_lines = audit.records();
  return rr;
}

void expect_same_outcome(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.blif, want.blif);
  EXPECT_DOUBLE_EQ(got.report.final_power, want.report.final_power);
  EXPECT_DOUBLE_EQ(got.report.final_area, want.report.final_area);
  EXPECT_EQ(got.report.substitutions_applied,
            want.report.substitutions_applied);
  EXPECT_EQ(got.audit_lines, want.audit_lines);
}

// --- checkpoint + resume identity ----------------------------------------

TEST(CheckpointResume, FullRunRoundTripsThroughWal) {
  const Netlist input = make_input();
  const RunResult ref = run(input, base_options());

  const std::string wal = temp_path("full_run");
  const RunResult chk = run(input, base_options().checkpoint_out(wal));
  // Checkpointing must not change the result.
  expect_same_outcome(chk, ref);
  ASSERT_GT(chk.report.substitutions_applied, 0)
      << "benchmark too small to exercise the WAL";
  EXPECT_EQ(chk.report.diagnostics.checkpoint_frames,
            static_cast<long long>(chk.report.substitutions_applied +
                                   chk.report.diagnostics
                                       .final_check_rollbacks));

  const WalContents contents = read_wal(wal);
  EXPECT_EQ(contents.status, WalReadStatus::kClean);
  EXPECT_TRUE(contents.has_header);
  EXPECT_TRUE(contents.ended);
  EXPECT_EQ(static_cast<long long>(contents.commits.size()),
            chk.report.diagnostics.checkpoint_frames);

  // Resuming a *complete* log replays everything and changes nothing.
  const RunResult res = run(input, base_options().resume_from(wal));
  expect_same_outcome(res, ref);
  EXPECT_EQ(res.report.diagnostics.resume_replayed,
            static_cast<long long>(contents.commits.size()));
  fs::remove(wal);
}

// Kill-at-any-commit-boundary: a WAL cut after k commits (exactly what a
// crash between frame k and k+1 leaves behind, the fsync guaranteeing the
// prefix) must resume to a bit-identical final netlist for EVERY k.
TEST(CheckpointResume, ResumeFromEveryCommitBoundaryIsBitIdentical) {
  const Netlist input = make_input();
  const RunResult ref = run(input, base_options());

  const std::string wal = temp_path("boundaries");
  (void)run(input, base_options().checkpoint_out(wal));
  const WalContents full = read_wal(wal);
  ASSERT_GE(full.commits.size(), 2u);

  const std::string prefix_path = temp_path("boundary_prefix");
  for (std::size_t k = 0; k <= full.commits.size(); ++k) {
    std::string image =
        encode_frame(WalFrameType::kHeader, encode_header(full.header));
    for (std::size_t i = 0; i < k; ++i)
      image += encode_frame(WalFrameType::kCommit,
                            encode_commit(full.commits[i]));
    {
      std::ofstream out(prefix_path, std::ios::binary | std::ios::trunc);
      out << image;
    }
    const RunResult res = run(input, base_options().resume_from(prefix_path));
    EXPECT_EQ(res.blif, ref.blif) << "resume after " << k << " commits";
    EXPECT_DOUBLE_EQ(res.report.final_power, ref.report.final_power)
        << "resume after " << k << " commits";
    EXPECT_EQ(res.audit_lines, ref.audit_lines)
        << "resume after " << k << " commits";
    EXPECT_EQ(res.report.diagnostics.resume_replayed,
              static_cast<long long>(k));
  }
  fs::remove(wal);
  fs::remove(prefix_path);
}

// A torn tail (crash mid-frame-write) is the expected on-disk state after
// a kill: resume tolerates it and re-proves the torn commit live.
TEST(CheckpointResume, TornTrailingFrameIsToleratedOnResume) {
  const Netlist input = make_input();
  const RunResult ref = run(input, base_options());

  const std::string wal = temp_path("torn");
  (void)run(input, base_options().checkpoint_out(wal));
  const WalContents full = read_wal(wal);
  ASSERT_GE(full.commits.size(), 2u);

  std::string image =
      encode_frame(WalFrameType::kHeader, encode_header(full.header));
  image += encode_frame(WalFrameType::kCommit, encode_commit(full.commits[0]));
  const std::string second =
      encode_frame(WalFrameType::kCommit, encode_commit(full.commits[1]));
  image += second.substr(0, second.size() / 2);  // torn tail
  {
    std::ofstream out(wal, std::ios::binary | std::ios::trunc);
    out << image;
  }
  const RunResult res = run(input, base_options().resume_from(wal));
  expect_same_outcome(res, ref);
  EXPECT_EQ(res.report.diagnostics.resume_replayed, 1);
  fs::remove(wal);
}

// The real thing: fork a child that checkpoints and SIGKILLs itself right
// after a chosen commit frame becomes durable, then resume from the
// orphaned WAL in the parent. Serial resume and --threads 8 resume must
// both be bit-identical to the uninterrupted reference.
TEST(CheckpointResume, SigkillAtCommitBoundaryThenResume) {
  const Netlist input = make_input();
  const RunResult ref = run(input, base_options());

  // How many frames does a full run write? (Used to pick the kill points.)
  const std::string probe = temp_path("probe");
  (void)run(input, base_options().checkpoint_out(probe));
  const long long total =
      static_cast<long long>(read_wal(probe).commits.size());
  fs::remove(probe);
  ASSERT_GE(total, 2);

  // Deterministically "random" kill points: first, middle, last frame.
  const long long kill_points[] = {1, total / 2 + 1, total};
  for (const long long kill_at : kill_points) {
    const std::string wal =
        temp_path(("sigkill." + std::to_string(kill_at)).c_str());
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      // Child: no gtest machinery, no exceptions escaping, exit by signal.
      SessionOptions session;
      session.checkpoint_out = wal;
      session.after_checkpoint_frame = [kill_at](long long frame) {
        if (frame == kill_at) raise(SIGKILL);
      };
      try {
        Netlist nl = input;
        (void)optimize(nl, base_options().session(session).build());
      } catch (...) {
      }
      _exit(0);  // only reached when the kill point was never hit
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child was expected to die by SIGKILL at frame " << kill_at;
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // The fsync'd prefix survived the kill.
    const WalContents contents = read_wal(wal);
    EXPECT_NE(contents.status, WalReadStatus::kCorrupt);
    EXPECT_EQ(static_cast<long long>(contents.commits.size()), kill_at);

    const RunResult serial = run(input, base_options().resume_from(wal));
    expect_same_outcome(serial, ref);
    EXPECT_EQ(serial.report.diagnostics.resume_replayed, kill_at);

    const RunResult threaded =
        run(input, base_options().resume_from(wal).threads(8));
    expect_same_outcome(threaded, ref);
    fs::remove(wal);
  }
}

// --- typed rejection of unusable checkpoints -----------------------------

TEST(CheckpointResume, WrongNetlistIsRejectedAsInputError) {
  const Netlist input = make_input();
  const std::string wal = temp_path("wrong_netlist");
  (void)run(input, base_options().checkpoint_out(wal));

  const Netlist other = make_input("bw");
  try {
    Netlist nl = other;
    (void)optimize(nl, base_options().resume_from(wal).build());
    FAIL() << "expected Error(kInput)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInput);
    EXPECT_NE(std::string(e.what()).find("netlist"), std::string::npos)
        << e.what();
  }
  fs::remove(wal);
}

TEST(CheckpointResume, ChangedOptionsAreRejectedAsInputError) {
  const Netlist input = make_input();
  const std::string wal = temp_path("wrong_options");
  (void)run(input, base_options().checkpoint_out(wal));
  try {
    Netlist nl = input;
    (void)optimize(nl, base_options().seed(8).resume_from(wal).build());
    FAIL() << "expected Error(kInput)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInput);
  }
  // Threads and deadline are execution knobs, not decision knobs: changing
  // them on resume is legal (asserted for threads by the SIGKILL test; the
  // fingerprint unit check below nails the rule).
  const PowderOptions a = base_options().build();
  const PowderOptions b = base_options().threads(8).deadline(60.0).build();
  EXPECT_EQ(options_fingerprint(a), options_fingerprint(b));
  const PowderOptions c = base_options().seed(8).build();
  EXPECT_NE(options_fingerprint(a), options_fingerprint(c));
}

// A WAL is input from outside the program. Every recorder writes the global
// window id, so a commit frame naming another window is foreign: resume
// rejects it as a typed input error, even under a matching header.
TEST(CheckpointResume, ForeignWindowIdIsRejectedAsInputError) {
  const Netlist input = make_input();
  const std::string wal = temp_path("foreign_window");
  const RunResult recorded = run(input, base_options().checkpoint_out(wal));
  const WalContents contents = read_wal(wal);
  ASSERT_TRUE(contents.has_header);
  // A clean read means every frame was a header, commit or end frame.
  ASSERT_EQ(contents.status, WalReadStatus::kClean);
  ASSERT_FALSE(contents.commits.empty());

  // Re-writes the log frame by frame, with `window` on the first commit.
  auto rewrite = [&](std::uint32_t window) {
    WalWriter w;
    std::string err;
    ASSERT_TRUE(w.open(wal, &err)) << err;
    ASSERT_TRUE(w.append(WalFrameType::kHeader,
                         encode_header(contents.header), &err))
        << err;
    for (std::size_t i = 0; i < contents.commits.size(); ++i) {
      WalCommit c = contents.commits[i];
      EXPECT_EQ(c.window, kGlobalWindow);
      if (i == 0) c.window = window;
      ASSERT_TRUE(w.append(WalFrameType::kCommit, encode_commit(c), &err))
          << err;
    }
    ASSERT_TRUE(w.append(WalFrameType::kEnd,
                         encode_end(contents.commits.size()), &err))
        << err;
  };

  // The faithful copy resumes to the recorded result...
  rewrite(kGlobalWindow);
  const RunResult resumed = run(input, base_options().resume_from(wal));
  EXPECT_EQ(resumed.blif, recorded.blif);

  // ...and the same log with window 3 on its first commit is rejected.
  rewrite(3);
  try {
    Netlist nl = input;
    (void)optimize(nl, base_options().resume_from(wal).build());
    FAIL() << "expected Error(kInput)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kInput);
    EXPECT_NE(std::string(e.what()).find("resume diverged"), std::string::npos)
        << e.what();
  }
  fs::remove(wal);
}

TEST(CheckpointResume, CorruptWalIsRejectedAsIoError) {
  const Netlist input = make_input();
  const std::string wal = temp_path("corrupt");
  (void)run(input, base_options().checkpoint_out(wal));

  // Flip one byte in the middle of the file (inside an early frame).
  std::string image;
  {
    std::ifstream in(wal, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    image = os.str();
  }
  image[image.size() / 4] = static_cast<char>(image[image.size() / 4] ^ 0x10);
  {
    std::ofstream out(wal, std::ios::binary | std::ios::trunc);
    out << image;
  }
  try {
    Netlist nl = input;
    (void)optimize(nl, base_options().resume_from(wal).build());
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
  fs::remove(wal);
}

// A log holding a frame of the retired type 4 (functional-reduction
// pre-pass merges, written by older builds) is rejected whole as a typed
// I/O error before anything replays: the netlist is left untouched.
TEST(CheckpointResume, RetiredFrameTypeIsRejectedAsIoError) {
  const Netlist input = make_input();
  const std::string wal = temp_path("retired_frame");
  (void)run(input, base_options().checkpoint_out(wal));
  const WalContents contents = read_wal(wal);
  ASSERT_TRUE(contents.has_header);
  ASSERT_FALSE(contents.commits.empty());
  {
    std::ofstream out(wal, std::ios::binary | std::ios::trunc);
    out << encode_frame(WalFrameType::kHeader, encode_header(contents.header))
        << encode_frame(static_cast<WalFrameType>(4),
                        encode_commit(contents.commits[0]));
  }
  EXPECT_EQ(read_wal(wal).status, WalReadStatus::kCorrupt);
  Netlist nl = input;
  try {
    (void)optimize(nl, base_options().resume_from(wal).build());
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
    EXPECT_NE(std::string(e.what()).find("unknown frame type"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(write_blif(nl), write_blif(input));
  fs::remove(wal);
}

TEST(CheckpointResume, MissingWalIsRejectedAsIoError) {
  const Netlist input = make_input("bw");
  try {
    Netlist nl = input;
    (void)optimize(
        nl, base_options().resume_from("/nonexistent/never.wal").build());
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
}

// --- graceful degradation of checkpointing -------------------------------

// A mid-run checkpoint I/O failure (injected ENOSPC on the second commit
// frame) must not abort or perturb optimization: the run finishes with the
// same result, flags checkpoint_disabled, and keeps the durable prefix.
TEST(CheckpointResume, CheckpointIoFaultDegradesGracefully) {
  const Netlist input = make_input();
  const RunResult ref = run(input, base_options());

  const std::string wal = temp_path("io_fault");
  ScopedFaultInjector fi;
  // Occurrence 0 is the header frame; fail the second commit frame.
  fi->arm(FaultInjector::Site::kCheckpointWrite, 2, 1);
  const RunResult res = run(input, base_options().checkpoint_out(wal));
  fi->disarm(FaultInjector::Site::kCheckpointWrite);

  expect_same_outcome(res, ref);
  EXPECT_TRUE(res.report.diagnostics.checkpoint_disabled);
  EXPECT_EQ(res.report.diagnostics.checkpoint_frames, 1);
  // The surviving prefix is still a valid resumable checkpoint.
  const WalContents contents = read_wal(wal);
  EXPECT_NE(contents.status, WalReadStatus::kCorrupt);
  EXPECT_EQ(contents.commits.size(), 1u);
  const RunResult resumed = run(input, base_options().resume_from(wal));
  expect_same_outcome(resumed, ref);
  fs::remove(wal);
}

// An unopenable checkpoint path fails fast and typed — the user asked for
// durability and silently running without it would be a lie.
TEST(CheckpointResume, UnwritableCheckpointPathFailsFast) {
  const Netlist input = make_input("bw");
  try {
    Netlist nl = input;
    (void)optimize(
        nl,
        base_options().checkpoint_out("/nonexistent/dir/x.wal").build());
    FAIL() << "expected Error(kIo)";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
  }
}

// --- degradation ladder --------------------------------------------------

TEST(DegradationLadder, DecidePolicyTable) {
  SessionOptions session;
  session.mem_limit_bytes = 1000;
  DegradationLadder ladder(session, /*deadline_seconds=*/10.0,
                           ProofEngine::kHybrid, nullptr, nullptr);
  using L = DegradationLevel;
  DegradationLadder::Sensors s;
  s.deadline_total = 10.0;
  s.deadline_remaining = 9.0;
  EXPECT_EQ(ladder.decide(s).level, L::kFullProof);

  s.deadline_remaining = 2.0;  // < 25% of 10s
  EXPECT_EQ(ladder.decide(s).level, L::kPodemOnly);

  s.deadline_remaining = 0.5;  // < 10% of 10s
  EXPECT_EQ(ladder.decide(s).level, L::kSignatureOnly);

  s.deadline_expired = true;
  EXPECT_EQ(ladder.decide(s).level, L::kStop);
  EXPECT_EQ(ladder.decide(s).stop_reason, StopReason::kDeadline);
  s.deadline_expired = false;
  s.deadline_remaining = 9.0;

  s.sat_pool_dry = true;  // hybrid engine sheds its SAT stage
  EXPECT_EQ(ladder.decide(s).level, L::kPodemOnly);
  s.atpg_pool_dry = true;  // both dry: nothing left to prove with
  EXPECT_EQ(ladder.decide(s).level, L::kStop);
  EXPECT_EQ(ladder.decide(s).stop_reason, StopReason::kProofBudget);
  s.sat_pool_dry = s.atpg_pool_dry = false;

  s.rss_bytes = 1200;  // over the limit
  EXPECT_EQ(ladder.decide(s).level, L::kSignatureOnly);
  s.rss_bytes = 1600;  // over 1.5x the limit
  EXPECT_EQ(ladder.decide(s).level, L::kStop);
  EXPECT_EQ(ladder.decide(s).stop_reason, StopReason::kMemLimit);
}

TEST(DegradationLadder, PodemEngineSkipsThePodemRung) {
  SessionOptions session;
  DegradationLadder ladder(session, 10.0, ProofEngine::kPodem, nullptr,
                           nullptr);
  DegradationLadder::Sensors s;
  s.deadline_total = 10.0;
  s.deadline_remaining = 9.0;
  s.atpg_pool_dry = true;  // a PODEM-only run with a dry ATPG pool is done
  EXPECT_EQ(ladder.decide(s).level, DegradationLevel::kStop);
  EXPECT_EQ(ladder.decide(s).stop_reason, StopReason::kProofBudget);
}

// A run starved by a tiny deadline steps down the ladder monotonically
// (audit staircase), stops cleanly with best-so-far, and still exits the
// library call normally.
TEST(DegradationLadder, StarvedRunStepsDownMonotonically) {
  const Netlist input = make_input();
  Netlist nl = input;
  std::ostringstream audit_os;
  AuditLog audit(&audit_os);
  const PowderReport r = optimize(nl, base_options()
                                          .patterns(2048)
                                          .deadline(0.02)
                                          .audit(&audit)
                                          .build());
  EXPECT_TRUE(r.diagnostics.deadline_hit);
  EXPECT_GE(r.diagnostics.degradation_events, 1);
  EXPECT_EQ(audit.events(),
            static_cast<long long>(r.diagnostics.degradation_events));

  // The audit staircase: every "degradation" event steps strictly down.
  std::istringstream lines(audit_os.str());
  std::string line;
  int last_level = -1;
  int seen = 0;
  auto level_of = [](const std::string& name) {
    if (name == "full_proof") return 0;
    if (name == "podem_only") return 1;
    if (name == "signature_only") return 2;
    if (name == "stop") return 3;
    return -1;
  };
  while (std::getline(lines, line)) {
    if (line.find("\"event\":\"degradation\"") == std::string::npos) continue;
    ++seen;
    const auto to_pos = line.find("\"to\":\"");
    ASSERT_NE(to_pos, std::string::npos) << line;
    const auto end = line.find('"', to_pos + 6);
    const int to = level_of(line.substr(to_pos + 6, end - to_pos - 6));
    ASSERT_GE(to, 0) << line;
    EXPECT_GT(to, last_level) << "ladder stepped up: " << line;
    last_level = to;
  }
  EXPECT_EQ(seen, r.diagnostics.degradation_events);
  // Best-so-far is a valid netlist (equivalence is checked by optimize's
  // own guards; here: it still writes and has the same interface).
  EXPECT_EQ(nl.num_inputs(), input.num_inputs());
  EXPECT_EQ(nl.num_outputs(), input.num_outputs());
  EXPECT_FALSE(write_blif(nl).empty());
}

// An absurdly small --mem-limit trips the RSS sensor on the first sample:
// the run stops cleanly, flags mem_limit_hit, and returns best-so-far
// instead of throwing.
TEST(DegradationLadder, MemLimitStopsCleanly) {
  const Netlist input = make_input("bw");
  Netlist nl = input;
  const PowderReport r =
      optimize(nl, base_options().mem_limit_bytes(1).build());
  EXPECT_TRUE(r.diagnostics.mem_limit_hit);
  EXPECT_EQ(r.substitutions_applied, 0);
  EXPECT_EQ(write_blif(nl), write_blif(input));  // stopped before any commit
}

// --- throwing proof engines ---------------------------------------------

// An engine that throws settles its proof as kAborted: the candidate is
// rejected, never accepted unproven, and the run goes on. Two throws cost
// (at most) the two candidates they hit.
TEST(ProofFailure, TransientThrowsRejectOnlyTheirCandidates) {
  const Netlist input = make_input();
  ScopedFaultInjector fi;
  fi->arm(FaultInjector::Site::kProofTransient, 0, 2);
  Netlist nl = input;
  const PowderReport r = optimize(nl, base_options().build());
  EXPECT_EQ(fi->fired(FaultInjector::Site::kProofTransient), 2);
  fi->disarm(FaultInjector::Site::kProofTransient);

  EXPECT_GT(r.substitutions_applied, 0);
  EXPECT_FALSE(r.diagnostics.guard_failed);
  EXPECT_TRUE(functionally_equivalent(input, nl));
}

// Every proof throws: each candidate is rejected soundly, nothing is
// applied, and the netlist comes back untouched — also with the harvest
// and simulation sharded over four threads.
TEST(ProofFailure, ThrowingEngineRejectsSoundly) {
  const Netlist input = make_input("bw");
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    ScopedFaultInjector fi;
    fi->arm(FaultInjector::Site::kProofTransient);  // every proof, forever
    Netlist nl = input;
    const PowderReport r =
        optimize(nl, base_options().threads(threads).build());
    EXPECT_GT(fi->fired(FaultInjector::Site::kProofTransient), 0);
    fi->disarm(FaultInjector::Site::kProofTransient);
    EXPECT_EQ(r.substitutions_applied, 0);
    EXPECT_EQ(write_blif(nl), write_blif(input));
  }
}

// --- fingerprints --------------------------------------------------------

TEST(Fingerprint, NetlistFingerprintTracksStructure) {
  const Netlist a = make_input("bw");
  const Netlist b = a;
  EXPECT_EQ(netlist_fingerprint(a), netlist_fingerprint(b));
  const Netlist c = make_input("duke2");
  EXPECT_NE(netlist_fingerprint(a), netlist_fingerprint(c));
}

}  // namespace
}  // namespace powder
