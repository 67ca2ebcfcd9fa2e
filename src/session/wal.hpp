#pragma once
// Write-ahead session log: frame codec + durable writer + tolerant reader
// (DESIGN.md §10.1).
//
// File layout — a flat sequence of frames, nothing else:
//
//   frame   := magic:u32 type:u8 len:u32 payload:len*u8 checksum:u64
//   magic   = 0x50574652 ("PWFR")
//   checksum= FNV-1a over [type][len][payload]
//
// All integers little-endian, fixed width. Three frame types:
//
//   kHeader — once, first: WAL version, netlist fingerprint, options
//             fingerprint, seed, pattern count. Resume refuses a log whose
//             fingerprints do not match the freshly-read input.
//   kCommit — one per guard-accepted substitution: the outer-iteration
//             cursor plus the full CandidateSub and AppliedSub (including
//             tombstone/revive fanin lists and resize records), enough to
//             both verify a replay and audit the log offline.
//   kEnd    — the run closed the log cleanly (informational; a resume of a
//             crashed log simply sees a missing kEnd or a torn tail).
//
// The reader is tolerant by design: a torn trailing frame (the crash wrote
// half a frame before dying) yields status kTruncated with every complete
// frame preserved; a checksum/decode failure mid-file yields kCorrupt.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "opt/substitution.hpp"

namespace powder {

inline constexpr std::uint32_t kWalMagic = 0x50574652u;  // "PWFR"
/// Version 2 added the per-commit window id (WalCommit::window); every frame
/// now carries kGlobalWindow there.
/// Version 3 added the kCell replacement kind (ordered divisor set of a
/// k-input gate) to the candidate codec, and a type-4 frame for merges of
/// the functional-reduction pre-pass. The pre-pass is gone; a version-3 log
/// holding a type-4 frame now reads as kCorrupt (unknown frame type).
inline constexpr std::uint32_t kWalVersion = 3;

/// The only WalCommit::window value the recorder writes; a resume rejects
/// a commit frame carrying any other id as foreign input.
inline constexpr std::uint32_t kGlobalWindow = 0xFFFFFFFFu;

enum class WalFrameType : std::uint8_t {
  kHeader = 1,
  kCommit = 2,
  kEnd = 3,
  // 4 is retired (functional-reduction pre-pass merges): the reader
  // rejects it as an unknown frame type.
};

struct WalHeader {
  std::uint32_t version = kWalVersion;
  std::uint64_t netlist_hash = 0;  ///< netlist_fingerprint() of the input
  std::uint64_t options_hash = 0;  ///< options_fingerprint() of the run
  std::uint64_t seed = 0;
  std::uint32_t num_patterns = 0;
};

/// One committed substitution, as recorded at journal-commit time (after
/// the signature guard accepted it).
struct WalCommit {
  std::uint32_t outer = 0;      ///< 1-based outer iteration of the commit
  std::uint32_t performed = 0;  ///< commit ordinal within that iteration
  std::uint32_t window = kGlobalWindow;  ///< always kGlobalWindow
  CandidateSub cand;            ///< pg_* gains are not round-tripped
  AppliedSub applied;
};

std::string encode_header(const WalHeader& h);
std::string encode_commit(const WalCommit& c);
std::string encode_end(std::uint64_t commit_frames);
bool decode_header(std::string_view payload, WalHeader* out);
bool decode_commit(std::string_view payload, WalCommit* out);

/// Wraps a payload in the on-disk frame envelope (magic/type/len/checksum).
std::string encode_frame(WalFrameType type, std::string_view payload);

enum class WalReadStatus {
  kClean,      ///< every byte parsed
  kTruncated,  ///< torn trailing frame dropped; complete prefix kept
  kCorrupt,    ///< checksum/decode failure mid-file; prefix kept
};

const char* wal_read_status_name(WalReadStatus s);

struct WalContents {
  bool has_header = false;
  WalHeader header;
  std::vector<WalCommit> commits;
  bool ended = false;  ///< a kEnd frame closed the log
  WalReadStatus status = WalReadStatus::kClean;
  std::string error;   ///< human-readable detail for kTruncated/kCorrupt
};

/// Parses a WAL file. Throws Error(kIo) only when the file cannot be
/// opened; parse problems are reported via status/error with the readable
/// prefix intact.
WalContents read_wal(const std::string& path);

/// Parses an in-memory WAL image (the file reader delegates here; tests
/// use it to bit-flip and truncate images without touching disk).
WalContents parse_wal(std::string_view bytes);

/// Durable appender. Frames are written with a single write(2) call and
/// fsync'd before append() returns, so a frame either exists whole on disk
/// or is a recognizable torn tail. I/O failures (real or injected via
/// FaultInjector sites kCheckpointWrite / kCheckpointFsync) are reported by
/// return value — checkpointing degrades, it never throws mid-run.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Creates/truncates `path`. Returns false with *error filled on failure.
  bool open(const std::string& path, std::string* error);
  bool is_open() const { return fd_ >= 0; }

  /// Appends one frame durably. On failure (short write, fsync failure)
  /// fills *error and returns false; the writer is then closed — a torn
  /// frame may remain on disk, which the reader tolerates.
  bool append(WalFrameType type, std::string_view payload, std::string* error);

  void close();

 private:
  int fd_ = -1;
};

/// Structural candidate identity: the fields that name *what* is being
/// substituted (class, site, replacement shape, new cell) — the same slice
/// the proof cache keys on. Gains are excluded: they are recomputed state,
/// not identity.
bool same_candidate(const CandidateSub& a, const CandidateSub& b);

/// Full delta equality, used to verify that a replayed commit reproduced
/// the recorded mutation bit-for-bit.
bool same_applied(const AppliedSub& a, const AppliedSub& b);

}  // namespace powder
