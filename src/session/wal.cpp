#include "session/wal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace powder {
namespace {

// --- byte codec ----------------------------------------------------------

void put_u8(std::string* b, std::uint8_t v) {
  b->push_back(static_cast<char>(v));
}

void put_u32(std::string* b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string* b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string* b, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(b, bits);
}

/// Bounds-checked reader over a payload: any overrun sets ok=false and
/// every later read returns zero, so decoders can check once at the end.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  bool ok() const { return ok_; }
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool need(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void put_gate_vec(std::string* b, const std::vector<GateId>& v) {
  put_u32(b, static_cast<std::uint32_t>(v.size()));
  for (const GateId g : v) put_u32(b, static_cast<std::uint32_t>(g));
}

bool get_gate_vec(Cursor* c, std::vector<GateId>* v) {
  const std::uint32_t n = c->u32();
  if (!c->ok() || n > (1u << 24)) return false;  // sanity bound
  v->clear();
  v->reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    v->push_back(static_cast<GateId>(c->u32()));
  return c->ok();
}

void put_truth_table(std::string* b, const TruthTable& tt) {
  put_u8(b, static_cast<std::uint8_t>(tt.num_vars()));
  put_u32(b, static_cast<std::uint32_t>(tt.words().size()));
  for (const std::uint64_t w : tt.words()) put_u64(b, w);
}

bool get_truth_table(Cursor* c, TruthTable* tt) {
  const int num_vars = c->u8();
  const std::uint32_t num_words = c->u32();
  if (!c->ok() || num_vars > TruthTable::kMaxVars) return false;
  if (num_words == 0) {
    // A default-constructed table (kSignal/kConstant replacements) owns no
    // storage; rebuild it as such so round-trip equality is exact.
    *tt = TruthTable();
    return num_vars == 0;
  }
  TruthTable t(num_vars);
  const std::uint64_t minterms = t.num_minterms_capacity();
  for (std::uint32_t wi = 0; wi < num_words; ++wi) {
    const std::uint64_t w = c->u64();
    for (int bit = 0; bit < 64; ++bit) {
      const std::uint64_t m = std::uint64_t{wi} * 64 + bit;
      if (m < minterms && ((w >> bit) & 1)) t.set_bit(m, true);
    }
  }
  if (!c->ok()) return false;
  *tt = std::move(t);
  return true;
}

void put_candidate(std::string* b, const CandidateSub& s) {
  put_u8(b, static_cast<std::uint8_t>(s.cls));
  put_u32(b, static_cast<std::uint32_t>(s.target));
  put_u8(b, s.branch.has_value() ? 1 : 0);
  if (s.branch.has_value()) {
    put_u32(b, static_cast<std::uint32_t>(s.branch->gate));
    put_u32(b, static_cast<std::uint32_t>(s.branch->pin));
  }
  put_u8(b, static_cast<std::uint8_t>(s.rep.kind));
  put_u8(b, s.rep.constant_value ? 1 : 0);
  put_u32(b, static_cast<std::uint32_t>(s.rep.b));
  put_u8(b, s.rep.invert_b ? 1 : 0);
  put_u32(b, static_cast<std::uint32_t>(s.rep.c));
  put_u8(b, s.rep.invert_c ? 1 : 0);
  put_truth_table(b, s.rep.two_input_fn);
  put_gate_vec(b, s.rep.divisors);
  put_u32(b, static_cast<std::uint32_t>(s.new_cell));
}

bool get_candidate(Cursor* c, CandidateSub* s) {
  s->cls = static_cast<SubstClass>(c->u8());
  s->target = static_cast<GateId>(c->u32());
  if (c->u8() != 0) {
    FanoutRef ref;
    ref.gate = static_cast<GateId>(c->u32());
    ref.pin = static_cast<int>(c->u32());
    s->branch = ref;
  } else {
    s->branch.reset();
  }
  s->rep.kind = static_cast<ReplacementFunction::Kind>(c->u8());
  s->rep.constant_value = c->u8() != 0;
  s->rep.b = static_cast<GateId>(c->u32());
  s->rep.invert_b = c->u8() != 0;
  s->rep.c = static_cast<GateId>(c->u32());
  s->rep.invert_c = c->u8() != 0;
  if (!get_truth_table(c, &s->rep.two_input_fn)) return false;
  if (!get_gate_vec(c, &s->rep.divisors)) return false;
  s->new_cell = static_cast<CellId>(c->u32());
  s->pg_a = s->pg_b = s->pg_c = 0.0;
  return c->ok();
}

void put_applied(std::string* b, const AppliedSub& a) {
  put_gate_vec(b, a.removed_gates);
  put_u32(b, static_cast<std::uint32_t>(a.removed_fanins.size()));
  for (const std::vector<GateId>& fanins : a.removed_fanins)
    put_gate_vec(b, fanins);
  put_u32(b, static_cast<std::uint32_t>(a.rewired_pins.size()));
  for (const RewiredPin& p : a.rewired_pins) {
    put_u32(b, static_cast<std::uint32_t>(p.sink));
    put_u32(b, static_cast<std::uint32_t>(p.pin));
    put_u32(b, static_cast<std::uint32_t>(p.old_driver));
    put_u32(b, static_cast<std::uint32_t>(p.new_driver));
  }
  put_u32(b, static_cast<std::uint32_t>(a.resized_cells.size()));
  for (const ResizedCell& r : a.resized_cells) {
    put_u32(b, static_cast<std::uint32_t>(r.gate));
    put_u32(b, static_cast<std::uint32_t>(r.old_cell));
    put_u32(b, static_cast<std::uint32_t>(r.new_cell));
  }
  put_u32(b, static_cast<std::uint32_t>(a.new_gate));
  put_gate_vec(b, a.changed_roots);
  put_f64(b, a.area_delta);
}

bool get_applied(Cursor* c, AppliedSub* a) {
  if (!get_gate_vec(c, &a->removed_gates)) return false;
  const std::uint32_t num_fanins = c->u32();
  if (!c->ok() || num_fanins > (1u << 24)) return false;
  a->removed_fanins.clear();
  a->removed_fanins.resize(num_fanins);
  for (std::uint32_t i = 0; i < num_fanins; ++i)
    if (!get_gate_vec(c, &a->removed_fanins[i])) return false;
  const std::uint32_t num_pins = c->u32();
  if (!c->ok() || num_pins > (1u << 24)) return false;
  a->rewired_pins.clear();
  a->rewired_pins.reserve(num_pins);
  for (std::uint32_t i = 0; i < num_pins; ++i) {
    RewiredPin p;
    p.sink = static_cast<GateId>(c->u32());
    p.pin = static_cast<int>(c->u32());
    p.old_driver = static_cast<GateId>(c->u32());
    p.new_driver = static_cast<GateId>(c->u32());
    a->rewired_pins.push_back(p);
  }
  const std::uint32_t num_resized = c->u32();
  if (!c->ok() || num_resized > (1u << 24)) return false;
  a->resized_cells.clear();
  a->resized_cells.reserve(num_resized);
  for (std::uint32_t i = 0; i < num_resized; ++i) {
    ResizedCell r;
    r.gate = static_cast<GateId>(c->u32());
    r.old_cell = static_cast<CellId>(c->u32());
    r.new_cell = static_cast<CellId>(c->u32());
    a->resized_cells.push_back(r);
  }
  a->new_gate = static_cast<GateId>(c->u32());
  if (!get_gate_vec(c, &a->changed_roots)) return false;
  a->area_delta = c->f64();
  return c->ok();
}

}  // namespace

// --- payload codecs ------------------------------------------------------

std::string encode_header(const WalHeader& h) {
  std::string b;
  put_u32(&b, h.version);
  put_u64(&b, h.netlist_hash);
  put_u64(&b, h.options_hash);
  put_u64(&b, h.seed);
  put_u32(&b, h.num_patterns);
  return b;
}

bool decode_header(std::string_view payload, WalHeader* out) {
  Cursor c(payload);
  out->version = c.u32();
  out->netlist_hash = c.u64();
  out->options_hash = c.u64();
  out->seed = c.u64();
  out->num_patterns = c.u32();
  return c.exhausted();
}

std::string encode_commit(const WalCommit& commit) {
  std::string b;
  put_u32(&b, commit.outer);
  put_u32(&b, commit.performed);
  put_u32(&b, commit.window);
  put_candidate(&b, commit.cand);
  put_applied(&b, commit.applied);
  return b;
}

bool decode_commit(std::string_view payload, WalCommit* out) {
  Cursor c(payload);
  out->outer = c.u32();
  out->performed = c.u32();
  out->window = c.u32();
  if (!get_candidate(&c, &out->cand)) return false;
  if (!get_applied(&c, &out->applied)) return false;
  return c.exhausted();
}

std::string encode_end(std::uint64_t commit_frames) {
  std::string b;
  put_u64(&b, commit_frames);
  return b;
}

// --- frame envelope ------------------------------------------------------

std::string encode_frame(WalFrameType type, std::string_view payload) {
  std::string body;
  body.reserve(payload.size() + 5);
  put_u8(&body, static_cast<std::uint8_t>(type));
  put_u32(&body, static_cast<std::uint32_t>(payload.size()));
  body.append(payload.data(), payload.size());

  std::string frame;
  frame.reserve(body.size() + 12);
  put_u32(&frame, kWalMagic);
  frame += body;
  put_u64(&frame, fnv1a(body));
  return frame;
}

const char* wal_read_status_name(WalReadStatus s) {
  switch (s) {
    case WalReadStatus::kClean: return "clean";
    case WalReadStatus::kTruncated: return "truncated";
    case WalReadStatus::kCorrupt: return "corrupt";
  }
  return "unknown";
}

WalContents parse_wal(std::string_view bytes) {
  WalContents out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    // A partial envelope at the tail is a torn frame, not corruption.
    if (bytes.size() - pos < 4 + 1 + 4) {
      out.status = WalReadStatus::kTruncated;
      out.error = "torn trailing frame (short envelope)";
      return out;
    }
    Cursor head(bytes.substr(pos, 9));
    const std::uint32_t magic = head.u32();
    if (magic != kWalMagic) {
      out.status = WalReadStatus::kCorrupt;
      std::ostringstream os;
      os << "bad frame magic at offset " << pos;
      out.error = os.str();
      return out;
    }
    const std::uint8_t type = head.u8();
    const std::uint32_t len = head.u32();
    if (len > (1u << 28)) {
      out.status = WalReadStatus::kCorrupt;
      out.error = "implausible frame length";
      return out;
    }
    const std::size_t frame_size = 4 + 1 + 4 + std::size_t{len} + 8;
    if (bytes.size() - pos < frame_size) {
      out.status = WalReadStatus::kTruncated;
      out.error = "torn trailing frame (short payload)";
      return out;
    }
    const std::string_view body = bytes.substr(pos + 4, 5 + len);
    const std::string_view payload = bytes.substr(pos + 9, len);
    Cursor tail(bytes.substr(pos + 9 + len, 8));
    if (tail.u64() != fnv1a(body)) {
      out.status = WalReadStatus::kCorrupt;
      std::ostringstream os;
      os << "checksum mismatch at offset " << pos;
      out.error = os.str();
      return out;
    }
    switch (static_cast<WalFrameType>(type)) {
      case WalFrameType::kHeader: {
        WalHeader h;
        if (!decode_header(payload, &h)) {
          out.status = WalReadStatus::kCorrupt;
          out.error = "undecodable header frame";
          return out;
        }
        out.header = h;
        out.has_header = true;
        break;
      }
      case WalFrameType::kCommit: {
        WalCommit c;
        if (!decode_commit(payload, &c)) {
          out.status = WalReadStatus::kCorrupt;
          out.error = "undecodable commit frame";
          return out;
        }
        out.commits.push_back(std::move(c));
        break;
      }
      case WalFrameType::kEnd:
        out.ended = true;
        break;
      default:
        out.status = WalReadStatus::kCorrupt;
        out.error = "unknown frame type";
        return out;
    }
    pos += frame_size;
  }
  out.status = WalReadStatus::kClean;
  return out;
}

WalContents read_wal(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error::io("cannot open checkpoint '" + path + "'");
  std::ostringstream os;
  os << is.rdbuf();
  return parse_wal(os.str());
}

// --- writer --------------------------------------------------------------

WalWriter::~WalWriter() { close(); }

bool WalWriter::open(const std::string& path, std::string* error) {
#ifdef _WIN32
  if (error != nullptr) *error = "WAL writer unsupported on this platform";
  return false;
#else
  close();
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    if (error != nullptr)
      *error = "cannot create checkpoint '" + path +
               "': " + std::strerror(errno);
    return false;
  }
  return true;
#endif
}

bool WalWriter::append(WalFrameType type, std::string_view payload,
                       std::string* error) {
#ifdef _WIN32
  (void)type;
  (void)payload;
  if (error != nullptr) *error = "WAL writer unsupported on this platform";
  return false;
#else
  if (fd_ < 0) {
    if (error != nullptr) *error = "checkpoint writer is closed";
    return false;
  }
  const std::string frame = encode_frame(type, payload);
  std::size_t want = frame.size();
  // Injected short write: half the frame reaches the disk, then the device
  // "fails" — leaving a genuinely torn tail for the reader to tolerate.
  const bool short_write = inject_fault(FaultInjector::Site::kCheckpointWrite);
  if (short_write) want /= 2;
  std::size_t done = 0;
  while (done < want) {
    const ssize_t n = ::write(fd_, frame.data() + done, want - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr)
        *error = std::string("checkpoint write failed: ") +
                 std::strerror(errno);
      close();
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  if (short_write) {
    (void)::fsync(fd_);
    if (error != nullptr) *error = "checkpoint write failed: injected ENOSPC";
    close();
    return false;
  }
  const bool fsync_fault = inject_fault(FaultInjector::Site::kCheckpointFsync);
  if (fsync_fault || ::fsync(fd_) != 0) {
    if (error != nullptr)
      *error = fsync_fault ? "checkpoint fsync failed: injected fault"
                           : std::string("checkpoint fsync failed: ") +
                                 std::strerror(errno);
    close();
    return false;
  }
  return true;
#endif
}

void WalWriter::close() {
#ifndef _WIN32
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
#endif
}

// --- equality ------------------------------------------------------------

bool same_candidate(const CandidateSub& a, const CandidateSub& b) {
  return a.cls == b.cls && a.target == b.target && a.branch == b.branch &&
         a.rep.kind == b.rep.kind &&
         a.rep.constant_value == b.rep.constant_value && a.rep.b == b.rep.b &&
         a.rep.invert_b == b.rep.invert_b && a.rep.c == b.rep.c &&
         a.rep.invert_c == b.rep.invert_c &&
         a.rep.two_input_fn == b.rep.two_input_fn &&
         a.rep.divisors == b.rep.divisors && a.new_cell == b.new_cell;
}

bool same_applied(const AppliedSub& a, const AppliedSub& b) {
  if (a.removed_gates != b.removed_gates) return false;
  if (a.removed_fanins != b.removed_fanins) return false;
  if (a.rewired_pins.size() != b.rewired_pins.size()) return false;
  for (std::size_t i = 0; i < a.rewired_pins.size(); ++i) {
    const RewiredPin& p = a.rewired_pins[i];
    const RewiredPin& q = b.rewired_pins[i];
    if (p.sink != q.sink || p.pin != q.pin || p.old_driver != q.old_driver ||
        p.new_driver != q.new_driver)
      return false;
  }
  if (a.resized_cells.size() != b.resized_cells.size()) return false;
  for (std::size_t i = 0; i < a.resized_cells.size(); ++i) {
    const ResizedCell& p = a.resized_cells[i];
    const ResizedCell& q = b.resized_cells[i];
    if (p.gate != q.gate || p.old_cell != q.old_cell ||
        p.new_cell != q.new_cell)
      return false;
  }
  return a.new_gate == b.new_gate && a.changed_roots == b.changed_roots &&
         a.area_delta == b.area_delta;
}

}  // namespace powder
