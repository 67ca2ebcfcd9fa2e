#include "trace/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace powder {

namespace {

std::atomic<std::uint64_t> g_next_session_id{1};

/// Per-thread cache of the last session this thread registered with. The
/// (pointer, id) pair guards against a destroyed session's address being
/// reused by a new one.
struct ThreadSlot {
  const void* owner = nullptr;
  std::uint64_t session_id = 0;
  void* buf = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

TraceSession::TraceSession(std::size_t events_per_thread)
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      t0_ns_(trace_now_ns()),
      events_per_thread_(events_per_thread) {}

TraceSession::~TraceSession() = default;

TraceSession::ThreadBuf* TraceSession::thread_buf() {
  if (t_slot.owner == this && t_slot.session_id == id_)
    return static_cast<ThreadBuf*>(t_slot.buf);
  std::lock_guard<std::mutex> lock(mutex_);
  auto buf = std::make_unique<ThreadBuf>(events_per_thread_);
  buf->tid = static_cast<std::uint32_t>(buffers_.size());
  ThreadBuf* raw = buf.get();
  buffers_.push_back(std::move(buf));
  t_slot = ThreadSlot{this, id_, raw};
  return raw;
}

void TraceSession::record(const TraceEvent& event) {
  ThreadBuf* buf = thread_buf();
  if (buf->ring.try_push(event)) {
    recorded_.fetch_add(1, std::memory_order_relaxed);
  } else {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TraceSession::record_span(const char* name, const char* cat,
                               std::uint64_t ts_ns, std::uint64_t dur_ns,
                               const char* arg1_name, long long arg1,
                               const char* arg2_name, long long arg2) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.ph = 'X';
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  ev.arg2_name = arg2_name;
  ev.arg2 = arg2;
  record(ev);
}

void TraceSession::record_instant(const char* name, const char* cat,
                                  const char* arg1_name, long long arg1) {
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = trace_now_ns();
  ev.ph = 'i';
  ev.arg1_name = arg1_name;
  ev.arg1 = arg1;
  record(ev);
}

void TraceSession::drain() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> tmp;
  for (const auto& buf : buffers_) {
    tmp.clear();
    buf->ring.pop_all(&tmp);
    for (const TraceEvent& ev : tmp)
      drained_.push_back(TaggedEvent{ev, buf->tid});
  }
}

std::size_t TraceSession::threads_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.size();
}

namespace {

void append_json_string(std::ostream& os, const char* s) {
  os << '"';
  for (; s != nullptr && *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Microseconds with nanosecond resolution, printed as a decimal (Chrome's
/// `ts`/`dur` unit is microseconds; fractions are allowed).
void append_us(std::ostream& os, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  os << buf;
}

}  // namespace

void TraceSession::write_chrome_json(std::ostream& os) {
  drain();
  std::vector<TaggedEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    events = drained_;
  }
  // Start time, then longest-first: parents sort before their children, so
  // the output order is deterministic and human-scannable.
  std::stable_sort(events.begin(), events.end(),
                   [](const TaggedEvent& a, const TaggedEvent& b) {
                     if (a.event.ts_ns != b.event.ts_ns)
                       return a.event.ts_ns < b.event.ts_ns;
                     if (a.event.dur_ns != b.event.dur_ns)
                       return a.event.dur_ns > b.event.dur_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return std::strcmp(a.event.name, b.event.name) < 0;
                   });

  // The session's own counts ride in `otherData` (the trace-event format's
  // metadata object): a trace that dropped events says so itself.
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"events_recorded\":"
     << events_recorded() << ",\"dropped\":" << dropped()
     << "},\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"powder\"}}";
  for (const TaggedEvent& te : events) {
    const TraceEvent& ev = te.event;
    os << ",\n{\"name\":";
    append_json_string(os, ev.name);
    os << ",\"cat\":";
    append_json_string(os, ev.cat != nullptr ? ev.cat : "default");
    os << ",\"ph\":\"" << ev.ph << "\",\"pid\":1,\"tid\":" << te.tid
       << ",\"ts\":";
    append_us(os, ev.ts_ns >= t0_ns_ ? ev.ts_ns - t0_ns_ : 0);
    if (ev.ph == 'X') {
      os << ",\"dur\":";
      append_us(os, ev.dur_ns);
    }
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    if (ev.arg1_name != nullptr || ev.arg2_name != nullptr) {
      os << ",\"args\":{";
      bool first = true;
      if (ev.arg1_name != nullptr) {
        append_json_string(os, ev.arg1_name);
        os << ":" << ev.arg1;
        first = false;
      }
      if (ev.arg2_name != nullptr) {
        if (!first) os << ",";
        append_json_string(os, ev.arg2_name);
        os << ":" << ev.arg2;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

std::string TraceSession::chrome_json() {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Minimal Chrome-JSON schema validation (no external JSON dependency): a
// recursive-descent parser that keeps only what the checks need.

namespace {

struct JsonCursor {
  const char* p;
  const char* end;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg;
    return false;
  }
  void skip_ws() {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p == end || *p != c) return false;
    ++p;
    return true;
  }
};

bool skip_value(JsonCursor* c);

bool parse_string(JsonCursor* c, std::string* out) {
  c->skip_ws();
  if (c->p == c->end || *c->p != '"') return c->fail("expected string");
  ++c->p;
  while (c->p != c->end && *c->p != '"') {
    if (*c->p == '\\') {
      ++c->p;
      if (c->p == c->end) return c->fail("bad escape");
    }
    if (out != nullptr) out->push_back(*c->p);
    ++c->p;
  }
  if (c->p == c->end) return c->fail("unterminated string");
  ++c->p;
  return true;
}

bool parse_number(JsonCursor* c, double* out) {
  c->skip_ws();
  char* num_end = nullptr;
  const double v = std::strtod(c->p, &num_end);
  if (num_end == c->p) return c->fail("expected number");
  c->p = num_end;
  if (out != nullptr) *out = v;
  return true;
}

bool skip_object(JsonCursor* c) {
  if (!c->consume('{')) return c->fail("expected object");
  c->skip_ws();
  if (c->consume('}')) return true;
  while (true) {
    if (!parse_string(c, nullptr)) return false;
    if (!c->consume(':')) return c->fail("expected ':'");
    if (!skip_value(c)) return false;
    if (c->consume('}')) return true;
    if (!c->consume(',')) return c->fail("expected ',' in object");
  }
}

bool skip_array(JsonCursor* c) {
  if (!c->consume('[')) return c->fail("expected array");
  c->skip_ws();
  if (c->consume(']')) return true;
  while (true) {
    if (!skip_value(c)) return false;
    if (c->consume(']')) return true;
    if (!c->consume(',')) return c->fail("expected ',' in array");
  }
}

bool skip_value(JsonCursor* c) {
  c->skip_ws();
  if (c->p == c->end) return c->fail("unexpected end");
  switch (*c->p) {
    case '{': return skip_object(c);
    case '[': return skip_array(c);
    case '"': return parse_string(c, nullptr);
    case 't':
      if (c->end - c->p >= 4 && std::strncmp(c->p, "true", 4) == 0) {
        c->p += 4;
        return true;
      }
      return c->fail("bad literal");
    case 'f':
      if (c->end - c->p >= 5 && std::strncmp(c->p, "false", 5) == 0) {
        c->p += 5;
        return true;
      }
      return c->fail("bad literal");
    case 'n':
      if (c->end - c->p >= 4 && std::strncmp(c->p, "null", 4) == 0) {
        c->p += 4;
        return true;
      }
      return c->fail("bad literal");
    default: return parse_number(c, nullptr);
  }
}

/// Parses one trace event object and checks the minimal schema.
bool check_event(JsonCursor* c, std::size_t index) {
  const auto ctx = [index](const std::string& msg) {
    return "event " + std::to_string(index) + ": " + msg;
  };
  if (!c->consume('{')) return c->fail(ctx("expected object"));
  bool has_name = false, has_ph = false, has_ts = false, has_pid = false,
       has_tid = false, has_dur = false;
  std::string ph;
  c->skip_ws();
  if (!c->consume('}')) {
    while (true) {
      std::string key;
      if (!parse_string(c, &key)) return false;
      if (!c->consume(':')) return c->fail(ctx("expected ':'"));
      if (key == "name") {
        if (!parse_string(c, nullptr)) return c->fail(ctx("name not a string"));
        has_name = true;
      } else if (key == "ph") {
        if (!parse_string(c, &ph)) return c->fail(ctx("ph not a string"));
        has_ph = true;
      } else if (key == "ts") {
        double v = 0;
        if (!parse_number(c, &v)) return c->fail(ctx("ts not a number"));
        if (v < 0) return c->fail(ctx("negative ts"));
        has_ts = true;
      } else if (key == "dur") {
        double v = 0;
        if (!parse_number(c, &v)) return c->fail(ctx("dur not a number"));
        if (v < 0) return c->fail(ctx("negative dur"));
        has_dur = true;
      } else if (key == "pid") {
        if (!parse_number(c, nullptr)) return c->fail(ctx("pid not a number"));
        has_pid = true;
      } else if (key == "tid") {
        if (!parse_number(c, nullptr)) return c->fail(ctx("tid not a number"));
        has_tid = true;
      } else {
        if (!skip_value(c)) return false;
      }
      if (c->consume('}')) break;
      if (!c->consume(',')) return c->fail(ctx("expected ','"));
    }
  }
  if (!has_name) return c->fail(ctx("missing name"));
  if (!has_ph || ph.size() != 1) return c->fail(ctx("missing/bad ph"));
  if (!has_pid) return c->fail(ctx("missing pid"));
  if (!has_tid) return c->fail(ctx("missing tid"));
  // Metadata events carry no timestamp requirement; everything else does.
  if (ph != "M" && !has_ts) return c->fail(ctx("missing ts"));
  if (ph == "X" && !has_dur) return c->fail(ctx("complete event missing dur"));
  return true;
}

}  // namespace

bool validate_chrome_json(std::string_view json, std::size_t* num_events,
                          std::string* error) {
  // Own a null-terminated copy: parse_number leans on strtod, which needs a
  // terminator to be safe when a number ends the document.
  const std::string owned(json);
  JsonCursor c{owned.data(), owned.data() + owned.size(), {}};
  const auto done = [&](bool ok) {
    if (!ok && error != nullptr) *error = c.error;
    return ok;
  };
  if (!c.consume('{')) return done(c.fail("top level is not an object"));
  bool saw_events = false;
  std::size_t count = 0;
  c.skip_ws();
  if (!c.consume('}')) {
    while (true) {
      std::string key;
      if (!parse_string(&c, &key)) return done(false);
      if (!c.consume(':')) return done(c.fail("expected ':'"));
      if (key == "traceEvents") {
        saw_events = true;
        if (!c.consume('[')) return done(c.fail("traceEvents not an array"));
        c.skip_ws();
        if (!c.consume(']')) {
          while (true) {
            if (!check_event(&c, count)) return done(false);
            ++count;
            if (c.consume(']')) break;
            if (!c.consume(',')) return done(c.fail("expected ','"));
          }
        }
      } else {
        if (!skip_value(&c)) return done(false);
      }
      if (c.consume('}')) break;
      if (!c.consume(',')) return done(c.fail("expected ',' at top level"));
    }
  }
  c.skip_ws();
  if (c.p != c.end) return done(c.fail("trailing content"));
  if (!saw_events) return done(c.fail("missing traceEvents"));
  if (num_events != nullptr) *num_events = count;
  return true;
}

}  // namespace powder
