#include "trace/audit.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace powder {

namespace {

void append_escaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void append_double(std::string* out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key, v);
  *out += buf;
}

}  // namespace

AuditLog::AuditLog(std::ostream* os) : os_(os) {
  POWDER_CHECK(os_ != nullptr);
}

void AuditLog::write(const AuditRecord& r) {
  // Format into a local buffer first so the stream sees whole lines only.
  std::string line;
  line.reserve(256);
  char buf[96];
  // "window" is retired (always -1) and kept for the line format.
  std::snprintf(buf, sizeof(buf),
                "{\"seq\":%lld,\"iter\":%d,\"window\":-1,\"epoch\":%llu,"
                "\"cls\":\"",
                r.seq, r.iteration, r.epoch);
  line += buf;
  append_escaped(&line, r.cls);
  std::snprintf(buf, sizeof(buf), "\",\"target\":%lld", r.target);
  line += buf;
  if (!r.target_name.empty()) {
    line += ",\"target_name\":\"";
    append_escaped(&line, r.target_name);
    line += '"';
  }
  if (r.branch_sink >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"branch\":{\"sink\":%lld,\"pin\":%d}",
                  r.branch_sink, r.branch_pin);
    line += buf;
  }
  line += ",\"rep\":{\"kind\":\"";
  append_escaped(&line, r.rep_kind);
  line += '"';
  if (r.rep_b >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"b\":%lld", r.rep_b);
    line += buf;
  }
  if (r.rep_c >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"c\":%lld", r.rep_c);
    line += buf;
  }
  if (!r.rep_divisors.empty()) {
    line += ",\"divisors\":[";
    for (std::size_t i = 0; i < r.rep_divisors.size(); ++i) {
      std::snprintf(buf, sizeof(buf), i == 0 ? "%lld" : ",%lld",
                    r.rep_divisors[i]);
      line += buf;
    }
    line += ']';
  }
  line += '}';
  append_double(&line, "pg_a", r.pg_a);
  append_double(&line, "pg_b", r.pg_b);
  if (r.pg_c_known) append_double(&line, "pg_c", r.pg_c);
  if (r.proof_engine != nullptr) {
    line += ",\"proof\":{\"engine\":\"";
    append_escaped(&line, r.proof_engine);
    line += "\",\"verdict\":\"";
    append_escaped(&line, r.proof_verdict != nullptr ? r.proof_verdict : "");
    line += '"';
    if (r.proof_us >= 0.0) {
      std::snprintf(buf, sizeof(buf), ",\"us\":%.3f", r.proof_us);
      line += buf;
    }
    line += '}';
  }
  line += ",\"decision\":\"";
  append_escaped(&line, r.decision);
  line += "\"}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  records_.fetch_add(1, std::memory_order_relaxed);
}

void AuditLog::write_event(const AuditEvent& e) {
  std::string line;
  line.reserve(160);
  line += "{\"event\":\"";
  append_escaped(&line, e.event);
  line += '"';
  if (e.from != nullptr) {
    line += ",\"from\":\"";
    append_escaped(&line, e.from);
    line += '"';
  }
  if (e.to != nullptr) {
    line += ",\"to\":\"";
    append_escaped(&line, e.to);
    line += '"';
  }
  if (e.reason != nullptr) {
    line += ",\"reason\":\"";
    append_escaped(&line, e.reason);
    line += '"';
  }
  if (e.detail != nullptr) {
    line += ",\"detail\":\"";
    append_escaped(&line, e.detail);
    line += '"';
  }
  if (e.elapsed_seconds >= 0.0)
    append_double(&line, "elapsed_s", e.elapsed_seconds);
  if (e.value >= 0) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"value\":%lld", e.value);
    line += buf;
  }
  line += "}\n";

  std::lock_guard<std::mutex> lock(mutex_);
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  events_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace powder
