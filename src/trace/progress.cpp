#include "trace/progress.hpp"

#include <cmath>
#include <cstdio>

#include "util/json.hpp"

namespace powder {

namespace {

void append_double(std::string* line, const char* key, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, ",\"%s\":%.17g", key, v);
  } else {
    std::snprintf(buf, sizeof buf, ",\"%s\":null", key);
  }
  *line += buf;
}

void append_long(std::string* line, const char* key, long long v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, ",\"%s\":%lld", key, v);
  *line += buf;
}

void append_string(std::string* line, const char* key, std::string_view v) {
  *line += ",\"";
  *line += key;
  *line += "\":";
  *line += json_quote(v);
}

}  // namespace

ProgressStream::ProgressStream(std::ostream* os, double heartbeat_seconds)
    : os_(os),
      heartbeat_seconds_(heartbeat_seconds),
      start_(Clock::now()),
      last_heartbeat_(start_) {}

void ProgressStream::begin_line(std::string* line, const char* event) {
  const double t_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start_)
          .count();
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"v\":%d,\"seq\":%lld,\"t_ms\":%.3f",
                kProgressSchemaVersion, seq_, t_ms);
  *line += buf;
  append_string(line, "event", event);
  ++seq_;
}

void ProgressStream::end_line(std::string* line) {
  *line += "}\n";
  // One write + flush per event: the stream must be tailable while the
  // optimizer still holds it.
  os_->write(line->data(), static_cast<std::streamsize>(line->size()));
  os_->flush();
}

void ProgressStream::run_start(std::string_view circuit, long gates,
                               int inputs, int outputs, int threads,
                               const char* power_model) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(&line, "run_start");
  append_string(&line, "circuit", circuit);
  append_long(&line, "gates", gates);
  append_long(&line, "inputs", inputs);
  append_long(&line, "outputs", outputs);
  append_long(&line, "threads", threads);
  line += ",\"windowed\":false";  // retired, kept for the line format
  append_string(&line, "power_model", power_model);
  end_line(&line);
}

void ProgressStream::phase(int iteration, const char* name, long long count,
                           const char* count_key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(&line, "phase");
  append_long(&line, "iter", iteration);
  append_string(&line, "phase", name);
  if (count >= 0 && count_key != nullptr) append_long(&line, count_key, count);
  end_line(&line);
}

void ProgressStream::commit(int iteration, const char* cls, double gain,
                            double power_after) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(&line, "commit");
  append_long(&line, "iter", iteration);
  append_string(&line, "cls", cls);
  append_long(&line, "window", -1);  // retired, kept for the line format
  append_double(&line, "gain", gain);
  append_double(&line, "power", power_after);
  end_line(&line);
}

bool ProgressStream::heartbeat_due() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (heartbeats_ == 0) return true;
  const double since =
      std::chrono::duration<double>(Clock::now() - last_heartbeat_).count();
  return since >= heartbeat_seconds_;
}

void ProgressStream::heartbeat(const Stats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  const double since =
      std::chrono::duration<double>(now - last_heartbeat_).count();
  if (heartbeats_ > 0 && since < heartbeat_seconds_) return;

  std::string line;
  begin_line(&line, "heartbeat");
  append_long(&line, "iter", stats.iteration);
  append_long(&line, "max_iter", stats.max_iterations);
  append_double(&line, "power", stats.power);
  append_long(&line, "applied", stats.applied);
  append_long(&line, "harvested", stats.harvested);
  append_long(&line, "proofs", stats.proofs);
  // Rates over the interval since the previous heartbeat (or run start).
  const double dt = heartbeats_ == 0
                        ? std::chrono::duration<double>(now - start_).count()
                        : since;
  if (dt > 0.0) {
    append_double(&line, "applied_per_s",
                  static_cast<double>(stats.applied - last_stats_.applied) /
                      dt);
    append_double(
        &line, "candidates_per_s",
        static_cast<double>(stats.harvested - last_stats_.harvested) / dt);
  }
  // Coarse upper bound: greedy runs usually exit early on no-progress, so
  // this assumes every remaining outer iteration costs as much as the
  // average so far.
  if (stats.iteration > 0 && stats.max_iterations > stats.iteration) {
    const double elapsed =
        std::chrono::duration<double>(now - start_).count();
    append_double(&line, "eta_s",
                  elapsed / stats.iteration *
                      (stats.max_iterations - stats.iteration));
  }
  end_line(&line);
  last_heartbeat_ = now;
  last_stats_ = stats;
  ++heartbeats_;
}

void ProgressStream::degradation(const char* from, const char* to,
                                 const char* reason) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(&line, "degradation");
  append_string(&line, "from", from);
  append_string(&line, "to", to);
  if (reason != nullptr) append_string(&line, "reason", reason);
  end_line(&line);
}

void ProgressStream::checkpoint(long long frames) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(&line, "checkpoint");
  append_long(&line, "frames", frames);
  end_line(&line);
}

void ProgressStream::run_end(double power, long long applied,
                             int iterations) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string line;
  begin_line(&line, "run_end");
  append_double(&line, "power", power);
  append_long(&line, "applied", applied);
  append_long(&line, "iterations", iterations);
  end_line(&line);
}

ProgressValidation validate_progress_stream(std::string_view text) {
  ProgressValidation out;
  long long expected_seq = 0;
  double last_t = -1.0;
  bool saw_run_start = false;
  bool saw_run_end = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    ++out.lines;

    std::string parse_error;
    const auto doc = json_parse(line, &parse_error);
    if (doc == nullptr || !doc->is_object()) {
      out.error = "progress line " + std::to_string(out.lines) +
                  ": not a JSON object (" + parse_error + ")";
      return out;
    }
    if (saw_run_end) {
      out.error = "progress: events after run_end";
      return out;
    }
    const JsonValue* v = doc->find_number("v");
    if (v == nullptr ||
        v->as_number() != static_cast<double>(kProgressSchemaVersion)) {
      out.error = "progress line " + std::to_string(out.lines) +
                  ": missing or unexpected schema version";
      return out;
    }
    const JsonValue* seq = doc->find_number("seq");
    if (seq == nullptr || seq->as_number() != expected_seq) {
      out.error = "progress line " + std::to_string(out.lines) +
                  ": seq not contiguous";
      return out;
    }
    ++expected_seq;
    const JsonValue* t = doc->find_number("t_ms");
    if (t == nullptr || t->as_number() < last_t) {
      out.error = "progress line " + std::to_string(out.lines) +
                  ": t_ms missing or non-monotone";
      return out;
    }
    last_t = t->as_number();
    const JsonValue* event = doc->find_string("event");
    if (event == nullptr) {
      out.error = "progress line " + std::to_string(out.lines) +
                  ": missing event";
      return out;
    }
    const std::string& ev = event->as_string();
    if (out.lines == 1 && ev != "run_start") {
      out.error = "progress: first event is not run_start";
      return out;
    }
    if (ev == "run_start") saw_run_start = true;
    if (ev == "run_end") saw_run_end = true;
    if (ev == "heartbeat") ++out.heartbeats;
    if (ev == "phase") ++out.phases;
    // Unknown event types are legal by the stability rules; count only.
  }
  if (!saw_run_start) {
    out.error = "progress: no run_start event";
    return out;
  }
  if (!saw_run_end) {
    out.error = "progress: no run_end event";
    return out;
  }
  if (out.heartbeats == 0) {
    out.error = "progress: no heartbeat emitted";
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace powder
