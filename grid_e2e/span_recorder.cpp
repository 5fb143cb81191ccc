#include "span_recorder.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace grid_e2e {

const char* call_name(Call call) {
  switch (call) {
    case Call::kGridConstruct: return "Grid::Grid";
    case Call::kJdlParse: return "jdl::JobDescription::parse";
    case Call::kGridSubmit: return "Grid::submit";
    case Call::kRunUntil: return "Simulation::run_until";
    case Call::kWriteStdout: return "ConsoleAgent::write_stdout";
    case Call::kTypeLine: return "ConsoleShadow::type_line";
    case Call::kExportJsonl: return "Grid::export_trace_jsonl";
  }
  return "?";
}

const char* call_key(Call call) {
  switch (call) {
    case Call::kGridConstruct: return "grid_construct";
    case Call::kJdlParse: return "jdl_parse";
    case Call::kGridSubmit: return "grid_submit";
    case Call::kRunUntil: return "run_until";
    case Call::kWriteStdout: return "write_stdout";
    case Call::kTypeLine: return "type_line";
    case Call::kExportJsonl: return "export_jsonl";
  }
  return "unknown";
}

SpanRecorder::SpanRecorder(std::size_t max_stored_spans)
    : origin_{std::chrono::steady_clock::now()}, max_stored_{max_stored_spans} {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void SpanRecorder::begin(Call call) {
  const std::uint32_t id = next_id_++;
  const std::uint32_t parent = open_.empty() ? 0 : open_.back().id;
  std::size_t stored = std::numeric_limits<std::size_t>::max();
  const std::int64_t start = now_ns();
  if (spans_.size() < max_stored_) {
    stored = spans_.size();
    Span span;
    span.id = id;
    span.parent = parent;
    span.call = call;
    span.start_ns = start;
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
  open_.push_back({stored, id, call, start, 0});
}

void SpanRecorder::end() {
  const std::int64_t stop = now_ns();
  const Open open = open_.back();
  open_.pop_back();
  const std::int64_t duration = stop - open.start_ns;
  Stats& stats = stats_[static_cast<std::size_t>(open.call)];
  ++stats.count;
  stats.total_ns += duration;
  stats.self_ns += duration - open.child_ns;
  stats.durations_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
      duration, std::numeric_limits<std::uint32_t>::max())));
  if (!open_.empty()) open_.back().child_ns += duration;
  if (open.stored_index < spans_.size()) spans_[open.stored_index].end_ns = stop;
}

void SpanRecorder::annotate_slice(std::int64_t sim_end_us, std::int64_t events,
                                  std::int64_t queue_depth) {
  if (open_.empty() || open_.back().stored_index >= spans_.size()) return;
  Span& span = spans_[open_.back().stored_index];
  span.sim_end_us = sim_end_us;
  span.events = events;
  span.queue_depth = queue_depth;
}

double SpanRecorder::percentile_us(Call call, double p) const {
  std::vector<std::uint32_t> sorted = stats(call).durations_ns;
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      std::min(sorted.size() - 1,
               static_cast<std::size_t>(std::max(1.0, rank)) - 1);
  return static_cast<double>(sorted[index]) / 1000.0;
}

std::string SpanRecorder::chrome_trace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out +=
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"grid_e2e host\"}}";
  const auto micros = [](std::int64_t ns) {
    return std::to_string(ns / 1000) + "." + std::to_string(ns % 1000 / 100);
  };
  for (const Span& span : spans_) {
    out += ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"";
    out += call_name(span.call);
    out += "\",\"ts\":" + micros(span.start_ns) +
           ",\"dur\":" + micros(span.end_ns - span.start_ns) +
           ",\"args\":{\"id\":" + std::to_string(span.id) +
           ",\"parent\":" + std::to_string(span.parent);
    if (span.events >= 0) {
      out += ",\"sim_end_s\":" + std::to_string(span.sim_end_us / 1'000'000) +
             ",\"events\":" + std::to_string(span.events) +
             ",\"queue_depth\":" + std::to_string(span.queue_depth);
    }
    out += "}}";
  }
  out += "\n],\"otherData\":{\"dropped_spans\":" + std::to_string(dropped_);
  for (std::size_t i = 0; i < kCallCount; ++i) {
    const Stats& s = stats_[i];
    out += ",\"";
    out += call_key(static_cast<Call>(i));
    out += "\":{\"count\":" + std::to_string(s.count) +
           ",\"total_ns\":" + std::to_string(s.total_ns) +
           ",\"self_ns\":" + std::to_string(s.self_ns) + "}";
  }
  out += "}}\n";
  return out;
}

}  // namespace grid_e2e
