// Host-time spans recorded by the benchmark around its own calls into each
// layer's public functions. Spans nest (a submit issued from inside a
// run_until slice is that slice's child), carry name, start, end and parent,
// and stay in memory until the run writes them out in Chrome trace_event
// format. Every span also feeds its layer's aggregate (count, total, self
// time, duration samples), so the aggregates stay exact when the stored
// span list hits its cap.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace grid_e2e {

enum class Call : std::uint8_t {
  kGridConstruct,  ///< cg::Grid::Grid
  kJdlParse,       ///< jdl::JobDescription::parse
  kGridSubmit,     ///< cg::Grid::submit
  kRunUntil,       ///< sim::Simulation::run_until (one slice)
  kWriteStdout,    ///< stream::ConsoleAgent::write_stdout
  kTypeLine,       ///< stream::ConsoleShadow::type_line
  kExportJsonl,    ///< cg::Grid::export_trace_jsonl
};
inline constexpr std::size_t kCallCount = 7;

[[nodiscard]] const char* call_name(Call call);
/// Short metric-friendly key: "grid_construct", "run_until", ...
[[nodiscard]] const char* call_key(Call call);

class SpanRecorder {
public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    Call call = Call::kRunUntil;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Slice attributes (run_until spans only; -1 elsewhere).
    std::int64_t sim_end_us = -1;
    std::int64_t events = -1;
    std::int64_t queue_depth = -1;
  };

  struct Stats {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::vector<std::uint32_t> durations_ns;  ///< saturated at ~4.29 s
  };

  explicit SpanRecorder(std::size_t max_stored_spans = 200'000);

  /// Opens a span as a child of the innermost open one.
  void begin(Call call);
  /// Closes the innermost open span.
  void end();
  /// Attaches slice attributes to the innermost open span.
  void annotate_slice(std::int64_t sim_end_us, std::int64_t events,
                      std::int64_t queue_depth);

  [[nodiscard]] const Stats& stats(Call call) const {
    return stats_[static_cast<std::size_t>(call)];
  }
  /// Nearest-rank percentile of one call's durations, in microseconds.
  [[nodiscard]] double percentile_us(Call call, double p) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped_spans() const { return dropped_; }

  /// chrome://tracing / Perfetto JSON: one complete ("X") event per stored
  /// span, ids and parents in args, per-call aggregates in "otherData".
  [[nodiscard]] std::string chrome_trace() const;

  /// RAII span; a null recorder makes it a no-op (untraced runs).
  class Scope {
  public:
    Scope(SpanRecorder* recorder, Call call) : recorder_{recorder} {
      if (recorder_ != nullptr) recorder_->begin(call);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder* recorder_;
  };

private:
  struct Open {
    std::size_t stored_index;  ///< SIZE_MAX when not stored
    std::uint32_t id;
    Call call;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::size_t max_stored_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::array<Stats, kCallCount> stats_{};
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

}  // namespace grid_e2e
