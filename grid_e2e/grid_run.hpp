// Drives one cg::Grid through a generated workload and collects what the
// benchmark reports: job outcomes, console line and echo latencies (in
// simulated seconds), the decision digest, and per-layer counts read from
// the grid's public accessors and metrics snapshot.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "span_recorder.hpp"
#include "workload.hpp"

namespace grid_e2e {

/// Delivery bookkeeping of one console session.
struct SessionTally {
  std::uint64_t lines_written = 0;
  std::uint64_t lines_seen = 0;     ///< lines that reached the screen sink
  std::uint64_t out_of_order = 0;   ///< lines whose sequence number skipped
  std::uint64_t garbled = 0;        ///< unparseable, foreign or repeated echo
  std::uint64_t typed = 0;
  std::uint64_t echoed = 0;
  std::uint64_t inputs_expected = 0;   ///< typed lines x subjobs
  std::uint64_t inputs_delivered = 0;
};

/// Formats one console output line into `out`: session, subjob rank,
/// per-rank sequence number, write time and (for an echo) the index of the
/// typed line it answers, padded with '.' to `padded_bytes`, newline-ended.
void format_line(std::string& out, std::uint64_t session, std::uint64_t rank,
                 std::uint64_t seq, std::int64_t written_us, const std::uint64_t* echo_of,
                 std::size_t padded_bytes);

/// The user's side of one console session: reassembles what reaches the
/// screen into lines and checks each one against what the application
/// wrote (right session, next sequence number of its rank, each typed line
/// echoed once), recording line and echo latencies.
class ScreenLedger {
public:
  ScreenLedger(std::uint64_t session, std::size_t ranks)
      : session_{session}, next_read_(ranks, 0) {}

  /// The user typed a line at `now_us`; returns its index.
  std::uint64_t typed(std::int64_t now_us);
  /// Screen output arrived at `now_us` (any chunking of whole lines).
  void on_screen(std::string_view data, std::int64_t now_us,
                 std::vector<double>& line_latency_s, std::vector<double>& echo_latency_s);

  [[nodiscard]] SessionTally& tally() { return tally_; }
  [[nodiscard]] const SessionTally& tally() const { return tally_; }

private:
  void on_line(std::string_view line, std::int64_t now_us,
               std::vector<double>& line_latency_s, std::vector<double>& echo_latency_s);

  std::uint64_t session_;
  std::vector<std::uint64_t> next_read_;
  std::string partial_;
  std::vector<std::int64_t> typed_at_us_;
  std::vector<std::uint8_t> echoed_;
  SessionTally tally_;
};

/// Per-layer work counts of one run (traced runs fill the snapshot-derived
/// fields; the sampled peaks are always filled).
struct LayerCounts {
  std::uint64_t sim_events = 0;
  std::uint64_t pending_peak = 0;       ///< sampled at slice ends
  std::uint64_t broker_queue_peak = 0;  ///< sampled at slice ends
  std::uint64_t lrms_queue_peak = 0;    ///< all sites' LRMS queues, summed
  std::uint64_t index_queries = 0;
  std::uint64_t site_queries = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t legacy_trace_entries = 0;
  std::uint64_t chunk_pool_high_water = 0;  ///< max over consoles
  std::uint64_t frames_received = 0;        ///< shadow frames, all consoles
  std::uint64_t mpi_subjobs = 0;
  double export_s = 0.0;  ///< Grid::export_trace_jsonl, traced runs only
  /// Medians of histogram families merged over their label sets (traced
  /// runs only; bucket estimates).
  double match_latency_p50_s = 0.0;
  double lrms_dispatch_latency_p50_s = 0.0;
  cg::obs::MetricsSnapshot snapshot;  ///< traced runs only
};

struct RunResult {
  double setup_s = 0.0;  ///< host seconds in Grid::Grid
  double run_s = 0.0;    ///< host seconds of the simulated run and drain
  double sim_end_s = 0.0;
  /// Largest resident set of the process sampled at the slice boundaries,
  /// in MiB: what the run holds, without the transient spikes of buffer
  /// reallocation that would make a single peak reading jump between seeds.
  double rss_mb = 0.0;

  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;   ///< ended kFailed or kRejected
  std::uint64_t refused = 0;  ///< Grid::submit returned an error
  std::uint64_t non_terminal = 0;
  std::uint64_t interactive_attempted = 0;
  std::uint64_t interactive_failed = 0;  ///< failed + refused
  std::map<std::string, std::uint64_t> failure_codes;  ///< by error code
  std::map<std::string, std::uint64_t> placements;     ///< by placement kind

  // Modelled samples, simulated seconds.
  std::vector<double> interactive_start_s;
  std::vector<double> batch_turnaround_s;
  std::vector<double> line_latency_s;
  std::vector<double> echo_latency_s;

  std::vector<SessionTally> sessions;
  std::uint64_t digest = 0;
  LayerCounts layers;
};

/// Runs the workload on a fresh grid. With a recorder, spans are recorded
/// around every call into a layer and the traced-only fields are filled.
/// `between_slices`, when set, runs after every simulated slice; its host
/// time is excluded from `run_s`.
[[nodiscard]] RunResult run_workload(const WorkloadInput& input,
                                     SpanRecorder* spans = nullptr,
                                     const std::function<void()>& between_slices = {});

/// Host seconds to construct (and then destroy) the workload's testbed:
/// one extra set-up sample.
[[nodiscard]] double time_grid_setup(const WorkloadInput& input);

/// Correctness violations of a run (empty when it passed): job
/// conservation, no job left non-terminal, every console line delivered
/// exactly once and in order, every typed line delivered to every subjob
/// and echoed.
[[nodiscard]] std::vector<std::string> check(const RunResult& result);

}  // namespace grid_e2e
