#include "grid_run.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "grid/grid.hpp"
#include "stream/grid_console.hpp"

namespace grid_e2e {
namespace {

using cg::Duration;
using cg::SimTime;
using Clock = std::chrono::steady_clock;

/// The process's current resident set in MiB (Linux /proc/self/statm).
double resident_mb() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(statm, "%lu %lu", &size, &resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
};

/// Reads "<tag><unsigned>" at `pos` in `text` (skipping one space first).
bool read_field(std::string_view text, std::size_t& pos, char tag,
                std::uint64_t& value) {
  if (pos < text.size() && text[pos] == ' ') ++pos;
  if (pos >= text.size() || text[pos] != tag) return false;
  const char* first = text.data() + pos + 1;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr == first) return false;
  pos = static_cast<std::size_t>(ptr - text.data());
  return true;
}

/// Median of a histogram family merged across all its label sets.
double merged_p50(const cg::obs::MetricsRegistry& registry,
                  const cg::obs::MetricsSnapshot& snapshot, const std::string& name) {
  std::optional<cg::obs::Histogram> merged;
  for (const cg::obs::MetricSample& sample : snapshot.samples) {
    if (sample.name != name) continue;
    const cg::obs::Histogram* h = registry.find_histogram(name, sample.labels);
    if (h == nullptr) continue;
    if (merged) {
      merged->merge(*h);
    } else {
      merged = *h;
    }
  }
  return merged ? merged->percentile(50.0) : 0.0;
}

class Runner;

/// One interactive job's console: a GridConsole between the UI machine and
/// the job's worker nodes, the application's scripted output bursts and
/// echo, and the user's scripted typing. Each event schedules its own
/// successor when it fires.
class Session {
public:
  Session(Runner& runner, std::uint32_t id, const ConsoleScript& script);

  void start(const cg::broker::JobRecord& record);
  /// Pulls the console's counters before it is destroyed (or at run end).
  void harvest();
  [[nodiscard]] SessionTally tally() const {
    return ledger_ ? ledger_->tally() : SessionTally{};
  }

private:
  void burst();
  void type();
  void write_line(std::size_t rank, const std::uint64_t* echo_of);
  void on_screen(std::string_view data);
  void on_input(std::size_t rank, const std::string& line);
  void maybe_release();

  Runner& runner_;
  std::uint32_t id_;
  cg::Rng rng_;
  ConsoleScript script_;
  SimTime end_;
  std::unique_ptr<cg::stream::GridConsole> console_;
  std::vector<cg::stream::ConsoleAgent*> agents_;  ///< by subjob index
  std::vector<std::uint64_t> next_write_;
  std::string line_;  ///< reused output-line buffer
  std::optional<ScreenLedger> ledger_;
  bool script_done_ = false;
  bool released_ = false;
  bool harvested_ = false;
};

class Runner {
public:
  Runner(const WorkloadInput& input, SpanRecorder* spans,
         const std::function<void()>& between_slices, RunResult& out)
      : input_{input},
        spec_{input.spec},
        spans_{spans},
        between_slices_{between_slices},
        out_{out} {}

  void run();

  cg::Grid& grid() { return *grid_; }
  SpanRecorder* spans() { return spans_; }
  RunResult& out() { return out_; }
  const WorkloadSpec& spec() const { return spec_; }
  const std::string& endpoint_of(cg::SiteId site) const {
    return endpoints_.at(site.value());
  }

private:
  void setup();
  void schedule_next_arrival();
  void arrive();
  void drive();
  void collect();

  const WorkloadInput& input_;
  const WorkloadSpec& spec_;
  SpanRecorder* spans_;
  const std::function<void()>& between_slices_;
  double between_slices_s_ = 0.0;
  RunResult& out_;
  std::unique_ptr<cg::Grid> grid_;
  std::unordered_map<std::uint64_t, std::string> endpoints_;
  std::vector<cg::JobId> ids_;  ///< per input job; invalid when refused
  std::size_t next_arrival_ = 0;
  // Declared after grid_: consoles must be destroyed before the simulation.
  std::vector<std::unique_ptr<Session>> sessions_;
};

Session::Session(Runner& runner, std::uint32_t id, const ConsoleScript& script)
    : runner_{runner}, id_{id}, rng_{script.seed}, script_{script} {}

void Session::start(const cg::broker::JobRecord& record) {
  if (console_) return;  // a resubmitted job keeps its first console
  cg::Grid& grid = runner_.grid();
  end_ = grid.now() + Duration::from_seconds(script_.duration_s);

  cg::stream::GridConsoleConfig config;
  config.mode = record.description.streaming_mode();
  config.obs = grid.obs_ptr();
  config.job = record.id;
  console_ = std::make_unique<cg::stream::GridConsole>(
      grid.sim(), grid.network(), config, cg::Grid::ui_endpoint(),
      cg::stream::ConsoleShadow::ChunkSink{
          [this](cg::stream::ChunkRef data) { on_screen(data.view()); }},
      cg::Rng{rng_.next_u64()});
  for (const auto& sub : record.subjobs) {
    const std::size_t rank = agents_.size();
    cg::stream::ConsoleAgent& agent =
        console_->add_agent(sub.rank, runner_.endpoint_of(sub.site));
    agent.set_input_handler(
        [this, rank](std::string line) { on_input(rank, line); });
    agents_.push_back(&agent);
  }
  if (agents_.size() > 1) runner_.out().layers.mpi_subjobs += agents_.size();
  next_write_.assign(agents_.size(), 0);
  ledger_.emplace(id_, agents_.size());
  burst();
  type();
}

void Session::burst() {
  if (runner_.grid().now() >= end_) {
    script_done_ = true;
    for (cg::stream::ConsoleAgent* agent : agents_) agent->close();
    maybe_release();
    return;
  }
  const int max_lines = runner_.spec().burst_lines_max;
  for (std::size_t rank = 0; rank < agents_.size(); ++rank) {
    const auto lines = rng_.uniform_int(1, max_lines);
    for (std::int64_t i = 0; i < lines; ++i) write_line(rank, nullptr);
  }
  runner_.grid().sim().schedule(
      Duration::from_seconds(rng_.exponential(runner_.spec().burst_gap_s)),
      [this] { burst(); });
}

void Session::type() {
  cg::Grid& grid = runner_.grid();
  if (grid.now() >= end_) return;
  const std::uint64_t k = ledger_->typed(grid.now().count_micros());
  ledger_->tally().inputs_expected += agents_.size();
  std::string line = "S" + std::to_string(id_) + " I" + std::to_string(k);
  {
    SpanRecorder::Scope span{runner_.spans(), Call::kTypeLine};
    console_->shadow().type_line(std::move(line));
  }
  grid.sim().schedule(
      Duration::from_seconds(rng_.exponential(runner_.spec().type_gap_s)),
      [this] { type(); });
}

void Session::write_line(std::size_t rank, const std::uint64_t* echo_of) {
  format_line(line_, id_, rank, next_write_[rank]++, runner_.grid().now().count_micros(),
              echo_of, static_cast<std::size_t>(runner_.spec().line_bytes));
  ++ledger_->tally().lines_written;
  SpanRecorder::Scope span{runner_.spans(), Call::kWriteStdout};
  agents_[rank]->write_stdout(line_);
}

void Session::on_input(std::size_t rank, const std::string& line) {
  ++ledger_->tally().inputs_delivered;
  if (rank == 0) {
    // The application (rank 0, the paper's convention) echoes the command.
    std::size_t pos = line.find(' ');
    std::uint64_t k = 0;
    if (pos == std::string::npos || !read_field(line, pos, 'I', k)) {
      ++ledger_->tally().garbled;
    } else {
      write_line(0, &k);
    }
  }
  maybe_release();
}

void Session::on_screen(std::string_view data) {
  RunResult& out = runner_.out();
  ledger_->on_screen(data, runner_.grid().now().count_micros(), out.line_latency_s,
                     out.echo_latency_s);
  maybe_release();
}

void Session::maybe_release() {
  const SessionTally& t = ledger_->tally();
  if (released_ || !script_done_ || t.lines_seen != t.lines_written ||
      t.inputs_delivered != t.inputs_expected || t.echoed != t.typed) {
    return;
  }
  // Everything this console carries has arrived: free it, from a fresh event
  // since we may be inside one of its own callbacks.
  released_ = true;
  harvest();
  runner_.grid().sim().schedule(Duration::zero(), [this] { console_.reset(); });
}

void Session::harvest() {
  if (!console_ || harvested_) return;
  harvested_ = true;
  LayerCounts& layers = runner_.out().layers;
  layers.frames_received += console_->shadow().frames_received();
  layers.chunk_pool_high_water =
      std::max<std::uint64_t>(layers.chunk_pool_high_water,
                              console_->chunk_pool().high_water_in_use());
}

cg::GridConfig grid_config(const WorkloadInput& input) {
  cg::GridConfig config;
  config.sites = input.spec.sites;
  config.nodes_per_site = input.spec.nodes_per_site;
  config.seed = input.grid_seed;
  return config;
}

void Runner::setup() {
  cg::GridConfig config = grid_config(input_);
  const Clock::time_point start = Clock::now();
  {
    SpanRecorder::Scope span{spans_, Call::kGridConstruct};
    grid_ = std::make_unique<cg::Grid>(std::move(config));
  }
  out_.setup_s = seconds_since(start);
  for (std::size_t i = 0; i < grid_->site_count(); ++i) {
    endpoints_.emplace(grid_->site(i).id().value(), grid_->site(i).endpoint());
  }
}

void Runner::schedule_next_arrival() {
  if (next_arrival_ >= input_.jobs.size()) return;
  grid_->sim().schedule_at(
      SimTime::from_seconds(input_.jobs[next_arrival_].arrival_s),
      [this] { arrive(); });
}

void Runner::arrive() {
  const std::size_t index = next_arrival_++;
  const JobInput& job = input_.jobs[index];
  ++out_.attempted;
  if (job.kind != JobKind::kBatch) ++out_.interactive_attempted;

  auto description = [&] {
    SpanRecorder::Scope span{spans_, Call::kJdlParse};
    return cg::jdl::JobDescription::parse(job.jdl);
  }();
  if (!description) {
    throw std::logic_error{"generated JDL does not parse: " +
                           description.error().to_string()};
  }
  cg::broker::JobCallbacks callbacks;
  if (job.kind != JobKind::kBatch) {
    const auto session_id = static_cast<std::uint32_t>(sessions_.size());
    sessions_.push_back(std::make_unique<Session>(*this, session_id, job.console));
    Session* session = sessions_.back().get();
    callbacks.on_running = [session](const cg::broker::JobRecord& record) {
      session->start(record);
    };
  }
  auto submitted = [&] {
    SpanRecorder::Scope span{spans_, Call::kGridSubmit};
    return grid_->submit(std::move(*description), cg::UserId{job.user},
                         cg::lrms::Workload::cpu(Duration::from_seconds(job.runtime_s)),
                         std::move(callbacks));
  }();
  if (submitted) {
    ids_[index] = submitted->id();
  } else {
    ++out_.refused;
    ++out_.failure_codes[submitted.error().cause.code];
    if (job.kind != JobKind::kBatch) ++out_.interactive_failed;
  }
  schedule_next_arrival();
}

void Runner::drive() {
  cg::sim::Simulation& sim = grid_->sim();
  cg::broker::CrossBroker& broker = grid_->broker();
  LayerCounts& layers = out_.layers;
  const SimTime horizon = SimTime::from_seconds(spec_.horizon_s);
  // Arrivals stop at the horizon; the drain that follows is bounded so a
  // job that never terminates shows up as a conservation failure.
  const SimTime drain_limit = horizon + Duration::seconds(6 * 3600);
  const Duration slice = Duration::from_seconds(spec_.slice_s);
  for (SimTime t = SimTime::zero() + slice;; t += slice) {
    const std::size_t before = sim.processed_events();
    {
      SpanRecorder::Scope span{spans_, Call::kRunUntil};
      sim.run_until(t);
      if (spans_ != nullptr) {
        spans_->annotate_slice(
            t.count_micros(), static_cast<std::int64_t>(sim.processed_events() - before),
            static_cast<std::int64_t>(broker.broker_queue_length()));
      }
    }
    layers.pending_peak = std::max<std::uint64_t>(layers.pending_peak, sim.pending_events());
    layers.broker_queue_peak =
        std::max<std::uint64_t>(layers.broker_queue_peak, broker.broker_queue_length());
    std::uint64_t queued = 0;
    for (std::size_t i = 0; i < grid_->site_count(); ++i) {
      queued += static_cast<std::uint64_t>(grid_->site(i).scheduler().queued_jobs());
    }
    layers.lrms_queue_peak = std::max(layers.lrms_queue_peak, queued);
    out_.rss_mb = std::max(out_.rss_mb, resident_mb());
    if (between_slices_) {
      const Clock::time_point hook_start = Clock::now();
      between_slices_();
      between_slices_s_ += seconds_since(hook_start);
    }
    if ((t >= horizon && sim.pending_events() == 0) || t >= drain_limit) break;
  }
}

void Runner::collect() {
  Fnv digest;
  for (std::size_t i = 0; i < input_.jobs.size(); ++i) {
    const JobInput& job = input_.jobs[i];
    digest.add(i);
    if (!ids_[i].valid()) {
      digest.add(~0ULL);
      continue;
    }
    const cg::broker::JobRecord* record = grid_->broker().record(ids_[i]);
    if (record == nullptr) {
      ++out_.non_terminal;
      continue;
    }
    const cg::broker::JobState state = record->state;
    const auto& ts = record->timestamps;
    const auto site = record->site();
    digest.add(ids_[i].value());
    digest.add(static_cast<std::uint64_t>(state));
    digest.add(site ? site->value() : 0);
    digest.add(ts.running ? static_cast<std::uint64_t>(ts.running->count_micros()) : ~0ULL);
    digest.add(ts.completed ? static_cast<std::uint64_t>(ts.completed->count_micros()) : ~0ULL);
    ++out_.placements[cg::broker::to_string(record->placement)];
    if (!cg::broker::is_terminal(state)) {
      ++out_.non_terminal;
    } else if (state == cg::broker::JobState::kCompleted) {
      ++out_.completed;
    } else {
      ++out_.failed;
      ++out_.failure_codes[record->last_error ? record->last_error->code : "unknown"];
      if (job.kind != JobKind::kBatch) ++out_.interactive_failed;
    }
    if (job.kind != JobKind::kBatch && ts.running) {
      out_.interactive_start_s.push_back((*ts.running - ts.submitted).to_seconds());
    }
    if (job.kind == JobKind::kBatch && ts.completed) {
      out_.batch_turnaround_s.push_back((*ts.completed - ts.submitted).to_seconds());
    }
  }
  out_.digest = digest.h;

  for (const auto& session : sessions_) {
    session->harvest();
    out_.sessions.push_back(session->tally());
  }
  cg::sim::Simulation& sim = grid_->sim();
  LayerCounts& layers = out_.layers;
  out_.sim_end_s = sim.now().to_seconds();
  layers.sim_events = sim.processed_events();
  layers.index_queries = grid_->scenario().infosys().index_queries();
  layers.site_queries = grid_->scenario().infosys().site_queries();
  layers.trace_events = grid_->tracer().events().size();
  layers.legacy_trace_entries = grid_->trace_log().events().size();
  if (spans_ != nullptr) {
    layers.snapshot = grid_->metrics_snapshot();
    layers.match_latency_p50_s =
        merged_p50(grid_->metrics(), layers.snapshot, "broker.match_latency_s");
    layers.lrms_dispatch_latency_p50_s =
        merged_p50(grid_->metrics(), layers.snapshot, "lrms.dispatch_latency_s");
    const Clock::time_point start = Clock::now();
    SpanRecorder::Scope span{spans_, Call::kExportJsonl};
    const std::string jsonl = grid_->export_trace_jsonl();
    layers.export_s = seconds_since(start);
  }
}

void Runner::run() {
  setup();
  ids_.assign(input_.jobs.size(), cg::JobId{});
  const Clock::time_point start = Clock::now();
  schedule_next_arrival();
  drive();
  out_.run_s = seconds_since(start) - between_slices_s_;
  collect();
}

}  // namespace

void format_line(std::string& out, std::uint64_t session, std::uint64_t rank,
                 std::uint64_t seq, std::int64_t written_us, const std::uint64_t* echo_of,
                 std::size_t padded_bytes) {
  out.clear();
  const auto field = [&out](char tag, std::uint64_t value) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    out += tag;
    out.append(digits, end);
    out += ' ';
  };
  field('S', session);
  field('R', rank);
  field('N', seq);
  field('T', static_cast<std::uint64_t>(written_us));
  if (echo_of != nullptr) field('E', *echo_of);
  if (out.size() + 1 < padded_bytes) out.append(padded_bytes - 1 - out.size(), '.');
  out += '\n';
}

std::uint64_t ScreenLedger::typed(std::int64_t now_us) {
  typed_at_us_.push_back(now_us);
  echoed_.push_back(0);
  ++tally_.typed;
  return typed_at_us_.size() - 1;
}

void ScreenLedger::on_screen(std::string_view data, std::int64_t now_us,
                             std::vector<double>& line_latency_s,
                             std::vector<double>& echo_latency_s) {
  while (!data.empty()) {
    const std::size_t nl = data.find('\n');
    if (nl == std::string_view::npos) {
      partial_.append(data);
      return;
    }
    if (partial_.empty()) {
      on_line(data.substr(0, nl), now_us, line_latency_s, echo_latency_s);
    } else {
      partial_.append(data.substr(0, nl));
      on_line(partial_, now_us, line_latency_s, echo_latency_s);
      partial_.clear();
    }
    data.remove_prefix(nl + 1);
  }
}

void ScreenLedger::on_line(std::string_view line, std::int64_t now_us,
                           std::vector<double>& line_latency_s,
                           std::vector<double>& echo_latency_s) {
  std::size_t pos = 0;
  std::uint64_t session = 0;
  std::uint64_t rank = 0;
  std::uint64_t seq = 0;
  std::uint64_t written_us = 0;
  if (!read_field(line, pos, 'S', session) || session != session_ ||
      !read_field(line, pos, 'R', rank) || rank >= next_read_.size() ||
      !read_field(line, pos, 'N', seq) || !read_field(line, pos, 'T', written_us)) {
    ++tally_.garbled;
    return;
  }
  if (seq != next_read_[rank]) ++tally_.out_of_order;
  next_read_[rank] = seq + 1;
  ++tally_.lines_seen;
  line_latency_s.push_back(
      static_cast<double>(now_us - static_cast<std::int64_t>(written_us)) / 1e6);
  std::uint64_t k = 0;
  if (read_field(line, pos, 'E', k)) {
    if (k >= echoed_.size() || echoed_[k] != 0) {
      ++tally_.garbled;
      return;
    }
    echoed_[k] = 1;
    ++tally_.echoed;
    echo_latency_s.push_back(static_cast<double>(now_us - typed_at_us_[k]) / 1e6);
  }
}

RunResult run_workload(const WorkloadInput& input, SpanRecorder* spans,
                       const std::function<void()>& between_slices) {
  RunResult result;
  Runner runner{input, spans, between_slices, result};
  runner.run();
  return result;
}

double time_grid_setup(const WorkloadInput& input) {
  cg::GridConfig config = grid_config(input);
  const Clock::time_point start = Clock::now();
  const cg::Grid grid{std::move(config)};
  return seconds_since(start);
}

std::vector<std::string> check(const RunResult& r) {
  std::vector<std::string> violations;
  const auto fail = [&violations](std::string what) {
    violations.push_back(std::move(what));
  };
  if (r.attempted != r.completed + r.failed + r.refused + r.non_terminal) {
    fail("job conservation: attempted " + std::to_string(r.attempted) +
         " != completed " + std::to_string(r.completed) + " + failed " +
         std::to_string(r.failed) + " + refused " + std::to_string(r.refused) +
         " + non-terminal " + std::to_string(r.non_terminal));
  }
  if (r.non_terminal != 0) {
    fail(std::to_string(r.non_terminal) + " jobs left non-terminal after the drain");
  }
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    const SessionTally& s = r.sessions[i];
    const std::string who = "console session " + std::to_string(i) + ": ";
    if (s.lines_seen != s.lines_written) {
      fail(who + std::to_string(s.lines_seen) + " of " +
           std::to_string(s.lines_written) + " lines reached the screen");
    }
    if (s.out_of_order != 0) {
      fail(who + std::to_string(s.out_of_order) + " lines out of order");
    }
    if (s.garbled != 0) fail(who + std::to_string(s.garbled) + " garbled lines");
    if (s.inputs_delivered != s.inputs_expected) {
      fail(who + std::to_string(s.inputs_delivered) + " of " +
           std::to_string(s.inputs_expected) + " input deliveries");
    }
    if (s.echoed != s.typed) {
      fail(who + std::to_string(s.echoed) + " of " + std::to_string(s.typed) +
           " typed lines echoed");
    }
  }
  return violations;
}

}  // namespace grid_e2e
