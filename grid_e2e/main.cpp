// grid_e2e: end-to-end benchmark of a whole cg::Grid run.
//
//   grid_e2e --workload <batch_backlog|wide_grid|console_watchers>
//            --seed <n> [--seconds <s>] [--trace <0|1>] [--scale <full|tiny>]
//            [--trace-out <file>]
//
// The seed generates the workload's inputs; the same input is then run
// repeatedly on fresh grids for --seconds of host time. Host metrics
// (set-up, jobs per wall-second, peak memory) are medians over those runs;
// modelled metrics (simulated seconds) are deterministic per seed, and
// every repeat must reproduce them and the decision digest exactly.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced runs and prints the per-layer metrics, span self times, the
// tracing overhead, and writes the spans as a Chrome trace. The last line
// of stdout is always the JSON result. Any correctness violation exits 1.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "grid_run.hpp"
#include "reference_kernel.hpp"
#include "report.hpp"
#include "span_recorder.hpp"
#include "util/log.hpp"
#include "workload.hpp"

namespace {

using namespace grid_e2e;
using Clock = std::chrono::steady_clock;

constexpr int kMinRuns = 3;
constexpr std::size_t kMinSetupSamples = 31;

// The end-to-end metrics of the JSON result. The failure shares are left
// out there because they are zero on these fault-free workloads; they are
// printed in the table and carried by the result's "failed" count.
const std::vector<std::string> kResultMetrics{
    "setup_s",
    "jobs_per_wall_s",
    "peak_rss_mb",
    "interactive_start_p50_s",
    "interactive_start_p95_s",
    "batch_turnaround_p50_s",
    "console_line_p50_s",
    "console_line_p99_s",
    "console_echo_p50_s",
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "grid_e2e: " << problem
            << "\nusage: grid_e2e --workload <name> --seed <n> [--seconds <s>] "
               "[--trace 0|1] [--scale full|tiny] [--trace-out <file>]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--scale") {
        if (value != "full" && value != "tiny") usage("--scale takes full or tiny");
        o.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.trace_out.empty()) {
    o.trace_out = ".bench_build/grid_e2e_traces/" + o.workload + "-" +
                  std::to_string(o.seed) + ".json";
  }
  return o;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What a run must reproduce on every repeat of its input.
struct Fingerprint {
  std::uint64_t digest = 0;
  std::uint64_t sim_events = 0;
  std::vector<Metric> modelled;

  explicit Fingerprint(const RunResult& r)
      : digest{r.digest}, sim_events{r.layers.sim_events}, modelled{modelled_metrics(r)} {}

  [[nodiscard]] bool operator==(const Fingerprint& o) const {
    if (digest != o.digest || sim_events != o.sim_events ||
        modelled.size() != o.modelled.size()) {
      return false;
    }
    for (std::size_t i = 0; i < modelled.size(); ++i) {
      if (modelled[i].value != o.modelled[i].value) return false;
    }
    return true;
  }
};

/// Repeats of one input must agree exactly on everything modelled.
void check_repeat(const Fingerprint& first, const RunResult& again, int index,
                  std::vector<std::string>& violations) {
  if (!(Fingerprint{again} == first)) {
    violations.push_back("run " + std::to_string(index) +
                         " of the same input disagrees with run 0 "
                         "(digest or modelled metrics)");
  }
}

std::string hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(v));
  return buffer;
}

void print_header(const Options& o, const WorkloadInput& input) {
  std::size_t batch = 0;
  std::size_t mpi = 0;
  for (const JobInput& job : input.jobs) {
    batch += job.kind == JobKind::kBatch ? 1 : 0;
    mpi += job.kind == JobKind::kInteractiveMpi ? 1 : 0;
  }
  const WorkloadSpec& s = input.spec;
  std::cout << "grid_e2e workload=" << s.name << " seed=" << o.seed
            << " scale=" << (o.scale == Scale::kTiny ? "tiny" : "full")
            << " trace=" << (o.trace ? 1 : 0) << "\n"
            << "  testbed " << s.sites << " sites x " << s.nodes_per_site
            << " nodes; arrivals for " << s.horizon_s << " sim s; " << input.jobs.size()
            << " jobs (" << batch << " batch, " << input.jobs.size() - batch
            << " interactive, " << mpi << " of them MPICH-G2)\n"
            << "  not measured: interpose (real OS sockets), gsi (off by default)\n";
}

void print_violations(const std::vector<std::string>& violations) {
  if (violations.empty()) {
    std::cout << "correctness: ok\n";
    return;
  }
  std::cout << "correctness: " << violations.size() << " violations\n";
  for (const std::string& v : violations) std::cout << "  FAIL " << v << "\n";
}

std::uint64_t failed_operations(const RunResult& r, std::size_t violations) {
  return r.failed + r.refused + r.non_terminal + violations;
}

/// Describes the first run of the input (every repeat is identical).
void describe_run(const RunResult& r) {
  std::cout << "  per run: " << r.layers.sim_events << " sim events, sim end "
            << r.sim_end_s << " s\n"
            << "  jobs: attempted " << r.attempted << ", completed " << r.completed
            << ", failed " << r.failed << ", refused " << r.refused
            << ", non-terminal " << r.non_terminal << "\n  placements:";
  for (const auto& [kind, n] : r.placements) std::cout << " " << kind << " " << n;
  std::cout << "\n";
  for (const auto& [code, n] : r.failure_codes) {
    std::cout << "  failed or refused: " << n << " x " << code << "\n";
  }
  std::cout << "  samples: interactive starts " << r.interactive_start_s.size()
            << ", batch turnarounds " << r.batch_turnaround_s.size()
            << ", console lines " << r.line_latency_s.size() << ", echoes "
            << r.echo_latency_s.size() << "\n"
            << "  decision digest " << hex(r.digest) << "\n";
}

/// Checks, fingerprints and describes the first run.
Fingerprint take_first(const RunResult& r, std::vector<std::string>& violations) {
  violations = check(r);
  describe_run(r);
  return Fingerprint{r};
}

/// One run with the reference kernel timed between its slices.
struct GaugedRun {
  RunResult result;
  double scale = 1.0;  ///< host seconds -> reference-speed seconds
};

GaugedRun run_gauged(const WorkloadInput& input, SpanRecorder* spans = nullptr) {
  SpeedGauge gauge;
  const std::function<void()> probe = [&gauge] { gauge.probe(); };
  RunResult result = run_workload(input, spans, probe);
  return {std::move(result), gauge.scale()};
}

double jobs_per_s(const RunResult& r, double scale) {
  return static_cast<double>(r.completed + r.failed) / (r.run_s * scale);
}

int run_untraced(const Options& o, const WorkloadInput& input) {
  const Clock::time_point start = Clock::now();
  std::vector<double> setups;
  std::vector<double> throughput;
  std::vector<double> raw_setups;
  std::vector<double> raw_throughput;
  std::vector<double> scales;
  std::vector<std::string> violations;
  RunResult first;
  std::optional<Fingerprint> fingerprint;
  int runs = 0;
  while (runs < kMinRuns || seconds_since(start) < o.seconds) {
    GaugedRun run = run_gauged(input);
    RunResult& r = run.result;
    setups.push_back(r.setup_s * run.scale);
    throughput.push_back(jobs_per_s(r, run.scale));
    raw_setups.push_back(r.setup_s);
    raw_throughput.push_back(jobs_per_s(r, 1.0));
    scales.push_back(run.scale);
    if (runs == 0) {
      fingerprint.emplace(take_first(r, violations));
      first = std::move(r);
    } else {
      check_repeat(*fingerprint, r, runs, violations);
    }
    ++runs;
  }
  // Set-up is short next to a run: top its sample up with stand-alone
  // constructions, each gauged by a kernel timed just before it.
  while (setups.size() < kMinSetupSamples) {
    SpeedGauge gauge;
    gauge.probe();
    const double setup = time_grid_setup(input);
    setups.push_back(setup * gauge.scale());
    raw_setups.push_back(setup);
  }

  std::vector<Metric> metrics{
      {"setup_s", median(setups), "s"},
      {"jobs_per_wall_s", median(throughput), "jobs/s"},
      // Only the first run starts from a fresh process heap, as a user's
      // single run does; later runs inherit the allocator's retained pages.
      {"peak_rss_mb", first.rss_mb, "MB"},
  };
  for (const Metric& m : fingerprint->modelled) metrics.push_back(m);
  const std::vector<Metric> raw{
      {"setup_s", median(raw_setups), "s"},
      {"jobs_per_wall_s", median(raw_throughput), "jobs/s"},
      {"host_speed_scale", median(scales), "ratio"},
  };

  std::cout << "  " << runs << " runs of the same input, " << setups.size()
            << " set-up samples\n"
            << "end-to-end metrics (absent when the workload has no sample):\n"
            << render_table(metrics)
            << "host times before scaling to the reference speed:\n"
            << render_table(raw);
  print_violations(violations);

  std::vector<Metric> result;
  for (const std::string& name : kResultMetrics) {
    for (const Metric& m : metrics) {
      if (m.name == name) result.push_back(m);
    }
  }
  std::cout << result_json(violations.empty(), first.attempted,
                           failed_operations(first, violations.size()), result)
            << std::endl;
  return violations.empty() ? 0 : 1;
}

void print_spans(const SpanRecorder& spans) {
  std::cout << "spans (host time around the benchmark's calls into each layer):\n";
  for (std::size_t i = 0; i < kCallCount; ++i) {
    const auto call = static_cast<Call>(i);
    const SpanRecorder::Stats& s = spans.stats(call);
    char line[200];
    std::snprintf(line, sizeof(line), "  %-28s %10llu calls %10.4f s total %10.4f s self\n",
                  call_name(call), static_cast<unsigned long long>(s.count),
                  static_cast<double>(s.total_ns) / 1e9,
                  static_cast<double>(s.self_ns) / 1e9);
    std::cout << line;
  }
  // Host time against backlog: up to a dozen evenly spaced slices.
  std::vector<const SpanRecorder::Span*> slices;
  for (const SpanRecorder::Span& span : spans.spans()) {
    if (span.events >= 0) slices.push_back(&span);
  }
  if (slices.empty()) return;
  std::cout << "slices (sim end s, events, broker queue depth, host ms):\n";
  const std::size_t step = std::max<std::size_t>(1, slices.size() / 12);
  for (std::size_t i = 0; i < slices.size(); i += step) {
    const SpanRecorder::Span& s = *slices[i];
    char line[160];
    std::snprintf(line, sizeof(line), "  %8lld %10lld %8lld %10.3f\n",
                  static_cast<long long>(s.sim_end_us / 1'000'000),
                  static_cast<long long>(s.events), static_cast<long long>(s.queue_depth),
                  static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    std::cout << line;
  }
}

int run_traced(const Options& o, const WorkloadInput& input) {
  const Clock::time_point start = Clock::now();
  std::vector<double> untraced_tput;
  std::vector<double> untraced_run_s;
  std::vector<double> traced_tput;
  std::vector<std::string> violations;
  RunResult first;
  std::optional<Fingerprint> fingerprint;
  RunResult traced;
  std::unique_ptr<SpanRecorder> spans;
  int runs = 0;
  while (runs < 2 || seconds_since(start) < o.seconds) {
    const bool with_spans = runs % 2 == 1;
    std::unique_ptr<SpanRecorder> recorder =
        with_spans ? std::make_unique<SpanRecorder>() : nullptr;
    GaugedRun run = run_gauged(input, recorder.get());
    RunResult& r = run.result;
    if (with_spans) {
      traced_tput.push_back(jobs_per_s(r, run.scale));
    } else {
      untraced_tput.push_back(jobs_per_s(r, run.scale));
      untraced_run_s.push_back(r.run_s);
    }
    if (runs == 0) {
      fingerprint.emplace(take_first(r, violations));
      first = std::move(r);
    } else {
      check_repeat(*fingerprint, r, runs, violations);
      if (with_spans) {
        traced = std::move(r);
        spans = std::move(recorder);
      }
    }
    ++runs;
  }

  const double overhead = 1.0 - median(traced_tput) / median(untraced_tput);
  std::vector<Metric> metrics = layer_metrics(traced, *spans, median(untraced_run_s));
  metrics.push_back({"obs.tracing_overhead_ratio", overhead, "ratio"});

  std::filesystem::path out{o.trace_out};
  if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path());
  std::ofstream{out} << spans->chrome_trace();

  std::cout << "  " << untraced_tput.size() << " untraced and " << traced_tput.size()
            << " traced runs of the same input\n"
            << "  jobs_per_wall_s untraced " << median(untraced_tput) << ", traced "
            << median(traced_tput) << " (tracing overhead " << overhead * 100.0 << "%)\n"
            << "  chrome trace: " << out.string() << " (" << spans->spans().size()
            << " spans stored, " << spans->dropped_spans() << " aggregated only)\n";
  print_spans(*spans);
  std::cout << "per-layer metrics:\n" << render_table(metrics);
  print_violations(violations);
  std::cout << result_json(violations.empty(), first.attempted,
                           failed_operations(first, violations.size()), metrics)
            << std::endl;
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  // Failures are counted and reported by the checks; keep stdout/stderr
  // free of per-job warnings.
  cg::Logger::instance().set_level(cg::LogLevel::kError);
  try {
    const WorkloadInput input =
        generate(workload_spec(options.workload, options.scale), options.seed);
    print_header(options, input);
    return options.trace ? run_traced(options, input) : run_untraced(options, input);
  } catch (const std::exception& e) {
    std::cerr << "grid_e2e: " << e.what() << "\n";
    return 1;
  }
}
