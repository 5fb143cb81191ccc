// The benchmark's own tests: determinism per seed, the generator's rates
// and mix, the correctness checks, span bookkeeping, the reference kernel's
// isolation from the process heap, and a tiny run of every workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numeric>
#include <thread>

#include "grid_run.hpp"
#include "reference_kernel.hpp"
#include "report.hpp"
#include "span_recorder.hpp"
#include "util/log.hpp"
#include "workload.hpp"

// Counts every allocation from the process heap, so a test can show that a
// piece of code makes none.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace grid_e2e {
namespace {

// Failures are asserted on through the checks; keep per-job warnings out of
// the test log.
const bool kQuietLog = [] {
  cg::Logger::instance().set_level(cg::LogLevel::kError);
  return true;
}();

RunResult tiny_run(const std::string& workload, std::uint64_t seed,
                   SpanRecorder* spans = nullptr) {
  return run_workload(generate(workload_spec(workload, Scale::kTiny), seed), spans);
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

TEST_P(PerWorkload, TinyRunPassesItsChecks) {
  const RunResult r = tiny_run(GetParam(), 1);
  EXPECT_TRUE(check(r).empty()) << check(r).front();
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.non_terminal, 0u);
  EXPECT_FALSE(r.interactive_start_s.empty());
  EXPECT_FALSE(r.batch_turnaround_s.empty());
  EXPECT_FALSE(r.line_latency_s.empty());
  EXPECT_FALSE(r.echo_latency_s.empty());
}

TEST_P(PerWorkload, SameSeedGivesIdenticalModelledMetricsAndDigest) {
  const RunResult a = tiny_run(GetParam(), 7);
  // The traced path must not change behaviour either.
  SpanRecorder spans;
  const RunResult b = tiny_run(GetParam(), 7, &spans);
  EXPECT_EQ(a.digest, b.digest);
  const std::vector<Metric> ma = modelled_metrics(a);
  const std::vector<Metric> mb = modelled_metrics(b);
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i) {
    EXPECT_EQ(ma[i].name, mb[i].name);
    EXPECT_EQ(ma[i].value, mb[i].value) << ma[i].name;
  }
  EXPECT_EQ(a.layers.sim_events, b.layers.sim_events);
}

TEST_P(PerWorkload, DifferentSeedGivesDifferentDigest) {
  EXPECT_NE(tiny_run(GetParam(), 1).digest, tiny_run(GetParam(), 2).digest);
}

TEST_P(PerWorkload, GeneratorMatchesSpecRatesAndMix) {
  const WorkloadSpec spec = workload_spec(GetParam(), Scale::kFull);
  const WorkloadInput in = generate(spec, 42);
  std::vector<double> batch_times;
  std::vector<double> interactive_times;
  std::size_t mpi = 0;
  std::size_t reliable = 0;
  for (const JobInput& job : in.jobs) {
    ASSERT_GE(job.arrival_s, 0.0);
    ASSERT_LT(job.arrival_s, spec.horizon_s);
    const double mean = job.kind == JobKind::kBatch ? spec.batch_runtime_s
                                                    : spec.interactive_runtime_s;
    EXPECT_GE(job.runtime_s, 0.75 * mean);
    EXPECT_LE(job.runtime_s, 1.25 * mean);
    EXPECT_GE(job.user, 1u);
    EXPECT_LE(job.user, static_cast<std::uint64_t>(spec.users));
    if (job.kind == JobKind::kBatch) {
      batch_times.push_back(job.arrival_s);
      continue;
    }
    interactive_times.push_back(job.arrival_s);
    EXPECT_NEAR(job.console.duration_s, 0.8 * job.runtime_s, 1e-9);
    if (job.kind == JobKind::kInteractiveMpi) {
      ++mpi;
      EXPECT_GE(job.ranks, spec.mpi_min_ranks);
      EXPECT_LE(job.ranks, spec.mpi_max_ranks);
      EXPECT_NE(job.jdl.find("mpich-g2"), std::string::npos);
    } else {
      EXPECT_EQ(job.ranks, 1);
    }
    if (job.jdl.find("\"reliable\"") != std::string::npos) ++reliable;
  }
  EXPECT_TRUE(std::is_sorted(in.jobs.begin(), in.jobs.end(),
                             [](const JobInput& a, const JobInput& b) {
                               return a.arrival_s < b.arrival_s;
                             }));
  // Enough interactive jobs for at least ten samples past p95.
  EXPECT_GE(interactive_times.size(), 200u);

  // Arrival rates: the offered count matches horizon / gap, and the gaps
  // look exponential (mean ~ gap, coefficient of variation ~ 1).
  const auto check_stream = [&spec](std::vector<double> times, double gap) {
    if (gap <= 0.0) {
      EXPECT_TRUE(times.empty());
      return;
    }
    EXPECT_NEAR(static_cast<double>(times.size()), spec.horizon_s / gap, 1.0);
    std::vector<double> gaps;
    for (std::size_t i = 1; i < times.size(); ++i) gaps.push_back(times[i] - times[i - 1]);
    const double mean = std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                        static_cast<double>(gaps.size());
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= static_cast<double>(gaps.size());
    EXPECT_NEAR(mean / gap, 1.0, 0.05);
    EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.2);
  };
  check_stream(batch_times, spec.batch_gap_s);
  check_stream(interactive_times, spec.interactive_gap_s);

  const double n = static_cast<double>(interactive_times.size());
  EXPECT_NEAR(static_cast<double>(reliable) / n, 0.25, 0.01);
  if (spec.mpi_every > 0) {
    EXPECT_NEAR(static_cast<double>(mpi) / n, 1.0 / spec.mpi_every, 0.01);
  } else {
    EXPECT_EQ(mpi, 0u);
  }
}

TEST_P(PerWorkload, GeneratorIsAFunctionOfTheSeed) {
  const WorkloadSpec spec = workload_spec(GetParam(), Scale::kFull);
  const WorkloadInput a = generate(spec, 3);
  const WorkloadInput b = generate(spec, 3);
  const WorkloadInput c = generate(spec, 4);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].arrival_s, b.jobs[i].arrival_s);
    EXPECT_EQ(a.jobs[i].jdl, b.jobs[i].jdl);
    EXPECT_EQ(a.jobs[i].runtime_s, b.jobs[i].runtime_s);
    EXPECT_EQ(a.jobs[i].console.seed, b.jobs[i].console.seed);
  }
  EXPECT_EQ(a.grid_seed, b.grid_seed);
  EXPECT_NE(a.grid_seed, c.grid_seed);
  EXPECT_NE(a.jobs.front().arrival_s, c.jobs.front().arrival_s);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::ValuesIn(workload_names()));

TEST(Checks, RejectIncompleteResults) {
  const RunResult good = tiny_run("console_watchers", 1);
  ASSERT_TRUE(check(good).empty());
  ASSERT_FALSE(good.sessions.empty());
  std::size_t busy = 0;  // a session that carried lines and typed input
  while (busy < good.sessions.size() &&
         (good.sessions[busy].lines_written < 2 || good.sessions[busy].typed == 0)) {
    ++busy;
  }
  ASSERT_LT(busy, good.sessions.size());

  RunResult lost_job = good;
  ++lost_job.attempted;  // a job that never reached any terminal bucket
  EXPECT_FALSE(check(lost_job).empty());

  RunResult stuck = good;
  --stuck.completed;
  ++stuck.non_terminal;  // conserved, but left running after the drain
  EXPECT_FALSE(check(stuck).empty());

  RunResult lost_line = good;
  --lost_line.sessions[busy].lines_seen;
  EXPECT_FALSE(check(lost_line).empty());

  RunResult duplicated = good;
  ++duplicated.sessions[busy].lines_seen;
  EXPECT_FALSE(check(duplicated).empty());

  RunResult reordered = good;
  reordered.sessions[busy].out_of_order = 1;
  EXPECT_FALSE(check(reordered).empty());

  RunResult unechoed = good;
  --unechoed.sessions[busy].echoed;
  EXPECT_FALSE(check(unechoed).empty());

  RunResult undelivered = good;
  --undelivered.sessions[busy].inputs_delivered;
  EXPECT_FALSE(check(undelivered).empty());
}

TEST(ScreenLedger, AcceptsWholeLinesInAnyChunking) {
  ScreenLedger ledger{5, 2};
  std::vector<double> lines;
  std::vector<double> echoes;
  const std::uint64_t k = ledger.typed(1'000);
  std::string screen;
  std::string line;
  format_line(line, 5, 0, 0, 2'000, nullptr, 48);
  screen += line;
  format_line(line, 5, 1, 0, 2'500, nullptr, 48);
  screen += line;
  format_line(line, 5, 0, 1, 3'000, &k, 48);
  screen += line;
  EXPECT_EQ(line.size(), 48u);
  // Split mid-line: the ledger must reassemble.
  ledger.on_screen(std::string_view{screen}.substr(0, 70), 4'000, lines, echoes);
  ledger.on_screen(std::string_view{screen}.substr(70), 5'000, lines, echoes);
  const SessionTally& t = ledger.tally();
  EXPECT_EQ(t.lines_seen, 3u);
  EXPECT_EQ(t.out_of_order, 0u);
  EXPECT_EQ(t.garbled, 0u);
  EXPECT_EQ(t.echoed, 1u);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_DOUBLE_EQ(lines[0], 0.002);  // written at 2 ms, seen at 4 ms
  EXPECT_DOUBLE_EQ(lines[1], 0.0025); // completed by the second chunk
  ASSERT_EQ(echoes.size(), 1u);
  EXPECT_DOUBLE_EQ(echoes[0], 0.004);  // typed at 1 ms, echoed on screen at 5 ms
}

TEST(ScreenLedger, FlagsSkippedRepeatedForeignAndDoubleEchoedLines) {
  ScreenLedger ledger{5, 1};
  std::vector<double> lines;
  std::vector<double> echoes;
  const std::uint64_t k = ledger.typed(0);
  std::string line;
  const auto show = [&](std::uint64_t session, std::uint64_t seq, const std::uint64_t* echo) {
    format_line(line, session, 0, seq, 0, echo, 48);
    ledger.on_screen(line, 10, lines, echoes);
  };
  show(5, 0, nullptr);
  show(5, 2, nullptr);  // skipped 1
  EXPECT_EQ(ledger.tally().out_of_order, 1u);
  show(5, 2, nullptr);  // repeated
  EXPECT_EQ(ledger.tally().out_of_order, 2u);
  show(6, 3, nullptr);  // another session's line
  EXPECT_EQ(ledger.tally().garbled, 1u);
  show(5, 3, &k);
  show(5, 4, &k);  // echoed twice
  EXPECT_EQ(ledger.tally().echoed, 1u);
  EXPECT_EQ(ledger.tally().garbled, 2u);
  ledger.on_screen("not a console line\n", 10, lines, echoes);
  EXPECT_EQ(ledger.tally().garbled, 3u);
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanRecorder spans;
  {
    SpanRecorder::Scope outer{&spans, Call::kRunUntil};
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    SpanRecorder::Scope inner{&spans, Call::kGridSubmit};
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto& outer = spans.stats(Call::kRunUntil);
  const auto& inner = spans.stats(Call::kGridSubmit);
  ASSERT_EQ(outer.count, 1u);
  ASSERT_EQ(inner.count, 1u);
  EXPECT_EQ(outer.self_ns, outer.total_ns - inner.total_ns);
  EXPECT_GE(inner.total_ns, 5'000'000);
  ASSERT_EQ(spans.spans().size(), 2u);
  EXPECT_EQ(spans.spans()[1].parent, spans.spans()[0].id);
  EXPECT_NE(spans.chrome_trace().find("\"Grid::submit\""), std::string::npos);
}

TEST(Spans, AggregatesStayExactPastTheStorageCap) {
  SpanRecorder spans{2};
  for (int i = 0; i < 5; ++i) SpanRecorder::Scope s{&spans, Call::kJdlParse};
  EXPECT_EQ(spans.spans().size(), 2u);
  EXPECT_EQ(spans.dropped_spans(), 3u);
  EXPECT_EQ(spans.stats(Call::kJdlParse).count, 5u);
}

TEST(SpeedGauge, ScalesHostTimeToTheReferenceKernel) {
  SpeedGauge gauge;
  EXPECT_EQ(gauge.scale(), 1.0);  // nothing measured: no scaling
  gauge.probe();
  gauge.probe();
  EXPECT_EQ(gauge.samples, 2);
  EXPECT_GT(gauge.kernel_s, 0.0);
  EXPECT_DOUBLE_EQ(gauge.scale(), kReferenceKernelS * 2 / gauge.kernel_s);
  // A host twice as slow as the reference halves every host time.
  const SpeedGauge slow{4 * kReferenceKernelS, 2};
  EXPECT_DOUBLE_EQ(slow.scale(), 0.5);
}

TEST(SpeedGauge, KernelLeavesTheProcessHeapAlone) {
  // The kernel's time must not depend on how the program left the heap, so
  // it may not allocate from it. Its arena overflowing would throw here.
  const std::size_t before = g_heap_allocations.load();
  const double kernel_s = reference_kernel_s();
  EXPECT_EQ(g_heap_allocations.load(), before);
  EXPECT_GT(kernel_s, 0.0);
}

TEST(Report, PercentileIsNearestRank) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 50), 3);
  EXPECT_EQ(percentile(v, 100), 5);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile({}, 50), 0);
}

}  // namespace
}  // namespace grid_e2e
