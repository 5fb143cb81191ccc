#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace grid_e2e {
namespace {

// Independent streams per purpose, so adding a draw to one stream never
// shifts another's values.
constexpr std::uint64_t kBatchArrivals = 1;
constexpr std::uint64_t kInteractiveArrivals = 2;
constexpr std::uint64_t kJobAttributes = 3;
constexpr std::uint64_t kGridSeed = 4;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Runtimes are uniform on [0.75, 1.25] x mean: bounded, so one straggler
/// cannot stretch the drain, and a run's total work and its batch
/// turnaround median barely vary by seed.
double runtime(cg::Rng& rng, double mean_s) {
  return rng.uniform(0.75 * mean_s, 1.25 * mean_s);
}

/// A Poisson process on [0, horizon) conditioned on its expected count:
/// that many arrival times drawn uniformly and sorted. Every seed then
/// offers the same number of jobs, so totals do not vary between seeds.
std::vector<double> poisson_arrivals(double gap_s, double horizon_s,
                                     std::uint64_t seed) {
  std::vector<double> out;
  if (gap_s <= 0.0) return out;
  cg::Rng rng{seed};
  const auto count = static_cast<std::size_t>(std::lround(horizon_s / gap_s));
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.uniform(0.0, horizon_s));
  std::sort(out.begin(), out.end());
  return out;
}

std::string batch_jdl(std::size_t index) {
  return "Executable = \"reco_" + std::to_string(index) +
         "\";\n"
         "JobType = \"batch\";\n"
         "Requirements = other.Arch == \"i686\" && other.MemoryMB >= 256;\n"
         "Rank = other.FreeCPUs - other.QueuedJobs;\n";
}

std::string interactive_jdl(std::size_t index, int ranks, bool reliable,
                            bool shared) {
  std::string jdl = "Executable = \"viz_" + std::to_string(index) + "\";\n";
  if (ranks > 1) {
    jdl += "JobType = {\"interactive\", \"mpich-g2\"};\nNodeNumber = " +
           std::to_string(ranks) + ";\n";
  } else {
    jdl += "JobType = \"interactive\";\n";
  }
  jdl += shared ? "MachineAccess = \"shared\";\nPerformanceLoss = 10;\n"
                : "MachineAccess = \"exclusive\";\n";
  jdl += reliable ? "StreamingMode = \"reliable\";\n"
                  : "StreamingMode = \"fast\";\n";
  jdl += "Requirements = other.FreeCPUs >= 1 || other.FreeInteractiveVMs >= 1;\n";
  return jdl;
}

/// A tenth of the sites (at least four) with arrival rates scaled to match,
/// so each node sees the same load, over at most ten simulated minutes.
WorkloadSpec tiny(WorkloadSpec spec) {
  const int sites = std::max(4, spec.sites / 10);
  const double factor = static_cast<double>(spec.sites) / sites;
  spec.sites = sites;
  spec.batch_gap_s *= factor;
  spec.interactive_gap_s *= factor;
  spec.horizon_s = std::min(spec.horizon_s, 600.0);
  return spec;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"batch_backlog", "wide_grid",
                                              "console_watchers"};
  return names;
}

WorkloadSpec workload_spec(std::string_view name, Scale scale) {
  WorkloadSpec spec;
  spec.name = std::string{name};
  if (name == "batch_backlog") {
    // Interactive work under full batch occupancy: batch is offered at
    // 1.5x the grid's capacity, so the broker queue grows all run long and
    // every shared interactive job lands on a glide-in VM.
    spec.sites = 100;
    spec.nodes_per_site = 4;
    spec.horizon_s = 3600.0;
    spec.batch_runtime_s = 1800.0;
    spec.batch_gap_s =
        spec.batch_runtime_s / (1.5 * spec.sites * spec.nodes_per_site);
    spec.interactive_gap_s = 15.0;
    spec.interactive_runtime_s = 120.0;
    spec.burst_gap_s = 5.0;
    spec.burst_lines_max = 4;
    spec.type_gap_s = 10.0;
  } else if (name == "wide_grid") {
    // Thousands of sites under light load: periodic site republication and
    // wide matchmaking scans dominate; queues stay empty.
    spec.sites = 1000;
    spec.nodes_per_site = 2;
    spec.shared_interactive = false;
    spec.horizon_s = 1200.0;
    spec.batch_gap_s = 10.0;
    spec.batch_runtime_s = 90.0;
    spec.interactive_gap_s = 5.0;
    spec.interactive_runtime_s = 90.0;
    spec.burst_gap_s = 5.0;
    spec.burst_lines_max = 4;
    spec.type_gap_s = 10.0;
  } else if (name == "console_watchers") {
    // Portal users watching and steering their jobs: many small output
    // lines, input fanned out to every MPICH-G2 subjob, fast and reliable
    // streaming side by side.
    spec.sites = 20;
    spec.nodes_per_site = 4;
    spec.horizon_s = 3600.0;
    spec.batch_gap_s = 20.0;
    spec.batch_runtime_s = 600.0;
    spec.interactive_gap_s = 4.0;
    spec.interactive_runtime_s = 120.0;
    spec.mpi_every = 8;
    spec.burst_gap_s = 0.5;
    spec.burst_lines_max = 8;
    spec.type_gap_s = 3.0;
  } else {
    throw std::invalid_argument{"unknown workload: " + std::string{name}};
  }
  return scale == Scale::kTiny ? tiny(spec) : spec;
}

WorkloadInput generate(const WorkloadSpec& spec, std::uint64_t seed) {
  WorkloadInput input;
  input.spec = spec;
  input.grid_seed = mix(seed, kGridSeed);

  const std::vector<double> batch = poisson_arrivals(
      spec.batch_gap_s, spec.horizon_s, mix(seed, kBatchArrivals));
  const std::vector<double> interactive = poisson_arrivals(
      spec.interactive_gap_s, spec.horizon_s, mix(seed, kInteractiveArrivals));

  // Merge the two streams by arrival time (batch first on a tie).
  input.jobs.reserve(batch.size() + interactive.size());
  const auto arrival = [&input](double t, JobKind kind) {
    JobInput job;
    job.arrival_s = t;
    job.kind = kind;
    input.jobs.push_back(std::move(job));
  };
  for (double t : batch) arrival(t, JobKind::kBatch);
  for (double t : interactive) arrival(t, JobKind::kInteractive);
  std::stable_sort(input.jobs.begin(), input.jobs.end(),
                   [](const JobInput& a, const JobInput& b) {
                     return a.arrival_s < b.arrival_s;
                   });

  cg::Rng rng{mix(seed, kJobAttributes)};
  std::size_t interactive_index = 0;
  for (std::size_t i = 0; i < input.jobs.size(); ++i) {
    JobInput& job = input.jobs[i];
    job.user = static_cast<std::uint64_t>(rng.uniform_int(1, spec.users));
    if (job.kind == JobKind::kBatch) {
      job.runtime_s = runtime(rng, spec.batch_runtime_s);
      job.jdl = batch_jdl(i);
      continue;
    }
    job.runtime_s = runtime(rng, spec.interactive_runtime_s);
    // Fixed shares, so the mix does not vary between seeds: every
    // mpi_every-th interactive job is MPICH-G2, and every fourth session
    // streams in reliable mode, the rest in fast mode (the paper's default).
    // An even fast/reliable split would put the line-latency median on the
    // boundary between the two modes, where it flips between seeds.
    const std::size_t n = interactive_index++;
    if (spec.mpi_every > 0 && n % static_cast<std::size_t>(spec.mpi_every) ==
                                  static_cast<std::size_t>(spec.mpi_every) - 1) {
      job.kind = JobKind::kInteractiveMpi;
      job.ranks = static_cast<int>(
          rng.uniform_int(spec.mpi_min_ranks, spec.mpi_max_ranks));
    }
    const bool reliable = n % 4 == 3;
    job.jdl = interactive_jdl(i, job.ranks, reliable, spec.shared_interactive);
    // The session ends before the job can: runtimes only ever dilate.
    job.console.seed = rng.next_u64();
    job.console.duration_s = 0.8 * job.runtime_s;
  }
  return input;
}

}  // namespace grid_e2e
