// Seeded input generator for the grid_e2e benchmark. Everything the
// simulated grid receives is produced here from one seed: arrival times
// (open-loop Poisson processes in simulated time), JDL texts, runtimes,
// users, console scripts, and the grid's own RNG seed. The same seed always
// gives byte-identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace grid_e2e {

enum class JobKind { kBatch, kInteractive, kInteractiveMpi };

/// Input size: `full` is what the benchmark measures; `tiny` keeps every
/// mechanism of the workload but finishes in well under a second (tests).
enum class Scale { kFull, kTiny };

/// The shape of one workload. Rates are means of exponential gaps; a zero
/// gap disables that arrival stream.
struct WorkloadSpec {
  std::string name;
  int sites = 0;
  int nodes_per_site = 0;
  double horizon_s = 0.0;  ///< arrivals stop here; the run then drains
  double batch_gap_s = 0.0;
  double batch_runtime_s = 0.0;
  double interactive_gap_s = 0.0;
  double interactive_runtime_s = 0.0;
  /// Shared interactive jobs may land on glide-in VMs beside batch work;
  /// exclusive ones need an idle machine found by matchmaking.
  bool shared_interactive = true;
  int mpi_every = 0;  ///< every n-th interactive job is MPICH-G2 (0 = none)
  int mpi_min_ranks = 2;
  int mpi_max_ranks = 4;
  int users = 8;
  // Console sessions (one per interactive job).
  double burst_gap_s = 0.0;   ///< mean gap between stdout bursts
  int burst_lines_max = 1;    ///< lines per rank per burst, uniform 1..max
  double type_gap_s = 0.0;    ///< mean gap between typed input lines
  int line_bytes = 48;        ///< padded length of every output line
  double slice_s = 60.0;      ///< simulated length of one run_until slice
};

/// The scripted console of one interactive job. The session draws its gaps
/// from `seed` as each event fires, so nothing is pre-scheduled.
struct ConsoleScript {
  std::uint64_t seed = 0;
  double duration_s = 0.0;  ///< session length after the job starts running
};

struct JobInput {
  double arrival_s = 0.0;
  JobKind kind = JobKind::kBatch;
  std::string jdl;
  double runtime_s = 0.0;
  std::uint64_t user = 0;
  int ranks = 1;
  ConsoleScript console;  ///< interactive jobs only
};

struct WorkloadInput {
  WorkloadSpec spec;
  std::uint64_t grid_seed = 0;  ///< GridConfig::seed, derived from the seed
  std::vector<JobInput> jobs;   ///< ordered by arrival
};

/// Names of the benchmark's workloads, in catalogue order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The spec of a named workload; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] WorkloadSpec workload_spec(std::string_view name, Scale scale);

/// Generates the inputs of one run.
[[nodiscard]] WorkloadInput generate(const WorkloadSpec& spec,
                                     std::uint64_t seed);

}  // namespace grid_e2e
