// A fixed reference workload that gauges the host's current speed. On a
// shared host, co-tenant load slows identical runs by up to 2x, in bursts
// and for minutes at a time. The benchmark times this kernel between the
// simulated slices of every run, so each run's host time can be expressed
// at a reference speed measured over the same stretch of time. The kernel
// shares no state with the program: it depends on nothing in src/, takes
// all its memory from a static arena of its own instead of the process
// heap, and warms that arena before the timed pass. So the program's heap
// fragmentation and working set do not enter its time.
#pragma once

namespace grid_e2e {

/// Duration of reference_kernel_s() on an idle reference host: the 4-core
/// x86-64 host this benchmark was tuned on.
inline constexpr double kReferenceKernelS = 0.0012;

/// Runs the reference kernel (ordered-map churn and a string sort: pointer
/// chasing and small allocations, like the simulator) twice and returns the
/// host seconds of the second, warm pass. It makes no allocation from the
/// process heap.
[[nodiscard]] double reference_kernel_s();

/// Accumulates reference-kernel timings taken across one run.
struct SpeedGauge {
  double kernel_s = 0.0;
  int samples = 0;

  /// Times one kernel and adds it.
  void probe();
  /// Factor that converts this run's host seconds to reference-speed
  /// seconds (below 1 when the host ran slower than the reference).
  [[nodiscard]] double scale() const;
};

}  // namespace grid_e2e
