// Turns run results into named metrics with units, and renders them as a
// human-readable table and as the benchmark's one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "grid_run.hpp"
#include "span_recorder.hpp"

namespace grid_e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile (p in (0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// The modelled end-to-end metrics (simulated seconds and failure shares).
/// A metric whose sample is empty is absent from the list.
[[nodiscard]] std::vector<Metric> modelled_metrics(const RunResult& result);

/// Per-layer metrics of a traced run. `untraced_run_s` is the median host
/// time of the untraced runs of the same input, so host cost per event is
/// free of tracing overhead.
[[nodiscard]] std::vector<Metric> layer_metrics(const RunResult& traced,
                                                const SpanRecorder& spans,
                                                double untraced_run_s);

/// Fixed-width "name value unit" lines.
[[nodiscard]] std::string render_table(const std::vector<Metric>& metrics);

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace grid_e2e
