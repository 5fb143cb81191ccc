#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace grid_e2e {
namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Sum of a metric family's values, optionally restricted to one label.
double family_total(const cg::obs::MetricsSnapshot& snapshot, const std::string& name,
                    const std::string& label = {}, const std::string& value = {}) {
  double total = 0.0;
  for (const cg::obs::MetricSample& sample : snapshot.samples) {
    if (sample.name != name) continue;
    if (!label.empty()) {
      const std::string* v = sample.labels.find(label);
      if (v == nullptr || *v != value) continue;
    }
    total += sample.value;
  }
  return total;
}

std::string format_value(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::vector<Metric> modelled_metrics(const RunResult& r) {
  std::vector<Metric> out;
  const auto add_percentile = [&out](const char* name, const std::vector<double>& v,
                                     double p) {
    if (!v.empty()) out.push_back({name, percentile(v, p), "sim_s"});
  };
  add_percentile("interactive_start_p50_s", r.interactive_start_s, 50);
  add_percentile("interactive_start_p95_s", r.interactive_start_s, 95);
  add_percentile("batch_turnaround_p50_s", r.batch_turnaround_s, 50);
  add_percentile("console_line_p50_s", r.line_latency_s, 50);
  add_percentile("console_line_p99_s", r.line_latency_s, 99);
  add_percentile("console_echo_p50_s", r.echo_latency_s, 50);
  if (r.attempted > 0) {
    out.push_back({"job_fail_ratio",
                   ratio(static_cast<double>(r.failed + r.refused),
                         static_cast<double>(r.attempted)),
                   "ratio"});
  }
  if (r.interactive_attempted > 0) {
    out.push_back({"interactive_fail_ratio",
                   ratio(static_cast<double>(r.interactive_failed),
                         static_cast<double>(r.interactive_attempted)),
                   "ratio"});
  }
  return out;
}

std::vector<Metric> layer_metrics(const RunResult& r, const SpanRecorder& spans,
                                  double untraced_run_s) {
  const LayerCounts& l = r.layers;
  const cg::obs::MetricsSnapshot& snap = l.snapshot;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double jobs = count(r.attempted);
  const double sent = family_total(snap, "net.msg.sent");
  const double hits = family_total(snap, "broker.match.cache_hits");
  const double misses = family_total(snap, "broker.match.cache_misses");
  std::uint64_t lines_written = 0;
  for (const SessionTally& s : r.sessions) lines_written += s.lines_written;

  std::vector<Metric> out{
      {"sim.events", count(l.sim_events), "count"},
      {"sim.host_ns_per_event", ratio(untraced_run_s * 1e9, count(l.sim_events)), "ns"},
      {"sim.pending_peak", count(l.pending_peak), "count"},
      {"grid.submit_us_p50", spans.percentile_us(Call::kGridSubmit, 50), "us"},
      {"grid.submit_us_p99", spans.percentile_us(Call::kGridSubmit, 99), "us"},
      {"jdl.parse_us_p50", spans.percentile_us(Call::kJdlParse, 50), "us"},
      {"infosys.index_queries", count(l.index_queries), "count"},
      {"infosys.site_queries", count(l.site_queries), "count"},
      {"infosys.index_queries_per_job", ratio(count(l.index_queries), jobs), "queries/job"},
      {"broker.queue_depth_peak", count(l.broker_queue_peak), "jobs"},
      {"broker.match.sites_scanned", family_total(snap, "broker.match.sites_scanned"), "count"},
      {"broker.match.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"broker.resubmissions", family_total(snap, "broker.resubmissions"), "count"},
      {"broker.lease_conflicts", family_total(snap, "broker.lease_conflicts"), "count"},
      {"broker.match_latency_s.p50", l.match_latency_p50_s, "sim_s"},
      {"net.msg.sent", sent, "count"},
      {"net.msg.sent.Heartbeat", family_total(snap, "net.msg.sent", "type", "Heartbeat"), "count"},
      {"net.msg.sent.LivenessProbe",
       family_total(snap, "net.msg.sent", "type", "LivenessProbe"), "count"},
      {"net.msg.per_job", ratio(sent, jobs), "msgs/job"},
      {"net.msg.delivered_ratio", ratio(family_total(snap, "net.msg.delivered"), sent), "ratio"},
      {"broker.agents_deployed", family_total(snap, "broker.agents_deployed"), "count"},
      {"glidein.slot_starts", family_total(snap, "glidein.slot_starts"), "count"},
      {"lrms.dispatches", family_total(snap, "lrms.dispatches"), "count"},
      {"lrms.queue_depth_peak", count(l.lrms_queue_peak), "jobs"},
      {"lrms.dispatch_latency_s.p50", l.lrms_dispatch_latency_p50_s, "sim_s"},
      {"mpijob.subjobs", count(l.mpi_subjobs), "count"},
      {"stream.write_us_p99", spans.percentile_us(Call::kWriteStdout, 99), "us"},
      {"stream.type_line_us_p99", spans.percentile_us(Call::kTypeLine, 99), "us"},
      {"stream.flushes", family_total(snap, "stream.flushes"), "count"},
      {"stream.bytes_spooled", family_total(snap, "stream.bytes_spooled"), "bytes"},
      {"stream.chunk_pool.high_water", count(l.chunk_pool_high_water), "chunks"},
      {"stream.frames_per_line", ratio(count(l.frames_received), count(lines_written)),
       "frames/line"},
      {"obs.trace_events", count(l.trace_events), "count"},
      {"obs.legacy_trace_entries", count(l.legacy_trace_entries), "count"},
      {"obs.export_s", l.export_s, "s"},
  };
  for (std::size_t i = 0; i < kCallCount; ++i) {
    const auto call = static_cast<Call>(i);
    out.push_back({std::string{"span."} + call_key(call) + ".self_s",
                   static_cast<double>(spans.stats(call).self_ns) / 1e9, "s"});
  }
  return out;
}

std::string render_table(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %18.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    out += line;
  }
  return out;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + format_value(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace grid_e2e
