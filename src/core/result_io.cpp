#include "core/result_io.hpp"

#include <fstream>
#include <stdexcept>

#include "core/config_io.hpp"
#include "util/json.hpp"

namespace fedco::core {

std::string result_to_json(const ExperimentConfig& config,
                           const ExperimentResult& result,
                           const ResultJsonOptions& options) {
  util::JsonWriter json;
  json.begin_object();

  // The full reproducible config (config_io schema): feeding this document
  // back to `fedco_sim --config` re-runs the exact experiment.
  json.key("config").begin_object();
  write_config_members(json, config);
  json.end_object();

  json.key("energy_j").begin_object();
  json.member("total", result.total_energy_j);
  json.member("training", result.training_j);
  json.member("corun", result.corun_j);
  json.member("app", result.app_j);
  json.member("idle", result.idle_j);
  json.member("network", result.network_j);
  json.member("overhead", result.overhead_j);
  json.end_object();

  json.key("updates").begin_object();
  json.member("applied", result.total_updates);
  json.member("dropped", result.dropped_updates);
  json.member("corun_sessions", result.corun_sessions);
  json.member("separate_sessions", result.separate_sessions);
  json.member("avg_lag", result.avg_lag);
  json.member("avg_gap", result.avg_gap);
  json.end_object();

  json.key("queues").begin_object();
  json.member("avg_q", result.avg_queue_q);
  json.member("avg_h", result.avg_queue_h);
  json.member("final_q", result.final_queue_q);
  json.member("final_h", result.final_queue_h);
  json.end_object();

  json.key("learning").begin_object();
  json.member("final_accuracy", result.final_accuracy);
  json.member("final_loss", result.final_loss);
  json.end_object();

  json.key("environment").begin_object();
  json.member("battery_cycles_total", result.battery_cycles_total);
  json.member("battery_recharges",
              static_cast<std::uint64_t>(result.battery_recharges));
  json.member("battery_gated_slots", result.battery_gated_slots);
  json.member("max_temperature_c", result.max_temperature_c);
  json.member("worst_throttle_factor", result.worst_throttle_factor);
  json.member("throttled_sessions", result.throttled_sessions);
  json.end_object();

  if (options.include_summary) {
    const RunSummary& s = result.summary;
    json.key("summary").begin_object();
    const auto pct = [&json](const char* name, const util::Percentiles& p) {
      json.key(name).begin_object();
      json.member("p50", p.p50);
      json.member("p90", p.p90);
      json.member("p99", p.p99);
      json.end_object();
    };
    pct("queue_q", s.queue_q);
    pct("queue_h", s.queue_h);
    pct("lag", s.lag);
    pct("gap", s.gap);
    pct("user_energy_j", s.user_energy_j);
    json.key("counts").begin_object();
    json.member("decisions_scheduled", s.decisions_scheduled);
    json.member("decisions_idle", s.decisions_idle);
    json.member("parks", s.parks);
    json.member("wakes", s.wakes);
    json.member("joins", s.joins);
    json.member("leaves", s.leaves);
    json.member("barrier_stall_slots", s.barrier_stall_slots);
    json.member("replans", s.replans);
    json.end_object();
    if (options.include_timing) {
      json.key("timing").begin_object();
      json.member("setup_s", s.timing.setup_s);
      json.member("events_s", s.timing.events_s);
      json.member("decide_s", s.timing.decide_s);
      json.member("record_s", s.timing.record_s);
      json.member("finalize_s", s.timing.finalize_s);
      json.member("total_s", s.timing.total_s);
      json.member("decide_screened", s.timing.decide_screened);
      json.end_object();
    }
    json.end_object();
  }

  if (options.include_traces) {
    const std::size_t k = options.trace_decimation == 0
                              ? 1
                              : options.trace_decimation;
    json.key("traces").begin_object();
    for (const auto& name : result.traces.names()) {
      const auto* series = result.traces.find(name);
      if (series == nullptr || series->empty()) continue;
      const util::TimeSeries thin = series->decimate(k);
      json.key(name).begin_object();
      json.key("t").begin_array();
      for (std::size_t i = 0; i < thin.size(); ++i) json.value(thin.time_at(i));
      json.end_array();
      json.key("v").begin_array();
      for (std::size_t i = 0; i < thin.size(); ++i) json.value(thin.value_at(i));
      json.end_array();
      json.end_object();
    }
    json.end_object();
  }

  if (options.include_lag_gap_samples) {
    json.key("lag_gap").begin_array();
    for (const auto& sample : result.lag_gap_samples) {
      json.begin_object();
      json.member("t", sample.time_s);
      json.member("lag", sample.lag);
      json.member("gap", sample.gap);
      json.member("user", static_cast<std::uint64_t>(sample.user));
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  return json.str();
}

void write_result_json(const std::string& path, const ExperimentConfig& config,
                       const ExperimentResult& result,
                       const ResultJsonOptions& options) {
  std::ofstream out{path, std::ios::trunc};
  if (!out) throw std::runtime_error{"write_result_json: cannot open " + path};
  out << result_to_json(config, result, options) << '\n';
}

}  // namespace fedco::core
