// fedco benchmark probe: one measured execution of a workload, exactly as
// the fedco_sim CLI runs it by default (spec -> scenario::load_scenario_json
// -> core::apply_scenario_arena -> core::run_experiment), printed as one
// JSON line on stdout. run.py starts one probe process per execution.
//
//   fedco_probe --spec F --scheduler S [--real-training] --seed N
//               [--trace-out F]
//
// With --trace-out the probe also records spans around its own calls into
// each layer and times the layer kernels the configured run executes on
// inputs shaped like the workload (offline planner, arrival streams, the FL
// client/server calls). Spans stay in memory and are written to F at exit.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/arrival_stream.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/offline_planner.hpp"
#include "data/partition.hpp"
#include "data/synth_cifar.hpp"
#include "device/profiles.hpp"
#include "fl/client.hpp"
#include "fl/server.hpp"
#include "fl/staleness.hpp"
#include "nn/zoo.hpp"
#include "scenario/fleet.hpp"
#include "scenario/scenario_io.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/stream_rng.hpp"

namespace {

using namespace fedco;
using Clock = std::chrono::steady_clock;

// Kernel sample counts. Fixed, so each kernel's tail percentile (the
// highest with >= 10 samples beyond it) is the same on every run.
constexpr int kPlannerRounds = 6;         // x one plan per replan boundary
constexpr std::size_t kStreamChunk = 5000;  // users per stream sample
constexpr int kEpochSamples = 40;
constexpr int kEvalSamples = 40;
constexpr int kSubmitSamples = 1000;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// In-memory span recorder. Spans nest by call order; each carries the id
/// of the span open when it started.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::string name;
    double start_s = 0.0;  ///< since tracer creation
    double end_s = 0.0;
  };

  void open(std::string name) {
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({id, stack_.empty() ? 0 : stack_.back(), std::move(name),
                      seconds_between(origin_, Clock::now()), 0.0});
    stack_.push_back(id);
  }
  void close() {
    spans_[stack_.back() - 1].end_s = seconds_between(origin_, Clock::now());
    stack_.pop_back();
  }
  void count(const std::string& name, double value) { counters_[name] = value; }

  void write(const std::string& path) const {
    std::ofstream out{path};
    out << std::setprecision(17) << "{\"spans\": [";
    for (std::size_t k = 0; k < spans_.size(); ++k) {
      const Span& s = spans_[k];
      out << (k ? ",\n  " : "\n  ") << "{\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
          << '}';
    }
    out << "\n], \"counters\": {";
    bool first = true;
    for (const auto& [name, value] : counters_) {
      out << (first ? "\n  " : ",\n  ") << '"' << name << "\": " << value;
      first = false;
    }
    out << "\n}}\n";
    if (!out) throw std::runtime_error{"cannot write trace " + path};
  }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::map<std::string, double> counters_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(std::move(name));
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Minimal JSON object writer for the one-line result.
class JsonLine {
 public:
  JsonLine() { out_ << std::setprecision(17) << '{'; }
  JsonLine& num(const std::string& key, double value) {
    sep() << '"' << key << "\": " << value;
    return *this;
  }
  JsonLine& str(const std::string& key, const std::string& value) {
    sep() << '"' << key << "\": \"" << value << '"';
    return *this;
  }
  JsonLine& raw(const std::string& key, const std::string& json) {
    sep() << '"' << key << "\": " << json;
    return *this;
  }
  JsonLine& samples(const std::string& key, const std::vector<double>& xs) {
    sep() << '"' << key << "\": [";
    for (std::size_t k = 0; k < xs.size(); ++k) out_ << (k ? ", " : "") << xs[k];
    out_ << ']';
    return *this;
  }
  [[nodiscard]] std::string done() {
    out_ << '}';
    return out_.str();
  }

 private:
  std::ostringstream& sep() {
    if (!empty_) out_ << ", ";
    empty_ = false;
    return out_;
  }
  std::ostringstream out_;
  bool empty_ = true;
};

/// The CLI's effective config for `--scheduler S [--real-training] --seed N`
/// before scenario expansion (fedco_sim_main.cpp effective_config).
core::ExperimentConfig cli_config(const util::ArgParser& args) {
  core::ExperimentConfig cfg;
  cfg.scheduler = core::parse_scheduler_token(args.get("scheduler", "online"));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.real_training = args.get_bool("real-training", false);
  if (cfg.real_training && cfg.model == core::ModelKind::kLenetSmall) {
    cfg.dataset.height = 16;
    cfg.dataset.width = 16;
    cfg.dataset.train_per_class = 200;
    cfg.dataset.test_per_class = 40;
  }
  return cfg;
}

scenario::PerUserConfig user_overrides(const core::ExperimentConfig& cfg,
                                       std::size_t i) {
  if (cfg.fleet) return cfg.fleet->user(i);
  if (!cfg.per_user.empty()) return cfg.per_user[i];
  return scenario::PerUserConfig{};
}

apps::ArrivalStreamParams stream_params(const core::ExperimentConfig& cfg,
                                        const scenario::PerUserConfig& pu) {
  return {pu.arrival_probability.value_or(cfg.arrival_probability),
          pu.diurnal.value_or(cfg.diurnal),
          pu.diurnal_swing.value_or(cfg.diurnal_swing), pu.diurnal_peak_hour,
          cfg.slot_seconds};
}

std::uint64_t arrival_key(const core::ExperimentConfig& cfg, std::size_t i) {
  return util::stream_key(
      cfg.seed, i, static_cast<std::uint64_t>(apps::StreamConcern::kArrivals));
}

/// Leave slot of the presence window covering slot t; nullopt when absent.
std::optional<sim::Slot> leave_of_window_at(const scenario::PerUserConfig& pu,
                                            sim::Slot t) {
  if (pu.join_slot <= t && t < pu.leave_slot) return pu.leave_slot;
  for (const scenario::PresenceWindow& w : pu.extra_windows) {
    if (w.join <= t && t < w.leave) return w.leave;
  }
  return std::nullopt;
}

struct KernelReport {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  double checksum = 0.0;  ///< keeps the timed results observable
};

/// OfflinePlanner::plan at the workload's window and Lb. Each replan
/// boundary of the horizon gets the users present then (every present user
/// counted ready — the t = 0 case of a real run), their device, an in-window
/// arrival drawn from the user's own arrival law, and a gap drawn uniformly
/// over one window of epsilon accrual. A fresh planner per round replays the
/// boundaries in order, so incremental DP reuse is exercised as in a run.
void probe_planner(const core::ExperimentConfig& cfg, Tracer& tracer,
                   KernelReport& report) {
  Scope group{&tracer, "kernel.planner"};
  const core::OfflinePlannerConfig pcfg = core::make_planner_config(cfg);
  const sim::Slot window = pcfg.window_slots;
  util::Rng rng{cfg.seed};
  const double momentum = fl::SyntheticMomentumModel{}.momentum_norm();
  std::vector<sim::Slot> begins;
  std::vector<std::vector<core::OfflineUserInput>> inputs;
  for (sim::Slot t = 0; t < cfg.horizon_slots; t += window) {
    std::vector<core::OfflineUserInput> users;
    for (std::size_t i = 0; i < cfg.num_users; ++i) {
      const scenario::PerUserConfig pu = user_overrides(cfg, i);
      const std::optional<sim::Slot> leave = leave_of_window_at(pu, t);
      if (!leave) continue;
      const device::DeviceKind kind =
          pu.device ? *pu.device : scenario::assign_device(cfg.fixed_device, rng);
      core::OfflineUserInput in;
      in.dev = &device::profile(kind);
      in.current_gap = cfg.epsilon * rng.uniform(0.0, static_cast<double>(window));
      in.momentum_norm = momentum;
      in.leave_slot = *leave;
      in.priority = pu.priority;
      const sim::Slot end = std::min({t + window, cfg.horizon_slots, *leave});
      const apps::ArrivalCursor cursor = apps::stream_arrivals_begin(
          stream_params(cfg, pu), arrival_key(cfg, i), t, end);
      if (cursor.at != apps::ArrivalCursor::kNoArrival) {
        in.next_arrival = cursor.at;
        in.arrival_app = cursor.app;
      }
      users.push_back(in);
    }
    begins.push_back(t);
    inputs.push_back(std::move(users));
  }
  std::vector<double>& ms = report.samples["planner.plan_ms"];
  std::vector<double>& items = report.samples["knapsack.items"];
  for (int round = 0; round < kPlannerRounds; ++round) {
    core::OfflinePlanner planner{pcfg};
    for (std::size_t w = 0; w < begins.size(); ++w) {
      Scope span{&tracer, "core.OfflinePlanner::plan"};
      const auto start = Clock::now();
      const core::OfflineWindowPlan plan = planner.plan(begins[w], inputs[w]);
      ms.push_back(1e3 * seconds_between(start, Clock::now()));
      items.push_back(static_cast<double>(plan.knapsack.selected.size()));
      report.checksum += plan.knapsack.total_value;
    }
  }
}

/// stream_arrivals_begin/_next over every user's arrival stream, as the lazy
/// driver walks them; one sample per chunk of kStreamChunk users.
void probe_streams(const core::ExperimentConfig& cfg, Tracer& tracer,
                   KernelReport& report) {
  Scope group{&tracer, "kernel.streams"};
  struct Stream {
    apps::ArrivalStreamParams params;
    std::uint64_t key;
    sim::Slot from;
    sim::Slot end;
  };
  std::vector<Stream> streams(cfg.num_users);
  for (std::size_t i = 0; i < cfg.num_users; ++i) {
    const scenario::PerUserConfig pu = user_overrides(cfg, i);
    streams[i] = {stream_params(cfg, pu), arrival_key(cfg, i), pu.join_slot,
                  std::min(cfg.horizon_slots, pu.leave_slot)};
  }
  std::vector<double>& ns = report.samples["apps.stream_ns_per_event"];
  double events_total = 0.0;
  for (std::size_t lo = 0; lo < streams.size(); lo += kStreamChunk) {
    const std::size_t hi = std::min(streams.size(), lo + kStreamChunk);
    Scope span{&tracer, "apps.stream_arrivals"};
    const auto start = Clock::now();
    std::uint64_t events = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const Stream& s = streams[i];
      apps::ArrivalCursor cursor =
          apps::stream_arrivals_begin(s.params, s.key, s.from, s.end);
      while (cursor.at != apps::ArrivalCursor::kNoArrival) {
        ++events;
        report.checksum += static_cast<double>(cursor.at);
        apps::stream_arrivals_next(s.params, cursor, s.end);
      }
    }
    const double elapsed = seconds_between(start, Clock::now());
    if (events > 0) ns.push_back(1e9 * elapsed / static_cast<double>(events));
    events_total += static_cast<double>(events);
  }
  report.counts["apps.stream_events"] = events_total;
}

nn::Network make_model(core::ModelKind kind, const data::SynthCifarConfig& d,
                       util::Rng& rng) {
  switch (kind) {
    case core::ModelKind::kMlp:
      return nn::make_mlp(d.channels * d.height * d.width, 64, d.classes, rng);
    case core::ModelKind::kLenetSmall:
      return nn::make_lenet_small(d.classes, rng);
    case core::ModelKind::kLenet5:
      return nn::make_lenet5(d.classes, rng);
  }
  throw std::invalid_argument{"unknown model kind"};
}

/// The FL calls of a real-training run: one client's local epoch on its IID
/// shard, a global-model evaluation on the test split, an async submit.
void probe_fl(const core::ExperimentConfig& cfg, Tracer& tracer,
              KernelReport& report) {
  Scope group{&tracer, "kernel.fl"};
  const data::SynthCifar dataset = data::make_synth_cifar(cfg.dataset);
  util::Rng rng{cfg.seed};
  const nn::Network prototype = make_model(cfg.model, cfg.dataset, rng);
  const data::Partition partition =
      data::partition_iid(dataset.train.size(), cfg.num_users, rng);
  fl::FlClient client{0, dataset.train.subset(partition[0]), prototype,
                      nn::SgdConfig{cfg.eta, cfg.beta, 0.0, 0.0}, cfg.seed};
  fl::ParameterServer server{prototype.flatten_params(), cfg.eta, cfg.beta,
                             cfg.aggregation};

  std::vector<double>& epoch_ms = report.samples["fl.local_epoch_ms"];
  for (int k = 0; k < kEpochSamples; ++k) {
    Scope span{&tracer, "fl.FlClient::train_local_epoch"};
    const auto start = Clock::now();
    const fl::LocalEpochResult epoch = client.train_local_epoch(cfg.batch_size);
    epoch_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    report.checksum += epoch.mean_loss;
  }
  const std::vector<float> params = client.upload();
  std::vector<double>& eval_ms = report.samples["fl.evaluate_ms"];
  for (int k = 0; k < kEvalSamples; ++k) {
    Scope span{&tracer, "fl.evaluate_params"};
    const auto start = Clock::now();
    const fl::EvalResult eval =
        fl::evaluate_params(prototype, params, dataset.test);
    eval_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    report.checksum += eval.accuracy;
  }
  std::vector<double>& submit_us = report.samples["fl.submit_async_us"];
  for (int k = 0; k < kSubmitSamples; ++k) {
    const std::uint64_t version = server.version();
    Scope span{&tracer, "fl.ParameterServer::submit_async"};
    const auto start = Clock::now();
    const fl::UpdateReceipt receipt =
        server.submit_async(params, version > 0 ? version - 1 : 0);
    submit_us.push_back(1e6 * seconds_between(start, Clock::now()));
    report.checksum += receipt.gradient_gap;
  }
}

std::string result_json(const core::ExperimentResult& r) {
  const core::RunSummary& s = r.summary;
  JsonLine j;
  j.num("total_energy_j", r.total_energy_j)
      .num("training_j", r.training_j)
      .num("corun_j", r.corun_j)
      .num("app_j", r.app_j)
      .num("idle_j", r.idle_j)
      .num("network_j", r.network_j)
      .num("overhead_j", r.overhead_j)
      .num("total_updates", static_cast<double>(r.total_updates))
      .num("dropped_updates", static_cast<double>(r.dropped_updates))
      .num("corun_sessions", static_cast<double>(r.corun_sessions))
      .num("separate_sessions", static_cast<double>(r.separate_sessions))
      .num("avg_lag", r.avg_lag)
      .num("avg_gap", r.avg_gap)
      .num("final_queue_q", r.final_queue_q)
      .num("final_queue_h", r.final_queue_h)
      .num("final_accuracy", r.final_accuracy)
      .num("time_to_acc_s", r.time_to_accuracy(0.5))
      .num("decisions_scheduled", static_cast<double>(s.decisions_scheduled))
      .num("decisions_idle", static_cast<double>(s.decisions_idle))
      .num("parks", static_cast<double>(s.parks))
      .num("wakes", static_cast<double>(s.wakes))
      .num("replans", static_cast<double>(s.replans));
  return j.done();
}

std::string timing_json(const core::RunSummary::Timing& t) {
  JsonLine j;
  j.num("setup_s", t.setup_s)
      .num("events_s", t.events_s)
      .num("decide_s", t.decide_s)
      .num("record_s", t.record_s)
      .num("finalize_s", t.finalize_s)
      .num("total_s", t.total_s);
  return j.done();
}

std::string build_json() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  JsonLine j;
  j.str("type", FEDCO_PERFBENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .raw("ndebug", ndebug ? "true" : "false");
  return j.done();
}

int run(const util::ArgParser& args) {
  const std::string spec_path = args.get("spec");
  const std::string trace_path = args.get("trace-out");
  core::ExperimentConfig cfg = cli_config(args);
  const std::vector<std::string> unused = args.unused();
  if (spec_path.empty() || !unused.empty()) {
    std::cerr << "fedco_probe: need --spec F --scheduler S [--real-training] "
                 "--seed N [--trace-out F]\n";
    return 2;
  }
  Tracer tracer;
  Tracer* const tr = trace_path.empty() ? nullptr : &tracer;

  const auto t0 = Clock::now();
  Clock::time_point t1;
  Clock::time_point t2;
  core::ExperimentResult result;
  {
    Scope execution{tr, "bench.execution"};
    scenario::ScenarioSpec spec;
    {
      Scope span{tr, "scenario.load_scenario_json"};
      spec = scenario::load_scenario_json(spec_path);
    }
    t1 = Clock::now();
    {
      Scope span{tr, "core.apply_scenario_arena"};
      cfg = core::apply_scenario_arena(spec, std::move(cfg));
    }
    t2 = Clock::now();
    Scope span{tr, "core.run_experiment"};
    result = core::run_experiment(cfg);
  }
  const auto t3 = Clock::now();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  JsonLine line;
  line.num("users", static_cast<double>(cfg.num_users))
      .num("horizon", static_cast<double>(cfg.horizon_slots))
      .raw("real_training", cfg.real_training ? "true" : "false")
      .num("load_s", seconds_between(t0, t1))
      .num("expand_s", seconds_between(t1, t2))
      .num("run_s", seconds_between(t2, t3))
      .num("wall_s", seconds_between(t0, t3))
      .num("peak_rss_kib", static_cast<double>(usage.ru_maxrss))
      .raw("timing", timing_json(result.summary.timing))
      .raw("result", result_json(result))
      .raw("build", build_json());

  if (tr != nullptr) {
    // Kernels the configured run executes, timed on this workload's shape.
    KernelReport kernels;
    if (cfg.scheduler == core::SchedulerKind::kOffline) {
      probe_planner(cfg, tracer, kernels);
    }
    if (cfg.arrival_streams) probe_streams(cfg, tracer, kernels);
    if (cfg.real_training) probe_fl(cfg, tracer, kernels);
    JsonLine k;
    for (const auto& [name, xs] : kernels.samples) k.samples(name, xs);
    for (const auto& [name, value] : kernels.counts) k.num(name, value);
    k.num("checksum", kernels.checksum);
    line.raw("kernels", k.done());
    const core::RunSummary::Timing& t = result.summary.timing;
    tracer.count("driver.setup_s", t.setup_s);
    tracer.count("driver.events_s", t.events_s);
    tracer.count("driver.decide_s", t.decide_s);
    tracer.count("driver.record_s", t.record_s);
    tracer.count("driver.finalize_s", t.finalize_s);
    tracer.count("driver.decisions_scheduled",
                 static_cast<double>(result.summary.decisions_scheduled));
    tracer.count("driver.decisions_idle",
                 static_cast<double>(result.summary.decisions_idle));
    tracer.count("driver.parks", static_cast<double>(result.summary.parks));
    tracer.count("driver.replans", static_cast<double>(result.summary.replans));
    tracer.write(trace_path);
  }
  std::cout << line.done() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args{argc, argv};
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "fedco_probe: " << error.what() << '\n';
    return 1;
  }
}
