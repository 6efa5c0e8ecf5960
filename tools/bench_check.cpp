// Throughput-regression gate over bench_scale's machine-readable output.
//
// Compares a freshly measured BENCH_scale(.json) document against a
// committed baseline: for every (num_users, horizon_slots, scheduler) row
// present in BOTH documents, the candidate's slots_per_sec must not fall
// more than --max-regression-pct below the baseline's. Rows only one side
// has (grid changes) are reported and skipped, as are rows whose
// fleet-level "rng" tag ("legacy" vs "stream", the PR 6 counter-based
// arrival streams) differs between the documents: different RNG layouts
// sample different arrival sequences, so a timing delta there is a mode
// change, not a regression. Matching prefers the exact (users, horizon,
// scheduler, events, churn_aware) row. Rows measured with the JSONL event
// emitter attached (PR 8, "events": true) only compare against other
// events-on rows: the emitter's serialization + I/O is deliberate work, not a
// scheduler regression. The departure-aware tag (PR 10, "churn_aware": true)
// works the same way: a churn-aware row runs a different decision rule (and
// on churny fleets a different decision stream), so it only compares against
// other churn-aware rows. CI runs this against the committed smoke baseline
// on every push (ROADMAP "BENCH trajectory"), so an accidental O(n)
// regression in the event-driven driver fails loudly instead of rotting
// silently.
//
// The gate also watches memory: each fleet row carries the process peak
// RSS high-water mark after that fleet, and a candidate fleet whose
// process_peak_rss_mib grows more than --max-rss-growth-pct above the
// baseline's fails. This is what catches a footprint regression in the
// 1M-user SoA arenas (an accidental per-user vector re-introduction
// would triple the row's RSS long before it breaks a timing gate).
//
// Baselines are machine-specific: recapture them (bench_scale --smoke
// --jobs 1) when the reference hardware changes, and compare only serial
// ("timing": "serial") documents — concurrent timings include worker
// contention.
//
//   bench_check --baseline PATH --candidate PATH [--max-regression-pct N]
//               [--max-rss-growth-pct N]
//
// Exit code: 0 = within tolerance, 1 = regression, 2 = usage/parse error.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using fedco::util::JsonValue;

struct Row {
  std::uint64_t users = 0;
  std::int64_t horizon = 0;
  std::string scheduler;
  double slots_per_sec = 0.0;
  /// Fleet-level RNG layout tag (since PR 6): "legacy" or "stream",
  /// "" in pre-tag documents. Mismatched layouts SKIP.
  std::string rng;
  /// True on rows measured with the JSONL event emitter attached (PR 8
  /// observability). Events-on rows pay serialization + I/O per slot, so
  /// they only compare against other events-on rows; absent = false keeps
  /// pre-tag baselines comparable.
  bool events = false;
  /// True on rows measured with the PR 10 departure-aware scheduling mode
  /// on (offline_churn_aware / online_churn_aware). A churn-aware row runs
  /// a different decision rule, so it only compares against other
  /// churn-aware rows; absent = false keeps pre-tag baselines comparable.
  bool churn_aware = false;
};

/// One fleet's memory footprint: the process peak RSS high-water mark
/// recorded after that fleet ran (bench_scale runs the grid smallest
/// first, so growth here is attributable to the fleet or its
/// predecessors — either way a footprint regression).
struct FleetStat {
  std::uint64_t users = 0;
  std::int64_t horizon = 0;
  std::string rng;
  double peak_rss_mib = 0.0;  ///< 0 when the platform lacks getrusage
};

struct Doc {
  std::vector<Row> rows;
  std::vector<FleetStat> fleets;
};

std::string row_name(const Row& row) {
  return std::to_string(row.users) + " users x " +
         std::to_string(row.horizon) + " slots / " + row.scheduler +
         (row.churn_aware ? " +churn" : "") + (row.events ? " +events" : "");
}

std::string fleet_name(const FleetStat& fleet) {
  return std::to_string(fleet.users) + " users x " +
         std::to_string(fleet.horizon) + " slots / peak RSS";
}

JsonValue load(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"bench_check: cannot open " + path};
  std::ostringstream text;
  text << in.rdbuf();
  return fedco::util::parse_json(text.str());
}

Doc rows_of(const JsonValue& doc, const std::string& path) {
  const JsonValue* fleets = doc.find("fleets");
  if (fleets == nullptr || !fleets->is_array()) {
    throw std::runtime_error{"bench_check: " + path + " has no fleets array"};
  }
  if (const JsonValue* timing = doc.find("timing");
      timing != nullptr && timing->as_string() != "serial") {
    std::fprintf(stderr,
                 "bench_check: warning: %s was measured with --jobs > 1; "
                 "concurrent slots/sec include worker contention\n",
                 path.c_str());
  }
  Doc out;
  for (const JsonValue& fleet : fleets->as_array()) {
    const JsonValue* users = fleet.find("num_users");
    const JsonValue* horizon = fleet.find("horizon_slots");
    const JsonValue* schedulers = fleet.find("schedulers");
    if (users == nullptr || horizon == nullptr || schedulers == nullptr) {
      throw std::runtime_error{"bench_check: malformed fleet row in " + path};
    }
    FleetStat stat;
    stat.users = static_cast<std::uint64_t>(users->as_number());
    stat.horizon = static_cast<std::int64_t>(horizon->as_number());
    if (const JsonValue* rng = fleet.find("rng")) {
      stat.rng = rng->as_string();
    }
    if (const JsonValue* rss = fleet.find("process_peak_rss_mib")) {
      stat.peak_rss_mib = rss->as_number();
    }
    out.fleets.push_back(stat);
    for (const JsonValue& sched : schedulers->as_array()) {
      const JsonValue* name = sched.find("scheduler");
      const JsonValue* slots = sched.find("slots_per_sec");
      if (name == nullptr || slots == nullptr) {
        throw std::runtime_error{"bench_check: malformed scheduler row in " +
                                 path};
      }
      Row row;
      row.users = stat.users;
      row.horizon = stat.horizon;
      row.rng = stat.rng;
      row.scheduler = name->as_string();
      row.slots_per_sec = slots->as_number();
      if (const JsonValue* events = sched.find("events")) {
        row.events = events->as_bool();
      }
      if (const JsonValue* churn = sched.find("churn_aware")) {
        row.churn_aware = churn->as_bool();
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

const Row* match(const std::vector<Row>& rows, const Row& key) {
  // Exact match first — a fleet can carry one row per scheduler and
  // events/churn-aware tag pair. The tag-blind fallback pairs pre-tag
  // documents with tagged ones; the caller's tag checks then report those
  // pairs as SKIP.
  for (const Row& row : rows) {
    if (row.users == key.users && row.horizon == key.horizon &&
        row.scheduler == key.scheduler && row.events == key.events && row.churn_aware == key.churn_aware) {
      return &row;
    }
  }
  for (const Row& row : rows) {
    if (row.users == key.users && row.horizon == key.horizon &&
        row.scheduler == key.scheduler) {
      return &row;
    }
  }
  return nullptr;
}

const FleetStat* match_fleet(const std::vector<FleetStat>& fleets,
                             const FleetStat& key) {
  for (const FleetStat& fleet : fleets) {
    if (fleet.users == key.users && fleet.horizon == key.horizon) {
      return &fleet;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fedco::util::ArgParser args{argc, argv};
    const std::string baseline_path = args.get("baseline");
    const std::string candidate_path = args.get("candidate");
    const double max_regression_pct =
        args.get_double("max-regression-pct", 20.0);
    const double max_rss_growth_pct =
        args.get_double("max-rss-growth-pct", 50.0);
    if (baseline_path.empty() || candidate_path.empty()) {
      std::fprintf(stderr,
                   "usage: bench_check --baseline PATH --candidate PATH "
                   "[--max-regression-pct N] [--max-rss-growth-pct N]\n");
      return 2;
    }

    const Doc baseline_doc = rows_of(load(baseline_path), baseline_path);
    const Doc candidate_doc = rows_of(load(candidate_path), candidate_path);
    const std::vector<Row>& baseline = baseline_doc.rows;
    const std::vector<Row>& candidate = candidate_doc.rows;

    std::size_t compared = 0;
    std::size_t regressions = 0;
    for (const Row& base : baseline) {
      const Row* cand = match(candidate, base);
      if (cand == nullptr) {
        std::printf("SKIP  %s: not in candidate (grid change?)\n",
                    row_name(base).c_str());
        continue;
      }
      if (cand->rng != base.rng) {
        // Legacy vs stream RNG layouts sample different arrival
        // sequences: the row measures different simulated work, so a
        // timing delta is a mode change, not a regression.
        std::printf(
            "SKIP  %s: rng layout changed (baseline %s -> candidate %s) — "
            "mode change, not a regression\n",
            row_name(base).c_str(),
            base.rng.empty() ? "-" : base.rng.c_str(),
            cand->rng.empty() ? "-" : cand->rng.c_str());
        continue;
      }
      if (cand->events != base.events) {
        // An events-on row pays per-slot serialization + I/O the
        // events-off row does not; comparing across the tag measures the
        // emitter, not the scheduler.
        std::printf(
            "SKIP  %s: event emitter changed (baseline %s -> candidate %s) "
            "— mode change, not a regression\n",
            row_name(base).c_str(), base.events ? "on" : "off",
            cand->events ? "on" : "off");
        continue;
      }
      if (cand->churn_aware != base.churn_aware) {
        // The departure-aware mode runs a different decision rule (a
        // feasibility pre-pass offline, an H(t)-discount online), so the
        // row measures different work.
        std::printf(
            "SKIP  %s: churn-aware mode changed (baseline %s -> candidate "
            "%s) — mode change, not a regression\n",
            row_name(base).c_str(), base.churn_aware ? "on" : "off",
            cand->churn_aware ? "on" : "off");
        continue;
      }
      ++compared;
      const double change_pct =
          base.slots_per_sec > 0.0
              ? (cand->slots_per_sec / base.slots_per_sec - 1.0) * 100.0
              : 0.0;
      const bool regressed = change_pct < -max_regression_pct;
      std::printf("%s  %s: baseline %.0f -> candidate %.0f slots/s (%+.1f%%)\n",
                  regressed ? "FAIL" : "OK  ", row_name(base).c_str(),
                  base.slots_per_sec, cand->slots_per_sec, change_pct);
      if (regressed) ++regressions;
    }
    for (const Row& cand : candidate) {
      if (match(baseline, cand) == nullptr) {
        std::printf("NEW   %s: no baseline row (recapture the baseline to "
                    "start tracking it)\n",
                    row_name(cand).c_str());
      }
    }
    // Memory gate: per-fleet peak-RSS growth. Rows without a measurement
    // (platforms lacking getrusage report 0) and rng-layout changes SKIP
    // like the timing rows do.
    for (const FleetStat& base : baseline_doc.fleets) {
      if (base.peak_rss_mib <= 0.0) continue;
      const FleetStat* cand = match_fleet(candidate_doc.fleets, base);
      if (cand == nullptr || cand->peak_rss_mib <= 0.0) {
        std::printf("SKIP  %s: no candidate measurement\n",
                    fleet_name(base).c_str());
        continue;
      }
      if (cand->rng != base.rng) {
        std::printf("SKIP  %s: rng layout changed (baseline %s -> candidate "
                    "%s) — mode change, not a regression\n",
                    fleet_name(base).c_str(),
                    base.rng.empty() ? "-" : base.rng.c_str(),
                    cand->rng.empty() ? "-" : cand->rng.c_str());
        continue;
      }
      ++compared;
      const double growth_pct =
          (cand->peak_rss_mib / base.peak_rss_mib - 1.0) * 100.0;
      const bool regressed = growth_pct > max_rss_growth_pct;
      std::printf("%s  %s: baseline %.1f -> candidate %.1f MiB (%+.1f%%)\n",
                  regressed ? "FAIL" : "OK  ", fleet_name(base).c_str(),
                  base.peak_rss_mib, cand->peak_rss_mib, growth_pct);
      if (regressed) ++regressions;
    }
    if (compared == 0) {
      std::fprintf(stderr,
                   "bench_check: no comparable rows between %s and %s\n",
                   baseline_path.c_str(), candidate_path.c_str());
      return 2;
    }
    if (regressions > 0) {
      std::fprintf(stderr,
                   "bench_check: %zu of %zu rows regressed beyond tolerance "
                   "(timing -%.0f%%, RSS +%.0f%%)\n",
                   regressions, compared, max_regression_pct,
                   max_rss_growth_pct);
      return 1;
    }
    std::printf("bench_check: %zu rows within tolerance of baseline\n",
                compared);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_check: %s\n", error.what());
    return 2;
  }
}
