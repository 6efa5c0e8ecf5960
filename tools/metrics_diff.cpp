// metrics_diff: per-metric delta triage between two fedco result/summary
// JSON documents (fedco_sim --json / --save-result / --save-summary).
//
// The golden-fingerprint harness answers "identical or not"; this tool
// answers *what* changed and by how much — the instrument the repo's
// legal-divergence contracts need (the folded-G engine's <= 1e-6 G/H
// drift, the adaptive knapsack grid's equal-feasibility replans; see
// docs/observability.md). Both documents are walked in parallel; every
// leaf gets a dotted path ("queues.avg_q", "traces.G.v[3]"), numeric
// leaves pass when |a - b| <= abs_tol + rel_tol * max(|a|, |b|) under the
// most specific tolerance configured for their path, and everything else
// must match exactly.
//
// Usage:
//   metrics_diff --baseline A.json --candidate B.json
//     [--abs-tol X] [--rel-tol X]
//     [--tol "prefix=X,prefix=X"]   per-prefix absolute tolerance
//                                   (longest matching prefix wins)
//     [--ignore "prefix,prefix"]    skip subtrees (in addition to the
//                                   defaults: config, summary.timing)
//     [--max-report N]              cap printed rows (default 50)
//
// Exit codes (CI contract, mirrored by tests/metrics_diff_test.cmake):
//   0  every compared metric within tolerance
//   1  at least one delta out of tolerance (or missing/mismatched key)
//   2  usage error, unreadable file, or malformed JSON

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using fedco::util::JsonValue;

struct Tolerance {
  std::string prefix;
  double abs = 0.0;
};

struct Options {
  double abs_tol = 0.0;
  double rel_tol = 0.0;
  std::vector<Tolerance> tols;      ///< per-prefix overrides
  std::vector<std::string> ignores; ///< subtree prefixes to skip
  std::size_t max_report = 50;
};

struct Finding {
  std::string path;
  std::string detail;
};

struct Stats {
  std::size_t compared = 0;  ///< leaves checked
  std::size_t failed = 0;    ///< out of tolerance / mismatched / missing
  double worst_delta = 0.0;
  std::string worst_path;
  std::vector<Finding> findings;
};

/// Does `path` fall under `prefix`? Exact match or a "." / "[" boundary —
/// "queues" covers "queues.avg_q" but not "queues2".
bool under_prefix(const std::string& path, const std::string& prefix) {
  if (path.size() < prefix.size()) return false;
  if (path.compare(0, prefix.size(), prefix) != 0) return false;
  return path.size() == prefix.size() || path[prefix.size()] == '.' ||
         path[prefix.size()] == '[';
}

bool ignored(const std::string& path, const Options& opt) {
  for (const std::string& prefix : opt.ignores) {
    if (under_prefix(path, prefix)) return true;
  }
  return false;
}

/// Absolute tolerance for a path: the longest matching --tol prefix, else
/// the global --abs-tol.
double abs_tol_for(const std::string& path, const Options& opt) {
  double tol = opt.abs_tol;
  std::size_t best = 0;
  for (const Tolerance& t : opt.tols) {
    if (t.prefix.size() >= best && under_prefix(path, t.prefix)) {
      best = t.prefix.size();
      tol = t.abs;
    }
  }
  return tol;
}

std::string fmt_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void report(Stats& stats, const std::string& path, std::string detail) {
  ++stats.failed;
  stats.findings.push_back({path, std::move(detail)});
}

void diff_value(const std::string& path, const JsonValue& a,
                const JsonValue& b, const Options& opt, Stats& stats);

void diff_object(const std::string& path, const JsonValue& a,
                 const JsonValue& b, const Options& opt, Stats& stats) {
  for (const auto& [key, av] : a.as_object()) {
    const std::string child = path.empty() ? key : path + "." + key;
    if (ignored(child, opt)) continue;
    const JsonValue* bv = b.find(key);
    if (bv == nullptr) {
      ++stats.compared;
      report(stats, child, "MISSING in candidate");
      continue;
    }
    diff_value(child, av, *bv, opt, stats);
  }
  for (const auto& [key, bv] : b.as_object()) {
    (void)bv;
    const std::string child = path.empty() ? key : path + "." + key;
    if (ignored(child, opt)) continue;
    if (a.find(key) == nullptr) {
      ++stats.compared;
      report(stats, child, "MISSING in baseline");
    }
  }
}

void diff_array(const std::string& path, const JsonValue& a,
                const JsonValue& b, const Options& opt, Stats& stats) {
  const auto& av = a.as_array();
  const auto& bv = b.as_array();
  if (av.size() != bv.size()) {
    ++stats.compared;
    report(stats, path,
           "length " + std::to_string(av.size()) + " vs " +
               std::to_string(bv.size()));
  }
  const std::size_t n = std::min(av.size(), bv.size());
  for (std::size_t i = 0; i < n; ++i) {
    diff_value(path + "[" + std::to_string(i) + "]", av[i], bv[i], opt, stats);
  }
}

void diff_value(const std::string& path, const JsonValue& a,
                const JsonValue& b, const Options& opt, Stats& stats) {
  if (a.kind() != b.kind()) {
    ++stats.compared;
    report(stats, path, "kind mismatch");
    return;
  }
  switch (a.kind()) {
    case JsonValue::Kind::kObject:
      diff_object(path, a, b, opt, stats);
      return;
    case JsonValue::Kind::kArray:
      diff_array(path, a, b, opt, stats);
      return;
    case JsonValue::Kind::kNumber: {
      ++stats.compared;
      const double x = a.as_number();
      const double y = b.as_number();
      const double delta = std::fabs(x - y);
      if (delta > stats.worst_delta) {
        stats.worst_delta = delta;
        stats.worst_path = path;
      }
      const double tol = abs_tol_for(path, opt) +
                         opt.rel_tol * std::max(std::fabs(x), std::fabs(y));
      if (delta > tol) {
        report(stats, path,
               fmt_number(x) + " -> " + fmt_number(y) + "  |d| = " +
                   fmt_number(delta) + "  tol = " + fmt_number(tol));
      }
      return;
    }
    case JsonValue::Kind::kBool:
      ++stats.compared;
      if (a.as_bool() != b.as_bool()) report(stats, path, "bool mismatch");
      return;
    case JsonValue::Kind::kString:
      ++stats.compared;
      if (a.as_string() != b.as_string()) {
        report(stats, path, "'" + a.as_string() + "' vs '" + b.as_string() + "'");
      }
      return;
    case JsonValue::Kind::kNull:
      ++stats.compared;  // null == null
      return;
  }
}

JsonValue load(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"metrics_diff: cannot read " + path};
  std::ostringstream text;
  text << in.rdbuf();
  return fedco::util::parse_json(text.str());
}

/// "a=1e-6,b.c=0.5" -> Tolerance entries.
std::vector<Tolerance> parse_tols(const std::string& spec) {
  std::vector<Tolerance> out;
  std::stringstream ss{spec};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument{"metrics_diff: --tol entry '" + item +
                                  "' is not prefix=value"};
    }
    out.push_back({item.substr(0, eq), std::stod(item.substr(eq + 1))});
  }
  return out;
}

std::vector<std::string> parse_ignores(const std::string& spec) {
  std::vector<std::string> out;
  std::stringstream ss{spec};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

void usage() {
  std::puts(
      "usage: metrics_diff --baseline A.json --candidate B.json\n"
      "  [--abs-tol X] [--rel-tol X] [--tol \"prefix=X,...\"]\n"
      "  [--ignore \"prefix,...\"] [--max-report N]\n"
      "exit: 0 within tolerance, 1 diffs found, 2 usage/IO error");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fedco::util::ArgParser args{argc, argv};
    const std::string baseline_path = args.get("baseline");
    const std::string candidate_path = args.get("candidate");
    if (baseline_path.empty() || candidate_path.empty()) {
      usage();
      return 2;
    }
    Options opt;
    opt.abs_tol = args.get_double("abs-tol", 0.0);
    opt.rel_tol = args.get_double("rel-tol", 0.0);
    opt.tols = parse_tols(args.get("tol"));
    // Defaults: "config" (comparing two modes legitimately differs in the
    // mode flag) and "summary.timing" (wall-clock, never reproducible).
    opt.ignores = {"config", "summary.timing"};
    for (std::string& extra : parse_ignores(args.get("ignore"))) {
      opt.ignores.push_back(std::move(extra));
    }
    opt.max_report =
        static_cast<std::size_t>(args.get_count("max-report", 50));
    for (const std::string& stray : args.unused()) {
      std::fprintf(stderr, "metrics_diff: unknown option --%s\n",
                   stray.c_str());
      return 2;
    }

    const JsonValue baseline = load(baseline_path);
    const JsonValue candidate = load(candidate_path);
    Stats stats;
    diff_value("", baseline, candidate, opt, stats);

    for (std::size_t i = 0;
         i < stats.findings.size() && i < opt.max_report; ++i) {
      std::printf("DIFF  %-40s %s\n", stats.findings[i].path.c_str(),
                  stats.findings[i].detail.c_str());
    }
    if (stats.findings.size() > opt.max_report) {
      std::printf("... %zu more\n", stats.findings.size() - opt.max_report);
    }
    std::printf(
        "metrics_diff: %zu metrics compared, %zu out of tolerance; "
        "worst |delta| = %s%s%s\n",
        stats.compared, stats.failed, fmt_number(stats.worst_delta).c_str(),
        stats.worst_path.empty() ? "" : " at ",
        stats.worst_path.c_str());
    return stats.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "metrics_diff: %s\n", e.what());
    return 2;
  }
}
