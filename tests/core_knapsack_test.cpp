// Offline knapsack (Algorithm 1): DP optimality vs exhaustive search,
// capacity feasibility, greedy comparison, the row kernel against the
// textbook DP, the Lemma 1 lag bound checked against a brute-force
// enumeration of all decision combinations, and the window planner
// (including reuse of one planner across changing windows).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/knapsack.hpp"
#include "core/offline_planner.hpp"
#include "device/profiles.hpp"
#include "util/rng.hpp"

namespace fedco::core {
namespace {

TEST(Knapsack, EmptyAndDegenerate) {
  EXPECT_EQ(solve_knapsack({}, 10.0).total_value, 0.0);
  const std::vector<KnapsackItem> items{{5.0, 2.0}};
  EXPECT_EQ(solve_knapsack(items, 0.0).total_value, 0.0);
  EXPECT_EQ(solve_knapsack(items, 10.0, 0).total_value, 0.0);
  EXPECT_THROW(solve_knapsack({{-1.0, 2.0}}, 10.0), std::invalid_argument);
  EXPECT_THROW(solve_knapsack({{1.0, -2.0}}, 10.0), std::invalid_argument);
}

TEST(Knapsack, TextbookInstance) {
  // values {60,100,120}, weights {10,20,30}, capacity 50 -> take {1,2} = 220.
  const std::vector<KnapsackItem> items{{60.0, 10.0}, {100.0, 20.0}, {120.0, 30.0}};
  const KnapsackSolution s = solve_knapsack(items, 50.0, 50);
  EXPECT_DOUBLE_EQ(s.total_value, 220.0);
  EXPECT_FALSE(s.selected[0]);
  EXPECT_TRUE(s.selected[1]);
  EXPECT_TRUE(s.selected[2]);
}

TEST(Knapsack, OverweightItemNeverSelected) {
  const std::vector<KnapsackItem> items{{1000.0, 100.0}, {1.0, 0.5}};
  const KnapsackSolution s = solve_knapsack(items, 10.0);
  EXPECT_FALSE(s.selected[0]);
  EXPECT_TRUE(s.selected[1]);
}

TEST(Knapsack, RejectsNonFiniteInputByName) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto message = [](const std::vector<KnapsackItem>& items,
                          double capacity) -> std::string {
    try {
      (void)solve_knapsack(items, capacity);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_NE(message({{1.0, 2.0}, {bad, 1.0}}, 10.0).find("value"),
              std::string::npos);
    EXPECT_NE(message({{1.0, 2.0}, {1.0, bad}}, 10.0).find("weight"),
              std::string::npos);
    EXPECT_NE(message({{1.0, 2.0}}, bad).find("capacity"), std::string::npos);
  }
}

TEST(Knapsack, HugeWeightsAreOverweightNotUndefined) {
  // Unit counts far above the grid (and quotients that overflow to inf)
  // map to grid + 1: never selected, and the other items plan as usual.
  const std::vector<KnapsackItem> items{
      {50.0, 1e300}, {7.0, 4.0}, {40.0, 1e30}, {3.0, 0.0}};
  for (const double capacity : {10.0, 1e-300}) {
    const KnapsackSolution s = solve_knapsack(items, capacity, 2000);
    EXPECT_FALSE(s.selected[0]) << capacity;
    EXPECT_FALSE(s.selected[2]) << capacity;
    EXPECT_TRUE(s.selected[3]) << capacity;
    EXPECT_EQ(s.selected[1], capacity == 10.0);
  }
}

TEST(Knapsack, ZeroWeightItemsAreFree) {
  const std::vector<KnapsackItem> items{{3.0, 0.0}, {4.0, 0.0}, {5.0, 10.0}};
  const KnapsackSolution s = solve_knapsack(items, 10.0);
  EXPECT_DOUBLE_EQ(s.total_value, 12.0);
}

class KnapsackRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackRandom, DpMatchesExhaustiveAndRespectsCapacity) {
  util::Rng rng{GetParam()};
  const std::size_t n = 2 + rng.uniform_int(std::uint64_t{11});  // 2..12 items
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item.value = rng.uniform(0.0, 100.0);
    item.weight = rng.uniform(0.1, 20.0);
  }
  const double capacity = rng.uniform(5.0, 60.0);

  const KnapsackSolution exact = solve_knapsack_exact(items, capacity);
  // Fine grid: ceil-rounding costs at most (n * capacity / grid) weight.
  const KnapsackSolution dp = solve_knapsack(items, capacity, 20000);
  const KnapsackSolution greedy = solve_knapsack_greedy(items, capacity);

  EXPECT_LE(dp.total_weight, capacity + 1e-9);
  EXPECT_LE(greedy.total_weight, capacity + 1e-9);
  // DP on a fine grid is within a hair of the continuous optimum and never
  // beats it.
  EXPECT_LE(dp.total_value, exact.total_value + 1e-9);
  EXPECT_GE(dp.total_value, 0.98 * exact.total_value);
  // Greedy never beats the optimum.
  EXPECT_LE(greedy.total_value, exact.total_value + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackRandom,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Knapsack, ExactRejectsLargeInstances) {
  std::vector<KnapsackItem> items(25, KnapsackItem{1.0, 1.0});
  EXPECT_THROW(solve_knapsack_exact(items, 10.0), std::invalid_argument);
}

// The textbook rolled Eq. (8) DP: a branch per cell and one bool per
// (item, budget), every row run and stored. Same unit rounding, same
// descending cells, same backtrack — the form the solver's row kernel and
// its zero-row screen must reproduce exactly. dp_rows counts the rows it
// runs, take_rows the rows with a set bit.
KnapsackSolution textbook_dp(const std::vector<KnapsackItem>& items,
                             double capacity, std::size_t grid) {
  KnapsackSolution s;
  s.selected.assign(items.size(), false);
  const double unit = capacity / static_cast<double>(grid);
  std::vector<std::size_t> units(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    units[i] =
        static_cast<std::size_t>(std::ceil(items[i].weight / unit - 1e-12));
  }
  std::vector<double> best(grid + 1, 0.0);
  std::vector<std::vector<bool>> take(items.size(),
                                      std::vector<bool>(grid + 1, false));
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (units[i] > grid || items[i].value <= 0.0) continue;
    ++s.dp_rows;
    bool took = false;
    for (std::size_t y = grid + 1; y-- > units[i];) {
      const double v = best[y - units[i]] + items[i].value;
      if (v > best[y]) {
        best[y] = v;
        take[i][y] = true;
        took = true;
      }
    }
    if (took) ++s.take_rows;
  }
  std::size_t y = grid;
  for (std::size_t i = items.size(); i-- > 0;) {
    if (take[i][y]) {
      s.selected[i] = true;
      s.total_value += items[i].value;
      s.total_weight += items[i].weight;
      y -= units[i];
    }
  }
  return s;
}

TEST_P(KnapsackRandom, RowKernelMatchesTheTextbookDp) {
  // Repeated values make equal-value optima (the take bit decides which
  // one is returned); zero-weight, zero-value and overweight items take
  // the kernel's edge paths; the grids straddle the 64-cell row words.
  util::Rng rng{GetParam()};
  const std::size_t n = 1 + rng.uniform_int(std::uint64_t{80});
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    const double kind = rng.uniform(0.0, 1.0);
    item.value = kind < 0.1   ? 0.0
                 : kind < 0.6 ? 5.0 * static_cast<double>(
                                          1 + rng.uniform_int(std::uint64_t{4}))
                              : rng.uniform(0.0, 40.0);
    item.weight = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(0.0, 30.0);
  }
  for (const std::size_t grid : {1, 2, 3, 63, 64, 65, 127, 128, 129, 2000}) {
    const KnapsackSolution ref = textbook_dp(items, 20.0, grid);
    const KnapsackSolution full = solve_knapsack(items, 20.0, grid);
    EXPECT_EQ(full.selected, ref.selected) << "grid " << grid;
    EXPECT_EQ(full.total_value, ref.total_value) << "grid " << grid;
    EXPECT_EQ(full.total_weight, ref.total_weight) << "grid " << grid;
  }
}

TEST_P(KnapsackRandom, ScreenedDpMatchesTheTextbookDp) {
  // Fleet-shaped windows: thousands of items drawn, interleaved, from a
  // few dozen (weight, value) classes, so most rows repeat a class whose
  // row already came out all-zero. The classes include dominance chains
  // (heavier and no more valuable), equal values at heavier weights (the
  // screen's v == prefix-max boundary), 1e17-scale values that absorb
  // small ones, and zero-weight, zero-value and overweight items.
  util::Rng rng{GetParam() * 104729};
  const double capacity = 20.0;
  std::vector<KnapsackItem> classes;
  const std::size_t base = 12 + rng.uniform_int(std::uint64_t{24});
  for (std::size_t c = 0; c < base; ++c) {
    const double kind = rng.uniform(0.0, 1.0);
    const double value =
        kind < 0.1    ? 0.0
        : kind < 0.45 ? 5.0 * static_cast<double>(
                                  1 + rng.uniform_int(std::uint64_t{4}))
        : kind < 0.55 ? 1e17 + 16.0 * static_cast<double>(
                                          rng.uniform_int(std::uint64_t{3}))
        : kind < 0.65 ? static_cast<double>(1 + rng.uniform_int(std::uint64_t{3}))
                      : rng.uniform(0.0, 40.0);
    const double w = rng.uniform(0.0, 1.0);
    const double weight = w < 0.1    ? 0.0
                          : w < 0.2  ? rng.uniform(capacity, 1e6)
                                     : rng.uniform(0.0, capacity);
    classes.push_back({value, weight});
    if (rng.bernoulli(0.4)) {
      // A dominance chain from this class: each link heavier, its value
      // equal (the boundary) or smaller.
      KnapsackItem link = classes.back();
      for (std::size_t k = 0; k < 4; ++k) {
        link.weight += rng.uniform(0.0, 2.0);
        if (rng.bernoulli(0.5)) link.value *= rng.uniform(0.5, 1.0);
        classes.push_back(link);
      }
    }
  }
  const std::size_t n = 1000 + rng.uniform_int(std::uint64_t{2000});
  std::vector<KnapsackItem> items(n);
  for (auto& item : items) {
    item = classes[rng.uniform_int(std::uint64_t{classes.size()})];
  }
  for (const std::size_t grid : {1, 63, 64, 65, 2000}) {
    const KnapsackSolution ref = textbook_dp(items, capacity, grid);
    const KnapsackSolution got = solve_knapsack(items, capacity, grid);
    EXPECT_EQ(got.selected, ref.selected) << "grid " << grid;
    EXPECT_EQ(got.total_value, ref.total_value) << "grid " << grid;
    EXPECT_EQ(got.total_weight, ref.total_weight) << "grid " << grid;
    EXPECT_EQ(got.take_rows, ref.take_rows) << "grid " << grid;
    EXPECT_LE(got.take_rows, got.dp_rows) << "grid " << grid;
    EXPECT_LE(got.dp_rows, ref.dp_rows) << "grid " << grid;
    EXPECT_LT(got.dp_rows, n) << "grid " << grid;
  }
}

// ------------------------------------------------------------- Lemma 1

/// Brute-force "true lag": for every combination of everyone's decisions
/// (start at begin or at app_arrival), count others finishing inside user
/// i's actual execution window; the maximum over combos must not exceed the
/// Lemma 1 bound.
std::size_t true_max_lag(const std::vector<UserWindow>& users, std::size_t i) {
  const std::size_t n = users.size();
  std::size_t worst = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    const double my_start = ((mask >> i) & 1U) != 0 ? users[i].app_arrival
                                                    : users[i].begin;
    const double my_end = my_start + users[i].duration;
    std::size_t lag = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double their_start = ((mask >> j) & 1U) != 0 ? users[j].app_arrival
                                                         : users[j].begin;
      const double their_end = their_start + users[j].duration;
      if (their_end >= my_start && their_end <= my_end) ++lag;
    }
    worst = std::max(worst, lag);
  }
  return worst;
}

class Lemma1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma1Property, BoundDominatesTrueLagForAllDecisions) {
  util::Rng rng{GetParam()};
  const std::size_t n = 3 + rng.uniform_int(std::uint64_t{6});  // 3..8 users
  std::vector<UserWindow> users(n);
  for (auto& u : users) {
    u.begin = rng.uniform(0.0, 500.0);
    u.app_arrival = u.begin + rng.uniform(0.0, 500.0);
    u.duration = rng.uniform(50.0, 400.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(lag_upper_bound(users, i), true_max_lag(users, i))
        << "seed=" << GetParam() << " user=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma1Property,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(Lemma1, NeverExceedsNMinusOne) {
  // The trivial bound of Sec. IV: lag <= n - 1.
  util::Rng rng{123};
  std::vector<UserWindow> users(10);
  for (auto& u : users) {
    u.begin = 0.0;
    u.app_arrival = 0.0;
    u.duration = 100.0;
  }
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_LE(lag_upper_bound(users, i), users.size() - 1);
  }
}

TEST(Lemma1, DisjointWindowsGiveZero) {
  std::vector<UserWindow> users(3);
  for (std::size_t i = 0; i < 3; ++i) {
    users[i].begin = static_cast<double>(i) * 1000.0;
    users[i].app_arrival = users[i].begin;
    users[i].duration = 10.0;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lag_upper_bound(users, i), 0u);
  }
  EXPECT_THROW((void)lag_upper_bound(users, 5), std::out_of_range);
}

// ------------------------------------------------------- offline planner

OfflinePlannerConfig planner_config(double lb) {
  OfflinePlannerConfig cfg;
  cfg.lb = lb;
  cfg.window_slots = 500;
  cfg.epsilon = 0.05;
  cfg.eta = 0.05;
  cfg.beta = 0.9;
  return cfg;
}

TEST(OfflinePlanner, EmptyInput) {
  const auto plan = OfflinePlanner{planner_config(100.0)}.plan(0, {});
  EXPECT_TRUE(plan.plans.empty());
}

TEST(OfflinePlanner, RelaxedBudgetWaitsForApps) {
  // Paper Fig. 4a: with Lb = 1000 the offline solution acts like a greedy
  // always-wait-for-co-running scheme.
  std::vector<OfflineUserInput> users(5);
  for (std::size_t i = 0; i < users.size(); ++i) {
    users[i].dev = &device::profile(device::DeviceKind::kPixel2);
    users[i].next_arrival = static_cast<sim::Slot>(50 + 30 * i);
    users[i].arrival_app = device::AppKind::kMap;
    users[i].momentum_norm = 10.0;
  }
  const auto plan = OfflinePlanner{planner_config(1000.0)}.plan(0, users);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(plan.plans[i].action, OfflineAction::kWaitForApp);
    EXPECT_EQ(plan.plans[i].start_slot, *users[i].next_arrival);
  }
}

TEST(OfflinePlanner, TightBudgetSchedulesImmediately) {
  std::vector<OfflineUserInput> users(5);
  for (auto& u : users) {
    u.dev = &device::profile(device::DeviceKind::kPixel2);
    u.next_arrival = 100;
    u.arrival_app = device::AppKind::kMap;
    u.momentum_norm = 10.0;
    u.current_gap = 5.0;
  }
  // Budget too small for anyone's gap weight.
  const auto plan = OfflinePlanner{planner_config(1e-6)}.plan(0, users);
  for (const auto& p : plan.plans) {
    EXPECT_EQ(p.action, OfflineAction::kScheduleNow);
  }
}

TEST(OfflinePlanner, NoArrivalSelectedMeansDefer) {
  std::vector<OfflineUserInput> users(2);
  users[0].dev = &device::profile(device::DeviceKind::kHikey970);
  users[1].dev = &device::profile(device::DeviceKind::kHikey970);
  // No arrivals at all: deferring saves (P_b - P_d) * d, still worth picking
  // under a relaxed budget.
  const auto plan = OfflinePlanner{planner_config(1000.0)}.plan(0, users);
  for (const auto& p : plan.plans) {
    EXPECT_EQ(p.action, OfflineAction::kDefer);
  }
}

TEST(OfflinePlanner, StalenessBudgetIsRespected) {
  util::Rng rng{77};
  std::vector<OfflineUserInput> users(12);
  for (auto& u : users) {
    u.dev = &device::profile(static_cast<device::DeviceKind>(
        rng.uniform_int(device::kDeviceKinds)));
    if (rng.bernoulli(0.7)) {
      u.next_arrival = static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{400}));
      u.arrival_app = static_cast<device::AppKind>(
          rng.uniform_int(device::kAppKinds));
    }
    u.current_gap = rng.uniform(0.0, 10.0);
    u.momentum_norm = rng.uniform(1.0, 15.0);
  }
  const double lb = 30.0;
  const auto plan = OfflinePlanner{planner_config(lb)}.plan(0, users);
  EXPECT_LE(plan.knapsack.total_weight, lb + 1e-9);
  EXPECT_EQ(plan.lag_bounds.size(), users.size());
}

/// One window's ready users at `begin`: mixed devices, arrivals in and out
/// of the window, some departing inside it, some VIP/low priorities.
std::vector<OfflineUserInput> window_users(util::Rng& rng, std::size_t n,
                                           sim::Slot begin) {
  std::vector<OfflineUserInput> users(n);
  for (auto& u : users) {
    u.dev = &device::profile(static_cast<device::DeviceKind>(
        rng.uniform_int(device::kDeviceKinds)));
    if (rng.bernoulli(0.7)) {
      u.next_arrival =
          begin + static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{500}));
      u.arrival_app = static_cast<device::AppKind>(
          rng.uniform_int(device::kAppKinds));
    }
    u.current_gap = rng.uniform(0.0, 20.0);
    u.momentum_norm = rng.uniform(1.0, 15.0);
    if (rng.bernoulli(0.3)) {
      u.leave_slot =
          begin + static_cast<sim::Slot>(rng.uniform_int(std::uint64_t{700}));
    }
    if (rng.bernoulli(0.25)) u.priority = rng.uniform(0.5, 4.0);
  }
  return users;
}

TEST(OfflinePlanner, ReusedPlannerMatchesAFreshOnePerWindow) {
  // The planner keeps scratch buffers (candidate windows, items, the
  // lag-query order, churn vetoes) from one replan to the next; none of
  // it may leak into a later window. Ready sets grow and shrink so stale
  // tail entries would surface, and a veto mask left over from a larger
  // window would misplan a smaller one.
  for (const bool churn : {false, true}) {
    OfflinePlannerConfig cfg = planner_config(40.0);
    cfg.churn_aware = churn;
    OfflinePlanner reused{cfg};
    util::Rng rng{churn ? 17u : 5u};
    sim::Slot begin = 0;
    std::size_t mixed = 0;  // windows that select some users but not all
    for (const std::size_t n : {30, 120, 7, 0, 64, 200, 3}) {
      const std::vector<OfflineUserInput> users = window_users(rng, n, begin);
      const OfflineWindowPlan got = reused.plan(begin, users);
      const OfflineWindowPlan want = OfflinePlanner{cfg}.plan(begin, users);
      ASSERT_EQ(got.plans.size(), n);
      ASSERT_EQ(want.plans.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got.plans[i].action, want.plans[i].action)
            << "churn " << churn << ", window " << begin << ", user " << i;
        EXPECT_EQ(got.plans[i].start_slot, want.plans[i].start_slot);
      }
      EXPECT_EQ(got.knapsack.selected, want.knapsack.selected);
      EXPECT_EQ(got.knapsack.total_value, want.knapsack.total_value);
      EXPECT_EQ(got.knapsack.total_weight, want.knapsack.total_weight);
      EXPECT_EQ(got.lag_bounds, want.lag_bounds);
      const auto& sel = got.knapsack.selected;
      if (std::find(sel.begin(), sel.end(), true) != sel.end() &&
          std::find(sel.begin(), sel.end(), false) != sel.end()) {
        ++mixed;
      }
      begin += 500;
    }
    // The budget binds: plans are real selections, not all-or-nothing.
    EXPECT_GE(mixed, 4u) << "churn " << churn;
  }
}

class LagBoundIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LagBoundIndexProperty, IndexMatchesNaiveScanExactly) {
  // The counting index must return the identical integer as the O(n) scan
  // for every user — including duplicated completion times (grouping),
  // interval endpoints (closed-interval edges), and overlapping candidate
  // intervals (the inclusion-exclusion path).
  util::Rng rng{GetParam()};
  std::vector<UserWindow> users(rng.uniform_int(std::uint64_t{60}) + 2);
  for (auto& u : users) {
    u.begin = 1000.0;  // the planner gives every user the same window start
    // Few distinct durations (device/app profiles), arbitrary arrivals.
    u.duration = 50.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{5}));
    u.app_arrival =
        u.begin + static_cast<double>(rng.uniform_int(std::uint64_t{500}));
  }
  const LagBoundIndex index{users};
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(index.bound(i), lag_upper_bound(users, i)) << "user " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LagBoundIndexProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST_P(LagBoundIndexProperty, GeneralWindowsMatchNaiveScanExactly) {
  // Scattered begins (and arrivals that may precede them) disable the
  // shared-begin fast path; the general group-range path must return the
  // identical integers too.
  util::Rng rng{GetParam() * 7919};
  std::vector<UserWindow> users(rng.uniform_int(std::uint64_t{40}) + 2);
  for (auto& u : users) {
    u.begin = static_cast<double>(rng.uniform_int(std::uint64_t{300}));
    u.duration = 25.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{6}));
    u.app_arrival =
        static_cast<double>(rng.uniform_int(std::uint64_t{600}));  // may be < begin
  }
  const LagBoundIndex index{users};
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(index.bound(i), lag_upper_bound(users, i)) << "user " << i;
  }
}

}  // namespace
}  // namespace fedco::core
