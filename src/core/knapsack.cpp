#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace fedco::core {

namespace {

void validate_items(const std::vector<KnapsackItem>& items) {
  for (const auto& item : items) {
    if (!std::isfinite(item.value)) {
      throw std::invalid_argument{"solve_knapsack: non-finite value"};
    }
    if (!std::isfinite(item.weight)) {
      throw std::invalid_argument{"solve_knapsack: non-finite weight"};
    }
    if (item.weight < 0.0 || item.value < 0.0) {
      throw std::invalid_argument{"solve_knapsack: negative value/weight"};
    }
  }
}

/// Discretize: weight w -> ceil(w / capacity * grid) units, so any DP
/// solution respects the true (continuous) capacity. A unit count above
/// `grid` (including one whose quotient overflows to inf) maps to
/// grid + 1 before the cast: such an item is overweight either way.
std::vector<std::size_t> weight_units(const std::vector<KnapsackItem>& items,
                                      double capacity, std::size_t grid) {
  const double unit = capacity / static_cast<double>(grid);
  const auto limit = static_cast<double>(grid);
  std::vector<std::size_t> units(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double q = std::ceil(items[i].weight / unit - 1e-12);
    units[i] = q <= limit ? static_cast<std::size_t>(q) : grid + 1;
  }
  return units;
}

/// 64-bit words per take/skip row: bit y of row i is set when item i is
/// taken at budget y. Only rows with a set bit are stored.
std::size_t row_words(std::size_t grid) { return grid / 64 + 1; }

/// One Eq. (8) DP row update for item (units_i, value_i), rolled in place
/// over `best`; writes every word of `row` (the take bits, zero elsewhere).
/// O(grid) per call, so a DP that runs every row is O(n * grid).
///
/// Each cell is best[y] = max(best[y], best[y - units_i] + value_i) with
/// its take bit, computed without a data-dependent branch (a select and a
/// compare), and each row word is stored once. Cells run downwards, so
/// every best[y - units_i] read is still the previous item's value, as in
/// the textbook rolled DP, and the results are bit-identical to its
/// `if (take > best[y])` form (`take > cur ? take : cur` keeps cur on a
/// NaN exactly as the branch does). The point is steady replan time: the
/// branchy loop and a two-lane SSE2 version of this one both swung up to
/// 2x between runs on a shared host, this scalar form about half as much
/// (docs/performance.md §11).
void dp_item_row(std::vector<double>& best, std::uint64_t* row,
                 std::size_t units_i, double value_i, std::size_t grid) {
  const std::size_t words = row_words(grid);
  if (units_i > grid || value_i <= 0.0) {  // cannot/no-gain
    std::fill_n(row, words, std::uint64_t{0});
    return;
  }
  double* const b = best.data();
  const std::size_t first = units_i / 64;  // lowest word with a cell
  std::fill_n(row, first, std::uint64_t{0});
  for (std::size_t w = words; w-- > first;) {
    const std::size_t lo = std::max(units_i, w * 64);
    std::uint64_t bits = 0;
    for (std::size_t y = std::min(grid, w * 64 + 63) + 1; y-- > lo;) {
      const double take = b[y - units_i] + value_i;
      const double cur = b[y];
      const bool t = take > cur;
      b[y] = t ? take : cur;
      bits |= static_cast<std::uint64_t>(t) << (y % 64);
    }
    row[w] = bits;
  }
}

/// The items whose DP row came out all-zero since `best` last changed, as
/// a Fenwick prefix max of their values over units: dominating(u) is the
/// largest v0 of a recorded (u0, v0) with u0 <= u. An item (u, v) with
/// v <= dominating(u) has an all-zero row too (docs/algorithms.md §1):
/// `best` is non-decreasing in y and IEEE addition is monotone, so
/// best[y - u] + v <= best[y - u0] + v0 <= best[y] for every y >= u.
class ZeroRowScreen {
 public:
  explicit ZeroRowScreen(std::size_t grid) : tree_(grid + 2, kNone) {}

  /// Largest recorded v0 with u0 <= units (-inf when none).
  [[nodiscard]] double dominating(std::size_t units) const {
    double m = kNone;
    for (std::size_t p = units + 1; p > 0; p &= p - 1) m = std::max(m, tree_[p]);
    return m;
  }

  /// Records an item (units, value) whose row set no take bit.
  void record(std::size_t units, double value) {
    for (std::size_t p = units + 1; p < tree_.size(); p += p & (~p + 1)) {
      if (value <= tree_[p]) continue;
      if (tree_[p] == kNone) touched_.push_back(p);
      tree_[p] = value;
    }
  }

  /// Forgets every record: a row set a bit, so `best` changed.
  void reset() {
    for (const std::size_t p : touched_) tree_[p] = kNone;
    touched_.clear();
  }

 private:
  static constexpr double kNone = -std::numeric_limits<double>::infinity();
  std::vector<double> tree_;  ///< 1-based; slot units + 1
  std::vector<std::size_t> touched_;
};

}  // namespace

KnapsackSolution solve_knapsack(const std::vector<KnapsackItem>& items,
                                double capacity, std::size_t grid) {
  if (!std::isfinite(capacity)) {
    throw std::invalid_argument{"solve_knapsack: non-finite capacity"};
  }
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) return solution;
  validate_items(items);
  const std::vector<std::size_t> units = weight_units(items, capacity, grid);

  // S_i(y): best value using items < i with weight budget y (Eq. 8), rolled
  // into one row. A row that sets no take bit leaves `best` as it was, so
  // only rows that take keep their bits (`take_bits`, one run of `words`
  // per entry of `take_items`); rows the screen proves all-zero never run.
  const std::size_t words = row_words(grid);
  std::vector<double> best(grid + 1, 0.0);
  std::vector<std::uint64_t> take_bits;
  std::vector<std::size_t> take_items;
  ZeroRowScreen screen{grid};
  for (std::size_t i = 0; i < items.size(); ++i) {
    const double value = items[i].value;
    if (units[i] > grid || value <= 0.0 ||
        value <= screen.dominating(units[i])) {
      continue;
    }
    const std::size_t at = take_bits.size();
    take_bits.resize(at + words);
    dp_item_row(best, &take_bits[at], units[i], value, grid);
    ++solution.dp_rows;
    if (std::all_of(take_bits.begin() + static_cast<std::ptrdiff_t>(at),
                    take_bits.end(), [](std::uint64_t w) { return w == 0; })) {
      take_bits.resize(at);
      screen.record(units[i], value);
    } else {
      take_items.push_back(i);
      screen.reset();
    }
  }
  solution.take_rows = take_items.size();
  // Backtrack from the full budget in decreasing item order; every row
  // not stored is all-zero, so skipping it is what the full table does.
  std::size_t y = grid;
  for (std::size_t k = take_items.size(); k-- > 0;) {
    const std::size_t i = take_items[k];
    if (((take_bits[k * words + y / 64] >> (y % 64)) & 1U) != 0) {
      solution.selected[i] = true;
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
      y -= units[i];
    }
  }
  return solution;
}

KnapsackSolution solve_knapsack_exact(const std::vector<KnapsackItem>& items,
                                      double capacity) {
  if (items.size() > 24) {
    throw std::invalid_argument{"solve_knapsack_exact: too many items"};
  }
  KnapsackSolution best;
  best.selected.assign(items.size(), false);
  const std::size_t combos = std::size_t{1} << items.size();
  for (std::size_t mask = 0; mask < combos; ++mask) {
    double value = 0.0;
    double weight = 0.0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if ((mask >> i) & 1U) {
        value += items[i].value;
        weight += items[i].weight;
      }
    }
    if (weight <= capacity && value > best.total_value) {
      best.total_value = value;
      best.total_weight = weight;
      for (std::size_t i = 0; i < items.size(); ++i) {
        best.selected[i] = ((mask >> i) & 1U) != 0;
      }
    }
  }
  return best;
}

KnapsackSolution solve_knapsack_greedy(const std::vector<KnapsackItem>& items,
                                       double capacity) {
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&items](std::size_t a, std::size_t b) {
    const double ra = items[a].weight <= 0.0
                          ? items[a].value * 1e9
                          : items[a].value / items[a].weight;
    const double rb = items[b].weight <= 0.0
                          ? items[b].value * 1e9
                          : items[b].value / items[b].weight;
    return ra > rb;
  });
  double used = 0.0;
  for (const std::size_t i : order) {
    if (items[i].value <= 0.0) continue;
    if (used + items[i].weight <= capacity) {
      solution.selected[i] = true;
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
      used += items[i].weight;
    }
  }
  return solution;
}

namespace {
/// Does `point` fall in [lo, lo + len]?
bool in_interval(double point, double lo, double len) noexcept {
  return point >= lo && point <= lo + len;
}
}  // namespace

LagBoundIndex::LagBoundIndex(const std::vector<UserWindow>& users)
    : users_(&users) {
  // Group users by their separate-completion time. The grouping key is the
  // exact double the naive scan computes, so membership tests below see
  // identical values.
  std::vector<std::pair<double, double>> ends;
  ends.reserve(users.size());
  for (const UserWindow& u : users) {
    ends.emplace_back(u.begin + u.duration, u.app_arrival + u.duration);
  }
  std::sort(ends.begin(), ends.end());
  for (std::size_t k = 0; k < ends.size();) {
    Group group;
    group.end_separate = ends[k].first;
    while (k < ends.size() && ends[k].first == group.end_separate) {
      group.end_coruns.push_back(ends[k].second);
      ++k;
    }
    // Sorted already within the group by the pair sort.
    groups_.push_back(std::move(group));
  }
  prefix_sizes_.reserve(groups_.size() + 1);
  prefix_sizes_.push_back(0);
  for (const Group& g : groups_) {
    prefix_sizes_.push_back(prefix_sizes_.back() + g.end_coruns.size());
  }
  all_coruns_.reserve(users.size());
  for (const auto& [separate, corun] : ends) all_coruns_.push_back(corun);
  std::sort(all_coruns_.begin(), all_coruns_.end());

  // Shared-begin fast path (see the header): applicable when every user
  // starts at the same instant and no arrival precedes it — exactly the
  // window planner's shape.
  shared_begin_ = !users.empty();
  for (const UserWindow& u : users) {
    if (u.begin != users.front().begin || u.app_arrival < u.begin ||
        u.duration < 0.0) {
      shared_begin_ = false;
      break;
    }
  }
  if (!shared_begin_) return;
  begin_ = users.front().begin;
  durations_.reserve(users.size());
  for (const UserWindow& u : users) durations_.push_back(u.duration);
  std::sort(durations_.begin(), durations_.end());
  durations_.erase(std::unique(durations_.begin(), durations_.end()),
                   durations_.end());
  duration_prefix_.resize(durations_.size());
  prefix_coruns_.resize(durations_.size());
  std::vector<double> merged;
  std::size_t g = 0;
  for (std::size_t di = 0; di < durations_.size(); ++di) {
    // The same doubles the groups were keyed by: group end = begin + d.
    const double end = begin_ + durations_[di];
    while (g < groups_.size() && groups_[g].end_separate <= end) {
      const auto old = static_cast<std::ptrdiff_t>(merged.size());
      merged.insert(merged.end(), groups_[g].end_coruns.begin(),
                    groups_[g].end_coruns.end());
      std::inplace_merge(merged.begin(), merged.begin() + old, merged.end());
      ++g;
    }
    duration_prefix_[di] = g;
    prefix_coruns_[di] = merged;
  }
}

namespace {
/// Elements of sorted `values` inside the closed interval [lo, hi].
std::size_t count_in(const std::vector<double>& values, double lo,
                     double hi) noexcept {
  const auto first = std::lower_bound(values.begin(), values.end(), lo);
  const auto last = std::upper_bound(values.begin(), values.end(), hi);
  return first < last ? static_cast<std::size_t>(last - first) : 0;
}
}  // namespace

std::size_t LagBoundIndex::bound(std::size_t i) const {
  if (i >= users_->size()) {
    throw std::out_of_range{"LagBoundIndex::bound: bad user index"};
  }
  const UserWindow& me = (*users_)[i];
  const double lo1 = me.begin;
  const double hi1 = me.begin + me.duration;
  const double lo2 = me.app_arrival;
  const double hi2 = me.app_arrival + me.duration;
  const double ilo = std::max(lo1, lo2);
  const double ihi = std::min(hi1, hi2);

  // A group's members count wholesale when its separate completion hits
  // one of i's intervals ("hit" groups); otherwise members count when
  // their co-run completion lands in the interval union. Writing the
  // total as
  //   sum_hit size_g + sum_all f(g) - sum_hit f(g)
  // (f = the inclusion-exclusion co-run count) lets the all-groups term
  // come from one globally sorted co-run array and the hit terms from
  // contiguous group ranges (groups are sorted by end_separate) — every
  // term is an exact integer, so this is the same count as the per-group
  // scan, bit for bit.
  const auto corun_hits = [&](const std::vector<double>& sorted) {
    std::size_t hits = count_in(sorted, lo1, hi1) + count_in(sorted, lo2, hi2);
    if (ilo <= ihi) hits -= count_in(sorted, ilo, ihi);
    return hits;
  };
  const auto range_of = [&](double lo, double hi) {
    const auto first = std::lower_bound(
        groups_.begin(), groups_.end(), lo,
        [](const Group& g, double v) { return g.end_separate < v; });
    const auto last = std::upper_bound(
        groups_.begin(), groups_.end(), hi,
        [](double v, const Group& g) { return v < g.end_separate; });
    const auto a = static_cast<std::size_t>(first - groups_.begin());
    const auto b = static_cast<std::size_t>(last - groups_.begin());
    return std::pair{a, std::max(a, b)};
  };

  if (shared_begin_) {
    // Fast path (see the header): the I1 hit set is the duration's group
    // prefix, and — because every completion lies at or after begin — the
    // per-group inclusion-exclusion over the prefix telescopes to the
    // interval-union count over the prefix's merged co-run array. Only
    // the rare groups hit through I2 beyond the prefix are visited
    // individually. Every term is the same exact integer as the general
    // path below.
    const auto dit =
        std::lower_bound(durations_.begin(), durations_.end(), me.duration);
    const auto di = static_cast<std::size_t>(dit - durations_.begin());
    const std::size_t gp = duration_prefix_[di];
    const std::vector<double>& merged = prefix_coruns_[di];
    const auto union_count = [&](const std::vector<double>& sorted) {
      // lo1 <= lo2, so the closed-interval union is one range when the
      // intervals meet and two otherwise.
      return lo2 <= hi1 ? count_in(sorted, lo1, hi2)
                        : count_in(sorted, lo1, hi1) +
                              count_in(sorted, lo2, hi2);
    };
    std::size_t count =
        union_count(all_coruns_) + prefix_sizes_[gp] - union_count(merged);
    auto [ga, gb] = range_of(lo2, hi2);
    for (std::size_t g = std::max(ga, gp); g < gb; ++g) {
      count += groups_[g].end_coruns.size() - union_count(groups_[g].end_coruns);
    }
    return count - 1;
  }

  auto [a1, b1] = range_of(lo1, hi1);
  auto [a2, b2] = range_of(lo2, hi2);
  if (a2 < a1) {
    std::swap(a1, a2);
    std::swap(b1, b2);
  }
  std::size_t count = corun_hits(all_coruns_);
  const auto add_hit_range = [&](std::size_t a, std::size_t b) {
    count += prefix_sizes_[b] - prefix_sizes_[a];
    for (std::size_t g = a; g < b; ++g) count -= corun_hits(groups_[g].end_coruns);
  };
  if (b1 >= a2) {
    add_hit_range(a1, std::max(b1, b2));  // overlapping ranges merge
  } else {
    add_hit_range(a1, b1);
    add_hit_range(a2, b2);
  }
  // The naive scan skips j == i; user i always satisfies the predicate
  // (its own separate completion t_i + d_i lies in [t_i, t_i + d_i]).
  return count - 1;
}

std::size_t lag_upper_bound(const std::vector<UserWindow>& users, std::size_t i) {
  if (i >= users.size()) {
    throw std::out_of_range{"lag_upper_bound: bad user index"};
  }
  const UserWindow& me = users[i];
  std::size_t bound = 0;
  for (std::size_t j = 0; j < users.size(); ++j) {
    if (j == i) continue;
    const UserWindow& other = users[j];
    // Possible completion times of j (Lemma 1 proof: either decision).
    const double end_separate = other.begin + other.duration;
    const double end_corun = other.app_arrival + other.duration;
    const bool hits =
        in_interval(end_separate, me.begin, me.duration) ||
        in_interval(end_separate, me.app_arrival, me.duration) ||
        in_interval(end_corun, me.begin, me.duration) ||
        in_interval(end_corun, me.app_arrival, me.duration);
    if (hits) ++bound;
  }
  return bound;
}

}  // namespace fedco::core
