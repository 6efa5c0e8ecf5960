#include "core/knapsack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace fedco::core {

namespace {

void validate_items(const std::vector<KnapsackItem>& items) {
  for (const auto& item : items) {
    if (item.weight < 0.0 || item.value < 0.0) {
      throw std::invalid_argument{"solve_knapsack: negative value/weight"};
    }
  }
}

/// Discretize: weight w -> ceil(w / capacity * grid) units, so any DP
/// solution respects the true (continuous) capacity.
std::vector<std::size_t> weight_units(const std::vector<KnapsackItem>& items,
                                      double capacity, std::size_t grid) {
  const double unit = capacity / static_cast<double>(grid);
  std::vector<std::size_t> units(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    units[i] =
        static_cast<std::size_t>(std::ceil(items[i].weight / unit - 1e-12));
  }
  return units;
}

/// 64-bit words per take/skip row: bit y of row i is set when item i is
/// taken at budget y. All rows of one DP live in one flat allocation.
std::size_t row_words(std::size_t grid) { return grid / 64 + 1; }

bool taken(const std::vector<std::uint64_t>& rows, std::size_t words,
           std::size_t i, std::size_t y) {
  return ((rows[i * words + y / 64] >> (y % 64)) & 1U) != 0;
}

/// One Eq. (8) DP row update for item (units_i, value_i), rolled in place
/// over `best`; writes every word of `row` (the take bits, zero elsewhere).
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

/// Standard backtrack over the per-item choice rows, accumulating the
/// selected set and totals in decreasing item order. `rows` holds item
/// i's row at row index i; `budget` is the starting grid cell.
void backtrack_rows(const std::vector<KnapsackItem>& items,
                    const std::vector<std::size_t>& units,
                    const std::vector<std::uint64_t>& rows, std::size_t words,
                    std::size_t begin, std::size_t end, std::size_t budget,
                    KnapsackSolution& solution) {
  std::size_t y = budget;
  for (std::size_t i = end; i-- > begin;) {
    if (taken(rows, words, i, y)) {
      solution.selected[i] = true;
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
      y -= units[i];
    }
  }
}

}  // namespace

KnapsackSolution solve_knapsack(const std::vector<KnapsackItem>& items,
                                double capacity, std::size_t grid) {
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) return solution;
  validate_items(items);
  const std::vector<std::size_t> units = weight_units(items, capacity, grid);

  // S_i(y): best value using items < i with weight budget y (Eq. 8), rolled
  // into one row; `choice` keeps the take/skip bit for backtracking.
  const std::size_t words = row_words(grid);
  std::vector<double> best(grid + 1, 0.0);
  std::vector<std::uint64_t> choice(items.size() * words);
  for (std::size_t i = 0; i < items.size(); ++i) {
    dp_item_row(best, &choice[i * words], units[i], items[i].value, grid);
  }
  backtrack_rows(items, units, choice, words, 0, items.size(), grid,
                 solution);
  return solution;
}

KnapsackSolution KnapsackSolver::solve(const std::vector<KnapsackItem>& items,
                                       double capacity, std::size_t grid) {
  last_prefix_reused_ = 0;
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) {
    // Degenerate calls cache nothing reusable.
    items_.clear();
    checkpoints_.clear();
    choice_.clear();
    capacity_ = 0.0;
    grid_ = 0;
    return solution;
  }
  validate_items(items);

  // Longest bitwise-equal item prefix shared with the previous call (only
  // meaningful under the same capacity/grid discretization).
  std::size_t prefix = 0;
  if (capacity == capacity_ && grid == grid_) {
    const std::size_t limit = std::min(items.size(), items_.size());
    while (prefix < limit && items[prefix].value == items_[prefix].value &&
           items[prefix].weight == items_[prefix].weight) {
      ++prefix;
    }
  }
  // Resume from the last checkpointed DP row inside the prefix: the first
  // `start` items' rows (and their choice bits) are exactly what the full
  // DP would recompute, so they are reused verbatim.
  const std::size_t checkpoint =
      std::min(prefix / kCheckpointStride, checkpoints_.size());
  const std::size_t start = checkpoint * kCheckpointStride;
  last_prefix_reused_ = start;

  const std::vector<std::size_t> units = weight_units(items, capacity, grid);
  std::vector<double> best = checkpoint == 0
                                 ? std::vector<double>(grid + 1, 0.0)
                                 : checkpoints_[checkpoint - 1];
  checkpoints_.resize(checkpoint);
  const std::size_t words = row_words(grid);
  choice_.resize(items.size() * words);
  for (std::size_t i = start; i < items.size(); ++i) {
    dp_item_row(best, &choice_[i * words], units[i], items[i].value, grid);
    if ((i + 1) % kCheckpointStride == 0) checkpoints_.push_back(best);
  }
  items_ = items;
  capacity_ = capacity;
  grid_ = grid;
  backtrack_rows(items, units, choice_, words, 0, items.size(), grid,
                 solution);
  return solution;
}

namespace {

/// One contiguous item range solved as a grouped bounded knapsack: equal
/// (units, value) items collapse into classes, multiplicities binary-split
/// into pseudo-items, the Eq. (8) DP runs over the pseudo-items, and any
/// budget backtracks to per-item selections (class members chosen in
/// ascending original index — the fixed, worker-count-independent rule).
class GroupedRangeDp {
 public:
  GroupedRangeDp(const std::vector<KnapsackItem>& items,
                 const std::vector<std::size_t>& units, std::size_t begin,
                 std::size_t end, std::size_t grid)
      : grid_(grid) {
    members_.resize(end - begin);
    std::iota(members_.begin(), members_.end(), begin);
    std::sort(members_.begin(), members_.end(),
              [&](std::size_t a, std::size_t b) {
                if (units[a] != units[b]) return units[a] < units[b];
                if (items[a].value != items[b].value) {
                  return items[a].value < items[b].value;
                }
                return a < b;  // ascending within a class — determinism
              });
    for (std::size_t k = 0; k < members_.size();) {
      std::size_t run = k + 1;
      while (run < members_.size() &&
             units[members_[run]] == units[members_[k]] &&
             items[members_[run]].value == items[members_[k]].value) {
        ++run;
      }
      class_begin_.push_back(k);
      // Binary split: pieces of 1, 2, 4, ... plus a remainder reach every
      // count 0..m. Oversized pieces (units beyond the grid) are emitted
      // anyway — the DP skips them, exactly as those counts are
      // infeasible within the budget.
      std::size_t left = run - k;
      std::size_t piece = 1;
      while (left > 0) {
        const std::size_t take = std::min(piece, left);
        pseudos_.push_back({units[members_[k]] * take,
                            items[members_[k]].value *
                                static_cast<double>(take),
                            static_cast<std::uint32_t>(class_begin_.size() - 1),
                            static_cast<std::uint32_t>(take)});
        left -= take;
        piece <<= 1;
      }
      k = run;
    }
    class_begin_.push_back(members_.size());
  }

  /// Run the DP (separate from construction so shard tasks own the heavy
  /// part end to end).
  void solve() {
    const std::size_t words = row_words(grid_);
    best_.assign(grid_ + 1, 0.0);
    choice_.resize(pseudos_.size() * words);
    for (std::size_t p = 0; p < pseudos_.size(); ++p) {
      dp_item_row(best_, &choice_[p * words], pseudos_[p].units,
                  pseudos_[p].value, grid_);
    }
  }

  [[nodiscard]] const std::vector<double>& best() const noexcept {
    return best_;
  }

  /// Mark the range's selections for `budget` grid cells in `selected`.
  void backtrack(std::size_t budget, std::vector<bool>& selected) const {
    std::vector<std::size_t> counts(class_begin_.size() - 1, 0);
    const std::size_t words = row_words(grid_);
    std::size_t y = budget;
    for (std::size_t p = pseudos_.size(); p-- > 0;) {
      if (taken(choice_, words, p, y)) {
        counts[pseudos_[p].klass] += pseudos_[p].count;
        y -= pseudos_[p].units;
      }
    }
    for (std::size_t c = 0; c + 1 < class_begin_.size(); ++c) {
      for (std::size_t j = class_begin_[c]; j < class_begin_[c] + counts[c];
           ++j) {
        selected[members_[j]] = true;
      }
    }
  }

 private:
  struct Pseudo {
    std::size_t units;
    double value;
    std::uint32_t klass;
    std::uint32_t count;
  };

  std::size_t grid_;
  std::vector<std::size_t> members_;     ///< range indices, class-sorted
  std::vector<std::size_t> class_begin_; ///< class c = members_[begin..begin')
  std::vector<Pseudo> pseudos_;
  std::vector<double> best_;
  std::vector<std::uint64_t> choice_;  ///< take/skip rows, per pseudo-item
};

/// Selected totals accumulated in ascending item order (the grouped
/// solvers' fixed accumulation rule).
void accumulate_totals(const std::vector<KnapsackItem>& items,
                       KnapsackSolution& solution) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (solution.selected[i]) {
      solution.total_value += items[i].value;
      solution.total_weight += items[i].weight;
    }
  }
}

}  // namespace

KnapsackSolution solve_knapsack_grouped(const std::vector<KnapsackItem>& items,
                                        double capacity, std::size_t grid) {
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) return solution;
  validate_items(items);
  const std::vector<std::size_t> units = weight_units(items, capacity, grid);
  GroupedRangeDp dp{items, units, 0, items.size(), grid};
  dp.solve();
  dp.backtrack(grid, solution.selected);
  accumulate_totals(items, solution);
  return solution;
}

KnapsackSolution solve_knapsack_parallel(
    const std::vector<KnapsackItem>& items, double capacity, std::size_t grid,
    util::ThreadPool& pool, std::size_t shards) {
  KnapsackSolution solution;
  solution.selected.assign(items.size(), false);
  if (items.empty() || capacity <= 0.0 || grid == 0) return solution;
  validate_items(items);

  // Shard boundaries are a pure function of the input sizes — never of the
  // pool's worker count — so the fold below (and its tie-breaks) replays
  // identically for any FEDCO_JOBS. Sharding fights grouping (each shard
  // re-discovers its own classes), so blocks are large and capped at 8:
  // below ~2 blocks the grouped serial core wins outright.
  const std::size_t n = items.size();
  std::size_t count = shards != 0 ? shards
                                  : std::clamp<std::size_t>(n / 8192, 1, 8);
  count = std::min(count, n);
  if (count <= 1) return solve_knapsack_grouped(items, capacity, grid);

  const std::vector<std::size_t> units = weight_units(items, capacity, grid);
  const std::size_t base = n / count;
  const std::size_t extra = n % count;
  std::vector<std::size_t> begin(count + 1, 0);
  for (std::size_t s = 0; s < count; ++s) {
    begin[s + 1] = begin[s] + base + (s < extra ? 1 : 0);
  }

  // Stage 1: each shard's grouped DP over the full budget axis, as
  // independent pool tasks writing disjoint slots.
  std::vector<std::unique_ptr<GroupedRangeDp>> shard_dp(count);
  pool.run_indexed(count, [&](std::size_t s) {
    shard_dp[s] = std::make_unique<GroupedRangeDp>(items, units, begin[s],
                                                   begin[s + 1], grid);
    shard_dp[s]->solve();
  });

  // Stage 2: left fold of the shard optima with a max-plus merge —
  // combined[y] = max over y2 of combined[y - y2] + shard_best[s][y2] —
  // keeping the argmax per cell for the backtrack. Ties keep the smallest
  // y2 (fixed rule, worker-count independent); cells are independent, so
  // each merge is itself sharded across the pool.
  std::vector<double> combined = shard_dp[0]->best();
  std::vector<std::vector<std::uint32_t>> pick(count);
  const std::size_t merge_chunks =
      std::min<std::size_t>(grid + 1, std::max<std::size_t>(
                                          pool.thread_count() * 2, 1));
  for (std::size_t s = 1; s < count; ++s) {
    pick[s].assign(grid + 1, 0);
    std::vector<double> merged(grid + 1, 0.0);
    const std::vector<double>& right = shard_dp[s]->best();
    pool.run_indexed(merge_chunks, [&](std::size_t chunk) {
      const std::size_t lo = chunk * (grid + 1) / merge_chunks;
      const std::size_t hi = (chunk + 1) * (grid + 1) / merge_chunks;
      for (std::size_t y = lo; y < hi; ++y) {
        double best_v = combined[y] + right[0];
        std::uint32_t best_y2 = 0;
        for (std::size_t y2 = 1; y2 <= y; ++y2) {
          const double v = combined[y - y2] + right[y2];
          if (v > best_v) {
            best_v = v;
            best_y2 = static_cast<std::uint32_t>(y2);
          }
        }
        merged[y] = best_v;
        pick[s][y] = best_y2;
      }
    });
    combined = std::move(merged);
  }

  // Backtrack: peel each shard's budget share off the fold (last shard
  // first), then backtrack each shard's grouped DP at its share.
  std::size_t y = grid;
  for (std::size_t s = count; s-- > 1;) {
    const std::size_t share = pick[s][y];
    shard_dp[s]->backtrack(share, solution.selected);
    y -= share;
  }
  shard_dp[0]->backtrack(y, solution.selected);
  accumulate_totals(items, solution);
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
