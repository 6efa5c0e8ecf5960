#include "core/online_scheduler.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace fedco::core {

namespace {

constexpr double kMaxCachedLag = 1 << 20;  // ~8 MiB ceiling, far above any fleet

/// Order-preserving map of the non-NaN doubles onto unsigned keys (-inf
/// lowest, +inf highest; -0 and +0 adjacent), and its inverse — the
/// coordinate the idle-floor bisection halves.
std::uint64_t ordered_key(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

double from_ordered_key(std::uint64_t key) noexcept {
  return std::bit_cast<double>((key >> 63) != 0
                                   ? key & ~(std::uint64_t{1} << 63)
                                   : ~key);
}

}  // namespace

double OnlineScheduler::amplification(double lag) const {
  const auto index = static_cast<std::size_t>(lag);
  if (lag >= 0.0 && lag < kMaxCachedLag && static_cast<double>(index) == lag) {
    if (index >= amp_cache_.size()) {
      // Let push_back grow geometrically: an exact-fit reserve here would
      // reallocate (and copy) the whole memo every time the observed lag
      // creeps one past the cached maximum — O(L^2) bytes over a run
      // whose lag reaches L, which at 100k users dominated the decide
      // path. The cached values are unchanged either way.
      for (std::size_t l = amp_cache_.size(); l <= index; ++l) {
        amp_cache_.push_back(
            fl::momentum_amplification(config_.beta, static_cast<double>(l)));
      }
    }
    return amp_cache_[index];
  }
  return fl::momentum_amplification(config_.beta, lag);
}

bool OnlineScheduler::amplification_monotone_through(double hi) const {
  if (!(hi >= 0.0 && hi < kMaxCachedLag)) return false;
  const auto index = static_cast<std::size_t>(hi);
  // Extend the checked prefix with the values amplification() returns for
  // these lags (the memo stores the same call's result), without storing
  // them: the screen's headroom reaches lags no decide ever reads.
  while (!amp_dropped_ && amp_checked_ <= index) {
    const double value = fl::momentum_amplification(
        config_.beta, static_cast<double>(amp_checked_));
    if (amp_checked_ > 0 && !(value >= amp_checked_last_)) {
      amp_dropped_ = true;
    } else {
      amp_checked_last_ = value;
      ++amp_checked_;
    }
  }
  return index < amp_checked_;
}

double OnlineScheduler::idle_floor(double p_schedule, double p_idle,
                                   double lag, double momentum_norm, double q,
                                   double h) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto schedules = [&](double gap) {
    return evaluate(p_schedule, p_idle, gap, lag, momentum_norm, q, h)
               .decision == device::Decision::kSchedule;
  };
  if (!(h >= 0.0)) return -kInf;
  if (h == 0.0) return schedules(0.0) ? -kInf : kInf;
  // Invariant: schedules(lo) is false and schedules(hi) is true. The keys
  // strictly between the two infinities' are exactly the finite doubles.
  std::uint64_t lo = ordered_key(-kInf);
  std::uint64_t hi = ordered_key(kInf);
  if (schedules(-kInf)) return -kInf;
  if (!schedules(kInf)) return kInf;
  // Narrow the bracket first by galloping away from the real-arithmetic
  // threshold, which the floor sits within a few ulps of: ~6 evaluations
  // instead of ~64. Every bracket move is decided by the predicate, so a
  // poor guess only costs steps.
  const OnlineDecisionOutcome at_zero =
      evaluate(p_schedule, p_idle, 0.0, lag, momentum_norm, q, h);
  const double guess = (at_zero.cost_schedule - at_zero.cost_idle) / h;
  if (std::isfinite(guess)) {
    const bool above = schedules(guess);
    (above ? hi : lo) = ordered_key(guess);
    for (std::uint64_t step = 1; step != 0 && step < hi - lo; step <<= 1) {
      const std::uint64_t probe = above ? hi - step : lo + step;
      if (schedules(from_ordered_key(probe)) != above) {
        (above ? lo : hi) = probe;
        break;
      }
      (above ? hi : lo) = probe;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (schedules(from_ordered_key(mid))) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return from_ordered_key(hi);
}

}  // namespace fedco::core
