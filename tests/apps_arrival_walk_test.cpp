// Parity of the envelope-gated legacy arrival walk.
//
// apps::walk_legacy_arrivals draws one uniform per slot but evaluates the
// diurnal rate (fmod + cos) only when the draw falls under the rate's
// envelope, DiurnalArrivals::max_probability(). The reference below is the
// ungated walk it replaced, kept here verbatim: one
// rng.bernoulli(probability_at(t)) per slot and a random_app draw on each
// hit. The gated walk must produce the same (slot, app) list and leave the
// util::Rng in the same state, over a grid that covers every swing edge,
// rates from zero to one (with the [0, 1] clamp active at the peak for
// p = 0.6), fractional peak hours, coarse slots, horizons that cross the
// 86 400 s fmod wrap, and the non-diurnal path. See docs/algorithms.md,
// "Envelope-gated legacy walk", for why the gate is exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/arrival.hpp"
#include "apps/arrival_stream.hpp"
#include "util/rng.hpp"

namespace fedco::apps {
namespace {

using Events = std::vector<ScriptedArrivals::Event>;

/// The ungated legacy walk: the rate is evaluated on every slot.
Events reference_walk(const ArrivalStreamParams& params, sim::Slot horizon,
                      util::Rng& rng) {
  const DiurnalArrivals diurnal{params.probability, params.swing,
                                params.slot_seconds, params.peak_hour};
  Events events;
  for (sim::Slot t = 0; t < horizon; ++t) {
    const double prob =
        params.diurnal ? diurnal.probability_at(t) : params.probability;
    if (rng.bernoulli(prob)) events.push_back({t, random_app(rng)});
  }
  return events;
}

Events gated_walk(const ArrivalStreamParams& params, sim::Slot horizon,
                  util::Rng& rng) {
  Events events;
  walk_legacy_arrivals(params, horizon, rng,
                       [&events](sim::Slot t, device::AppKind app) {
                         events.push_back({t, app});
                       });
  return events;
}

std::string describe(const ArrivalStreamParams& p, sim::Slot horizon) {
  return "p=" + std::to_string(p.probability) +
         " diurnal=" + std::to_string(p.diurnal) +
         " swing=" + std::to_string(p.swing) +
         " peak=" + std::to_string(p.peak_hour) +
         " slot_s=" + std::to_string(p.slot_seconds) +
         " horizon=" + std::to_string(horizon);
}

/// Run both walks from the same seed; return how many events they made.
std::size_t expect_parity(const ArrivalStreamParams& params, sim::Slot horizon,
                          std::uint64_t seed) {
  util::Rng reference_rng{seed};
  util::Rng gated_rng{seed};
  const Events expected = reference_walk(params, horizon, reference_rng);
  const Events actual = gated_walk(params, horizon, gated_rng);
  const std::string what = describe(params, horizon);
  EXPECT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    if (actual[i].at != expected[i].at || actual[i].app != expected[i].app) {
      ADD_FAILURE() << what << ": event " << i << " differs (slot "
                    << actual[i].at << " vs " << expected[i].at << ")";
      break;
    }
  }
  EXPECT_TRUE(gated_rng == reference_rng) << what << ": RNG state differs";
  return expected.size();
}

constexpr double kSwings[] = {0.0, 0.5, 0.8, 1.0};
constexpr double kProbabilities[] = {0.0, 1e-6, 0.002, 0.3, 0.6, 1.0};
constexpr double kPeakHours[] = {0.5, 7.25, 20.0, 23.75};

TEST(LegacyWalkParity, DiurnalGridMatchesTheUngatedWalk) {
  struct Timing {
    double slot_seconds;
    sim::Slot horizon;
  };
  // Every horizon crosses the 86 400 s wrap of the fmod in probability_at:
  // 88 200 one-second slots, and 30 s slots over 25 h and over 3.1 days.
  constexpr Timing kTimings[] = {{1.0, 88200}, {30.0, 3000}, {30.0, 9000}};
  std::uint64_t seed = 1;
  std::size_t events = 0;
  for (const Timing timing : kTimings) {
    for (const double swing : kSwings) {
      for (const double p : kProbabilities) {
        for (const double peak : kPeakHours) {
          const ArrivalStreamParams params{p, true, swing, peak,
                                           timing.slot_seconds};
          events += expect_parity(params, timing.horizon, seed++);
        }
      }
    }
  }
  // The grid exercises the hit path, not only the rejections.
  EXPECT_GT(events, 100000u);
}

TEST(LegacyWalkParity, NonDiurnalPathMatchesTheUngatedWalk) {
  std::uint64_t seed = 1000;
  for (const double p : kProbabilities) {
    // The swing and peak are ignored off the diurnal path.
    const ArrivalStreamParams params{p, false, 0.8, 20.0, 1.0};
    expect_parity(params, 20000, seed++);
  }
}

TEST(LegacyWalkParity, ClampIsActiveAtThePeakForP06) {
  const DiurnalArrivals law{0.6, 0.8, 1.0, 20.0};
  EXPECT_EQ(law.max_probability(), 1.0);
  EXPECT_EQ(law.probability_at(20 * 3600), 1.0);
  EXPECT_LT(law.probability_at(8 * 3600), 1.0);
}

TEST(DiurnalEnvelope, BoundsEverySlotOfADay) {
  constexpr double kSlotSeconds[] = {1.0, 30.0};
  for (const double slot_seconds : kSlotSeconds) {
    const auto day = static_cast<sim::Slot>(86400.0 / slot_seconds);
    for (const double swing : kSwings) {
      for (const double p : kProbabilities) {
        for (const double peak : kPeakHours) {
          const DiurnalArrivals law{p, swing, slot_seconds, peak};
          const double envelope = law.max_probability();
          for (sim::Slot t = 0; t < day; ++t) {
            const double rate = law.probability_at(t);
            if (!(rate <= envelope)) {
              ADD_FAILURE() << "p=" << p << " swing=" << swing
                            << " peak=" << peak << " slot_s=" << slot_seconds
                            << ": probability_at(" << t << ") = " << rate
                            << " exceeds " << envelope;
              return;
            }
          }
        }
      }
    }
  }
}

TEST(DiurnalEnvelope, StreamParamsShareTheEnvelope) {
  for (const double swing : kSwings) {
    for (const double p : kProbabilities) {
      const ArrivalStreamParams diurnal{p, true, swing, 20.0, 1.0};
      EXPECT_EQ(diurnal.max_probability(),
                (DiurnalArrivals{p, swing, 1.0, 20.0}.max_probability()));
      const ArrivalStreamParams flat{p, false, swing, 20.0, 1.0};
      EXPECT_EQ(flat.max_probability(), p);
    }
  }
}

}  // namespace
}  // namespace fedco::apps
