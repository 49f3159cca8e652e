// Property tests for the incremental DeltaCostEvaluator: over randomized
// applications, platforms, occupancy and move/swap/undo sequences (seeded
// RNG), the incrementally maintained totals must match a from-scratch
// re-evaluation of the same assignment after every single operation — both
// to 1e-9 in the weighted objective and *exactly* in the integer term
// breakdown, which is the stronger guarantee the bit-identical SA regression
// rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "gen/generator.hpp"
#include "graph/application.hpp"
#include "mappers/delta_cost.hpp"
#include "mappers/placement.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "util/rng.hpp"

namespace kairos::mappers {
namespace {

using graph::Application;
using graph::TaskId;
using platform::ElementId;
using platform::Platform;

Platform random_platform(util::Xoshiro256& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0:
      return platform::make_mesh(static_cast<int>(rng.uniform_int(2, 5)),
                                 static_cast<int>(rng.uniform_int(2, 5)));
    case 1:
      // make_torus requires both sides > 2 (a 2-wide wrap duplicates links).
      return platform::make_torus(static_cast<int>(rng.uniform_int(3, 4)),
                                  static_cast<int>(rng.uniform_int(3, 4)));
    case 2:
      return platform::make_star(static_cast<int>(rng.uniform_int(4, 12)));
    default:
      return platform::make_irregular(static_cast<int>(rng.uniform_int(5, 20)),
                                      static_cast<int>(rng.uniform_int(0, 8)),
                                      rng.next());
  }
}

Application random_application(util::Xoshiro256& rng, int index) {
  gen::GeneratorConfig config;
  config.target = platform::ElementType::kGeneric;
  config.io_on_boundary = false;
  config.min_implementations = 1;
  config.max_implementations = 1;
  config.input_tasks = static_cast<int>(rng.uniform_int(1, 3));
  config.internal_tasks = static_cast<int>(rng.uniform_int(2, 12));
  config.output_tasks = static_cast<int>(rng.uniform_int(1, 3));
  return gen::generate_application(config, rng,
                                   "prop-" + std::to_string(index));
}

core::CostWeights random_weights(util::Xoshiro256& rng) {
  const double choices[] = {0.0, 0.5, 1.0, 4.0, 100.0};
  core::CostWeights weights;
  weights.communication = choices[rng.uniform_int(0, 4)];
  weights.fragmentation = choices[rng.uniform_int(0, 4)];
  return weights;
}

core::FragmentationBonuses random_bonuses(util::Xoshiro256& rng) {
  core::FragmentationBonuses bonuses;
  bonuses.peer = rng.uniform_real(0.0, 1.0);
  bonuses.same_app = rng.uniform_real(0.0, 1.0);
  bonuses.other_app = rng.uniform_real(0.0, 1.0);
  return bonuses;
}

/// Checks the evaluator against the two independent from-scratch
/// implementations: the DistanceCache-based one of src/mappers/ and the
/// exact-row one of src/core/.
void expect_matches_full_reevaluation(const DeltaCostEvaluator& evaluator,
                                      const Application& app,
                                      const Platform& platform,
                                      const core::CostWeights& weights,
                                      const core::FragmentationBonuses& bonuses,
                                      DistanceCache& distances) {
  const auto& assignment = evaluator.assignment();
  const core::LayoutCostTerms reference =
      assignment_cost_terms(app, platform, assignment, distances);
  ASSERT_EQ(evaluator.terms(), reference);
  ASSERT_EQ(core::layout_cost_terms(app, platform, assignment), reference);
  EXPECT_NEAR(evaluator.total(),
              assignment_cost(app, platform, assignment, weights, bonuses,
                              distances),
              1e-9);
  // Exact integer terms make the totals bit-identical, not just close.
  EXPECT_EQ(evaluator.total(), reference.value(weights, bonuses));
}

TEST(DeltaCostEvaluatorTest, MatchesFullReevaluationUnderRandomMoveSequences) {
  util::Xoshiro256 rng(0xD317A);

  for (int scenario = 0; scenario < 12; ++scenario) {
    Platform platform = random_platform(rng);
    const Application app = random_application(rng, scenario);
    const auto element_count =
        static_cast<std::int64_t>(platform.element_count());
    const auto task_count = static_cast<std::int64_t>(app.task_count());

    // Sprinkle foreign occupancy so the other_app bonus category is live.
    for (const auto& element : platform.elements()) {
      if (rng.bernoulli(0.3)) platform.add_task(element.id());
    }

    const core::CostWeights weights = random_weights(rng);
    const core::FragmentationBonuses bonuses = random_bonuses(rng);

    std::vector<ElementId> initial(app.task_count());
    for (auto& e : initial) {
      e = ElementId{static_cast<std::int32_t>(
          rng.uniform_int(0, element_count - 1))};
    }

    DistanceCache distances(platform);
    DeltaCostEvaluator evaluator(app, platform, weights, bonuses, distances,
                                 initial);
    ASSERT_NO_FATAL_FAILURE(expect_matches_full_reevaluation(
        evaluator, app, platform, weights, bonuses, distances));

    for (int op = 0; op < 120; ++op) {
      if (task_count >= 2 && rng.bernoulli(0.3)) {
        // Swap two distinct tasks (same-element swaps are legal too).
        const auto a = rng.uniform_int(0, task_count - 1);
        auto b = rng.uniform_int(0, task_count - 2);
        if (b >= a) ++b;
        evaluator.apply_swap(TaskId{static_cast<std::int32_t>(a)},
                             TaskId{static_cast<std::int32_t>(b)});
      } else {
        const auto t = rng.uniform_int(0, task_count - 1);
        const ElementId from =
            evaluator.assignment()[static_cast<std::size_t>(t)];
        auto to = rng.uniform_int(0, element_count - 2);
        if (to >= from.value) ++to;
        evaluator.apply_move(TaskId{static_cast<std::int32_t>(t)},
                             ElementId{static_cast<std::int32_t>(to)});
      }
      ASSERT_NO_FATAL_FAILURE(expect_matches_full_reevaluation(
          evaluator, app, platform, weights, bonuses, distances))
          << "scenario " << scenario << " op " << op;

      if (rng.bernoulli(0.4)) {
        evaluator.undo();
        ASSERT_NO_FATAL_FAILURE(expect_matches_full_reevaluation(
            evaluator, app, platform, weights, bonuses, distances))
            << "scenario " << scenario << " undo after op " << op;
      }
    }
  }
}

TEST(DeltaCostEvaluatorTest, SupportsPartialAssignments) {
  util::Xoshiro256 rng(0xBEEF);
  Platform platform = platform::make_mesh(4, 4);
  const Application app = random_application(rng, 99);
  const auto element_count = static_cast<std::int64_t>(platform.element_count());

  // Leave roughly a third of the tasks unplaced.
  std::vector<ElementId> initial(app.task_count());
  std::vector<std::size_t> placed;
  for (std::size_t t = 0; t < initial.size(); ++t) {
    if (rng.bernoulli(0.33)) continue;
    initial[t] = ElementId{static_cast<std::int32_t>(
        rng.uniform_int(0, element_count - 1))};
    placed.push_back(t);
  }
  ASSERT_FALSE(placed.empty());

  const core::CostWeights weights{4.0, 100.0};
  const core::FragmentationBonuses bonuses;
  DistanceCache distances(platform);
  DeltaCostEvaluator evaluator(app, platform, weights, bonuses, distances,
                               initial);

  for (int op = 0; op < 60; ++op) {
    const std::size_t t = placed[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(placed.size()) - 1))];
    const ElementId from = evaluator.assignment()[t];
    auto to = rng.uniform_int(0, element_count - 2);
    if (to >= from.value) ++to;
    evaluator.apply_move(TaskId{static_cast<std::int32_t>(t)},
                         ElementId{static_cast<std::int32_t>(to)});
    ASSERT_NO_FATAL_FAILURE(expect_matches_full_reevaluation(
        evaluator, app, platform, weights, bonuses, distances))
        << "op " << op;
  }
}

TEST(DeltaCostEvaluatorTest, UndoRestoresTermsExactly) {
  util::Xoshiro256 rng(0x5EED);
  Platform platform = platform::make_torus(3, 3);
  const Application app = random_application(rng, 7);
  const auto element_count = static_cast<std::int64_t>(platform.element_count());

  std::vector<ElementId> initial(app.task_count());
  for (auto& e : initial) {
    e = ElementId{
        static_cast<std::int32_t>(rng.uniform_int(0, element_count - 1))};
  }
  const core::CostWeights weights{1.0, 1.0};
  DistanceCache distances(platform);
  DeltaCostEvaluator evaluator(app, platform, weights, {}, distances, initial);

  const core::LayoutCostTerms before = evaluator.terms();
  const double total_before = evaluator.total();
  for (int i = 0; i < 40; ++i) {
    const auto t = rng.uniform_int(
        0, static_cast<std::int64_t>(app.task_count()) - 1);
    const ElementId from = evaluator.assignment()[static_cast<std::size_t>(t)];
    auto to = rng.uniform_int(0, element_count - 2);
    if (to >= from.value) ++to;
    evaluator.apply_move(TaskId{static_cast<std::int32_t>(t)},
                         ElementId{static_cast<std::int32_t>(to)});
    evaluator.undo();
    ASSERT_EQ(evaluator.terms(), before);
    ASSERT_EQ(evaluator.total(), total_before);
    ASSERT_EQ(evaluator.assignment()[static_cast<std::size_t>(t)], from);
  }
}

}  // namespace
}  // namespace kairos::mappers
