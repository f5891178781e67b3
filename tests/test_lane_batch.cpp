// Lane-batched scenario engine: the SoA lane path and the supporting
// satellites must be bit-identical to the scalar serial path in every
// observable field, across lane widths, batch tails, per-lane evictions
// and delta-hinted row reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "core/compiled_graph.h"
#include "core/cycle_time.h"
#include "core/pert.h"
#include "core/scenario.h"
#include "core/slack.h"
#include "gen/oscillator.h"
#include "gen/random_sg.h"
#include "sg/builder.h"
#include "util/parallel.h"
#include "util/prng.h"

namespace tsg {
namespace {

/// A random live strongly connected graph with fractional delays (integer
/// delays would make every fixed-point scale trivially 1).
signal_graph random_fractional_graph(std::uint64_t seed, std::uint32_t events)
{
    prng rng(seed);
    sg_builder b;
    for (std::uint32_t i = 0; i < events; ++i) b.event("e" + std::to_string(i));
    const auto delay = [&] { return rational(rng.uniform(0, 12), rng.uniform(1, 6)); };
    for (std::uint32_t i = 0; i + 1 < events; ++i)
        b.arc("e" + std::to_string(i), "e" + std::to_string(i + 1), delay());
    b.marked_arc("e" + std::to_string(events - 1), "e0", delay());
    for (std::uint32_t extra = 0; extra < events; ++extra) {
        const auto i = static_cast<std::uint32_t>(rng.uniform(0, events - 2));
        const auto j = static_cast<std::uint32_t>(rng.uniform(i + 1, events - 1));
        b.arc("e" + std::to_string(i), "e" + std::to_string(j), delay());
    }
    return b.build();
}

/// A ring of stages with a dominant and a slack arc per stage: corners on
/// the slack arcs stay strictly below the dominant delay, so the max
/// absorbs them instantly — the absorption topology, where a corner's
/// delta never reaches the cycle time.
signal_graph slack_pair_ring(std::uint32_t stages)
{
    sg_builder b;
    for (std::uint32_t i = 0; i < stages; ++i) b.event("v" + std::to_string(i));
    for (std::uint32_t i = 0; i < stages; ++i) {
        const std::string from = "v" + std::to_string(i);
        const std::string to = "v" + std::to_string((i + 1) % stages);
        if (i + 1 == stages) {
            b.marked_arc(from, to, rational(20));
        } else {
            b.arc(from, to, rational(20));     // dominant
            b.arc(from, to, rational(10));     // slack: +/-10% never reaches 20
        }
    }
    return b.build();
}

void expect_outcomes_equal(const scenario_batch_result& a, const scenario_batch_result& b,
                           const char* what)
{
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].cycle_time, b.outcomes[i].cycle_time) << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].fixed_point, b.outcomes[i].fixed_point) << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].critical_arcs, b.outcomes[i].critical_arcs)
            << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].critical_cycle, b.outcomes[i].critical_cycle)
            << what << " #" << i;
        EXPECT_EQ(a.outcomes[i].criticality_margin, b.outcomes[i].criticality_margin)
            << what << " #" << i;
    }
    EXPECT_EQ(a.min_cycle_time, b.min_cycle_time) << what;
    EXPECT_EQ(a.max_cycle_time, b.max_cycle_time) << what;
    EXPECT_EQ(a.min_index, b.min_index) << what;
    EXPECT_EQ(a.max_index, b.max_index) << what;
    EXPECT_EQ(a.criticality_count, b.criticality_count) << what;
    EXPECT_EQ(a.fallback_count, b.fallback_count) << what;
    ASSERT_EQ(a.critical_cycles.size(), b.critical_cycles.size()) << what;
    for (std::size_t k = 0; k < a.critical_cycles.size(); ++k) {
        EXPECT_EQ(a.critical_cycles[k].arcs, b.critical_cycles[k].arcs) << what;
        EXPECT_EQ(a.critical_cycles[k].count, b.critical_cycles[k].count) << what;
    }
}

TEST(LaneBatch, EveryLaneWidthMatchesTheScalarPathBitForBit)
{
    // 43 scenarios: not divisible by any width, so every run exercises the
    // scalar tail epilogue too.
    const signal_graph sg = random_fractional_graph(3, 40);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 43;
    mc.seed = 17;
    mc.spread = rational(1, 3);
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    for (const bool with_slack : {false, true}) {
        scenario_batch_options scalar;
        scalar.lane_width = 1;
        scalar.with_slack = with_slack;
        scalar.solver = cycle_time_solver::border_sweep;
        const scenario_batch_result reference = engine.run(scenarios, scalar);
        EXPECT_EQ(reference.scalar_scenarios, scenarios.size());
        EXPECT_EQ(reference.lane_groups, 0u);

        for (const unsigned width : {2u, 4u, 8u, 16u}) {
            scenario_batch_options lanes = scalar;
            lanes.lane_width = width;
            const scenario_batch_result batch = engine.run(scenarios, lanes);
            expect_outcomes_equal(reference, batch,
                                  with_slack ? "slack lanes" : "cycle-time lanes");
            EXPECT_EQ(batch.lane_groups, scenarios.size() / width);
            EXPECT_EQ(batch.lane_scenarios + batch.scalar_scenarios, scenarios.size());
            EXPECT_EQ(batch.scalar_scenarios, scenarios.size() % width);
        }
    }
}

TEST(LaneBatch, WitnessFreeStatisticsModeMatchesCycleTimes)
{
    const signal_graph sg = random_fractional_graph(11, 32);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 24;
    mc.seed = 5;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options full;
    full.with_slack = false;
    full.solver = cycle_time_solver::border_sweep;
    scenario_batch_options light = full;
    light.with_witness = false;

    const scenario_batch_result a = engine.run(scenarios, full);
    const scenario_batch_result b = engine.run(scenarios, light);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].cycle_time, b.outcomes[i].cycle_time) << i;
        EXPECT_EQ(a.outcomes[i].fixed_point, b.outcomes[i].fixed_point) << i;
        EXPECT_TRUE(b.outcomes[i].critical_arcs.empty()) << i;
        EXPECT_TRUE(b.outcomes[i].critical_cycle.empty()) << i;
    }
    EXPECT_EQ(a.min_cycle_time, b.min_cycle_time);
    EXPECT_EQ(a.max_cycle_time, b.max_cycle_time);
    EXPECT_TRUE(b.critical_cycles.empty());

    // The scalar path honors the statistics mode identically.
    scenario_batch_options light_scalar = light;
    light_scalar.lane_width = 1;
    const scenario_batch_result c = engine.run(scenarios, light_scalar);
    expect_outcomes_equal(b, c, "statistics mode lanes vs scalar");
}

TEST(LaneBatch, NonIdentityCoreProjectsLaneDelays)
{
    // The oscillator has start-up arcs outside the core, exercising the
    // arc_original projection of the lane packer.
    const signal_graph sg = c_oscillator_sg();
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 13;
    mc.seed = 23;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options scalar;
    scalar.lane_width = 1;
    scalar.solver = cycle_time_solver::border_sweep;
    scenario_batch_options lanes = scalar;
    lanes.lane_width = 4;
    expect_outcomes_equal(engine.run(scenarios, scalar), engine.run(scenarios, lanes),
                          "oscillator lanes");
}

TEST(LaneBatch, AcyclicLanesMatchScalarPert)
{
    sg_builder b;
    for (int i = 0; i < 8; ++i) b.event("e" + std::to_string(i));
    prng rng(41);
    for (int i = 0; i < 8; ++i)
        for (int j = i + 1; j < 8; ++j)
            if (rng.chance(0.5))
                b.arc("e" + std::to_string(i), "e" + std::to_string(j),
                      rational(rng.uniform(0, 9), rng.uniform(1, 4)));
    b.arc("e0", "e7", rational(1, 2)); // keep e7 reachable
    const signal_graph sg = b.build();
    ASSERT_TRUE(sg.repetitive_events().empty());

    const compiled_graph base(sg);
    const scenario_engine engine(base);
    monte_carlo_options mc;
    mc.samples = 19;
    mc.seed = 3;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options scalar;
    scalar.lane_width = 1;
    scenario_batch_options lanes;
    lanes.lane_width = 8;
    expect_outcomes_equal(engine.run(scenarios, scalar), engine.run(scenarios, lanes),
                          "acyclic lanes");
}

TEST(LaneBatch, SingleLaneOverflowEvictionLeavesSiblingsExact)
{
    sg_builder b;
    b.event("a");
    b.event("b");
    b.arc("a", "b", rational(1, 2));
    b.marked_arc("b", "a", rational(5, 6));
    const signal_graph sg = b.build();
    const compiled_graph base(sg);
    ASSERT_TRUE(base.fixed_point());
    const scenario_engine engine(base);

    const std::int64_t p1 = 2147483647; // 2^31 - 1 (prime)
    const std::int64_t p2 = 2147483629; // also prime

    // One full lane group of 4; lane 2 overflows the scale re-check.
    std::vector<scenario> scenarios(4);
    scenarios[0] = {"healthy", {rational(3, 4), rational(1, 6)}};
    scenarios[1] = {"healthy too", {rational(2), rational(1, 3)}};
    scenarios[2] = {"overflowing", {rational(1, p1), rational(10, p2)}};
    scenarios[3] = {"healthy three", {rational(5, 4), rational(7, 6)}};

    scenario_batch_options lanes;
    lanes.lane_width = 4;
    lanes.solver = cycle_time_solver::border_sweep; // pin: lane counters below
    const scenario_batch_result batch = engine.run(scenarios, lanes);

    EXPECT_TRUE(batch.outcomes[0].fixed_point);
    EXPECT_TRUE(batch.outcomes[1].fixed_point);
    EXPECT_FALSE(batch.outcomes[2].fixed_point);
    EXPECT_TRUE(batch.outcomes[3].fixed_point);
    EXPECT_EQ(batch.fallback_count, 1u);
    EXPECT_EQ(batch.lane_groups, 1u);
    EXPECT_EQ(batch.lane_evictions, 1u);
    EXPECT_EQ(batch.lane_scenarios, 3u);
    EXPECT_EQ(batch.scalar_scenarios, 1u);

    // Every outcome — evicted lane included — matches the scalar path.
    scenario_batch_options scalar;
    scalar.lane_width = 1;
    scalar.solver = cycle_time_solver::border_sweep;
    expect_outcomes_equal(engine.run(scenarios, scalar), batch, "eviction group");
    EXPECT_EQ(batch.outcomes[2].cycle_time, rational(1, p1) + rational(10, p2));
}

TEST(LaneBatch, DeltaHintedLanesReuseBaseRowsAndMatchScalar)
{
    // Two topologies.  A random graph with integer-multiplier corners (2d
    // and 3d) on every arc: the perturbed denominator equals the nominal
    // one, so every hinted lane can adopt the base scale and reuse its
    // scaled rows wholesale.  And the absorption ring with +/-10% corners
    // on its slack arcs, whose deltas the dominant arcs' maxima absorb.
    struct input {
        const char* name;
        signal_graph sg;
        std::vector<rational> factors;
        bool slack_arcs_only;
    };
    const input inputs[] = {
        {"random", random_fractional_graph(21, 24), {rational(2), rational(3)}, false},
        {"absorption ring", slack_pair_ring(48), {rational(9, 10), rational(11, 10)}, true},
    };

    for (const input& in : inputs) {
        const compiled_graph base(in.sg);
        ASSERT_TRUE(base.fixed_point()) << in.name;
        const scenario_engine engine(base);

        std::vector<scenario> corners;
        for (arc_id a = 0; a < in.sg.arc_count(); ++a) {
            if (in.slack_arcs_only && in.sg.arc(a).delay != rational(10)) continue;
            for (const rational& factor : in.factors) {
                scenario s;
                s.label = "arc" + std::to_string(a) + "x" + factor.str();
                s.delay = base.delay();
                s.delay[a] = s.delay[a] * factor;
                s.delta_arc = a;
                corners.push_back(std::move(s));
            }
        }
        ASSERT_GE(corners.size(), 10u) << in.name;

        for (const bool with_slack : {false, true}) {
            const std::string what = std::string(in.name) + (with_slack ? " +slack" : "");
            scenario_batch_options scalar;
            scalar.lane_width = 1;
            scalar.with_slack = with_slack;
            scalar.solver = cycle_time_solver::border_sweep;
            const scenario_batch_result reference = engine.run(corners, scalar);
            EXPECT_EQ(reference.lane_rows_reused, 0u) << what;

            scenario_batch_options lanes = scalar;
            lanes.lane_width = 8;
            const scenario_batch_result batch = engine.run(corners, lanes);
            expect_outcomes_equal(reference, batch, what.c_str());
            EXPECT_EQ(batch.lane_evictions, 0u) << what;
            EXPECT_GT(batch.lane_rows_reused, 0u) << what;
            // Each hinted lane re-packs exactly its dirty row (when the
            // swept arc is in the core); nothing else goes through the
            // rescale.
            EXPECT_LE(batch.lane_rows_repacked, batch.lane_groups * 8) << what;
        }
    }
}

TEST(LaneBatch, MonteCarloGenerationIsLaneStableAcrossThreadCounts)
{
    const signal_graph sg = random_fractional_graph(7, 16);
    monte_carlo_options serial;
    serial.samples = 40;
    serial.seed = 99;
    serial.max_threads = 1;
    monte_carlo_options parallel = serial;
    parallel.max_threads = 4;

    const std::vector<scenario> a = monte_carlo_scenarios(sg, serial);
    const std::vector<scenario> b = monte_carlo_scenarios(sg, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label) << i;
        EXPECT_EQ(a[i].delay, b[i].delay) << i;
    }

    // Sample k depends only on (seed, k): a bigger batch replays its prefix.
    monte_carlo_options longer = serial;
    longer.samples = 60;
    const std::vector<scenario> c = monte_carlo_scenarios(sg, longer);
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].delay, c[i].delay) << i;
}

TEST(LaneBatch, EngineReusesItsPoolAcrossRuns)
{
    const signal_graph sg = random_fractional_graph(13, 24);
    const compiled_graph base(sg);
    const scenario_engine engine(base);

    monte_carlo_options mc;
    mc.samples = 20;
    mc.seed = 2;
    const std::vector<scenario> scenarios = monte_carlo_scenarios(sg, mc);

    scenario_batch_options opts;
    opts.max_threads = 3;
    const scenario_batch_result first = engine.run(scenarios, opts);
    const scenario_batch_result second = engine.run(scenarios, opts);
    expect_outcomes_equal(first, second, "pool reuse");

    // Changing the budget mid-life resizes the pool transparently.
    opts.max_threads = 1;
    expect_outcomes_equal(first, engine.run(scenarios, opts), "pool resize");
}

TEST(LaneBatch, ThreadPoolRunsEveryIndexAndPropagatesErrors)
{
    thread_pool pool(3);
    EXPECT_EQ(pool.thread_count(), 3u);

    std::vector<std::atomic<int>> hits(100);
    pool.for_index(100, [&](std::size_t i, unsigned worker) {
        EXPECT_LT(worker, 3u);
        hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

    // Reuse after a job, including exception propagation.
    EXPECT_THROW(pool.for_index(50,
                                [&](std::size_t i, unsigned) {
                                    if (i == 17) throw error("boom");
                                }),
                 error);
    std::atomic<int> count{0};
    pool.for_index(10, [&](std::size_t, unsigned) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 10);
}

} // namespace
} // namespace tsg
