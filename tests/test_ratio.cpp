// Tests for the baseline maximum-cycle-ratio solvers on known instances —
// including the paper's Example 5/6 cycle enumeration of the oscillator.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "gen/oscillator.h"
#include "gen/muller.h"
#include "gen/random_sg.h"
#include "ratio/condensation.h"
#include "ratio/exhaustive.h"
#include "ratio/howard.h"
#include "ratio/karp.h"
#include "ratio/lawler.h"
#include "sg/builder.h"
#include "util/prng.h"

namespace tsg {
namespace {

/// The subgraph of `p` without the masked arcs, as an explicit copy (the
/// reference the masked solve must agree with).  Node ids are kept.
ratio_problem copy_unmasked(const ratio_problem& p, const std::vector<std::uint8_t>& mask)
{
    ratio_problem sub;
    sub.graph.add_nodes(p.graph.node_count());
    sub.scale = p.scale;
    for (arc_id a = 0; a < p.graph.arc_count(); ++a) {
        if (mask[a] != 0) continue;
        sub.graph.add_arc(p.graph.from(a), p.graph.to(a));
        sub.delay.push_back(p.delay[a]);
        sub.transit.push_back(p.transit[a]);
        if (p.scale != 0) sub.scaled_delay.push_back(p.scaled_delay[a]);
    }
    sub.graph.freeze();
    return sub;
}

TEST(Exhaustive, Example5FourSimpleCycles)
{
    // C1 = {a+,c+,a-,c-}: 10; C2 = {a+,c+,b-,c-}: 8;
    // C3 = {b+,c+,a-,c-}: 8;  C4 = {b+,c+,b-,c-}: 6.  All epsilon = 1.
    const signal_graph sg = c_oscillator_sg();
    const exhaustive_result r = max_cycle_ratio_exhaustive(make_ratio_problem(sg));
    ASSERT_EQ(r.cycles.size(), 4u);

    std::multiset<std::int64_t> lengths;
    for (const cycle_listing& c : r.cycles) {
        EXPECT_EQ(c.transit, 1);
        EXPECT_TRUE(c.delay.is_integer());
        lengths.insert(c.delay.num());
    }
    EXPECT_EQ(lengths, (std::multiset<std::int64_t>{6, 8, 8, 10}));
}

TEST(Exhaustive, Example6CycleTimeIsTen)
{
    // lambda = max{10, 8, 8, 6} = 10.
    EXPECT_EQ(cycle_time_exhaustive(c_oscillator_sg()), rational(10));
}

TEST(Exhaustive, CriticalCycleIndices)
{
    const exhaustive_result r =
        max_cycle_ratio_exhaustive(make_ratio_problem(c_oscillator_sg()));
    ASSERT_EQ(r.critical.size(), 1u);
    EXPECT_EQ(r.cycles[r.critical[0]].delay, rational(10));
}

TEST(Exhaustive, BudgetViolationThrows)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_THROW((void)max_cycle_ratio_exhaustive(p, 2), error);
}

TEST(RatioProblem, ExtractsRepetitiveCore)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_EQ(p.graph.node_count(), 6u);
    EXPECT_EQ(p.graph.arc_count(), 8u);
    std::int64_t tokens = 0;
    for (const std::int64_t t : p.transit) tokens += t;
    EXPECT_EQ(tokens, 2);
}

TEST(RatioProblem, CycleRatioChecksTokens)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_THROW((void)cycle_ratio(p, {}), error);
    // A token-free arc alone is not a valid cycle argument.
    for (arc_id a = 0; a < p.graph.arc_count(); ++a)
        if (p.transit[a] == 0) {
            EXPECT_THROW((void)cycle_ratio(p, {a}), error);
            break;
        }
}

TEST(Karp, OscillatorAndRing)
{
    EXPECT_EQ(cycle_time_karp(c_oscillator_sg()), rational(10));
    EXPECT_EQ(cycle_time_karp(muller_ring_sg()), rational(20, 3));
}

TEST(Karp, MaxMeanCycleKnownGraph)
{
    // Two loops: self-loop weight 3 and 2-cycle with mean (1+4)/2 = 5/2.
    digraph g(3);
    std::vector<rational> w;
    g.add_arc(0, 0);
    w.emplace_back(3);
    g.add_arc(1, 2);
    w.emplace_back(1);
    g.add_arc(2, 1);
    w.emplace_back(4);
    g.add_arc(0, 1);
    w.emplace_back(100); // not on any cycle
    EXPECT_EQ(max_mean_cycle_karp(g, w), rational(3));
}

TEST(Karp, RejectsAcyclic)
{
    digraph g(2);
    g.add_arc(0, 1);
    EXPECT_THROW((void)max_mean_cycle_karp(g, {rational(1)}), error);
}

TEST(Karp, RejectsMultiTokenTransit)
{
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.delay = {rational(1), rational(1)};
    p.transit = {2, 0};
    EXPECT_THROW((void)max_cycle_ratio_karp(p), error);
}

TEST(Lawler, OscillatorAndRing)
{
    EXPECT_EQ(cycle_time_lawler(c_oscillator_sg()), rational(10));
    EXPECT_EQ(cycle_time_lawler(muller_ring_sg()), rational(20, 3));
}

TEST(Lawler, WitnessCycleAttainsTheRatio)
{
    const ratio_problem p = make_ratio_problem(muller_ring_sg());
    const ratio_result r = max_cycle_ratio_lawler(p);
    EXPECT_EQ(r.ratio, rational(20, 3));
    EXPECT_EQ(cycle_ratio(p, r.cycle), r.ratio);
}

TEST(Lawler, BisectionBracketsTheAnswer)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    EXPECT_NEAR(max_cycle_ratio_lawler_bisection(p, 1e-6), 10.0, 1e-5);
    EXPECT_THROW((void)max_cycle_ratio_lawler_bisection(p, 0.0), error);
}

TEST(Howard, OscillatorAndRing)
{
    EXPECT_EQ(cycle_time_howard(c_oscillator_sg()), rational(10));
    EXPECT_EQ(cycle_time_howard(muller_ring_sg()), rational(20, 3));
}

TEST(Howard, WitnessCycleAttainsTheRatio)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    const ratio_result r = max_cycle_ratio_howard(p);
    EXPECT_EQ(r.ratio, rational(10));
    EXPECT_EQ(cycle_ratio(p, r.cycle), rational(10));
}

TEST(Howard, SingleNodeSelfLoop)
{
    ratio_problem p;
    p.graph.add_nodes(1);
    p.graph.add_arc(0, 0);
    p.graph.add_arc(0, 0);
    p.delay = {rational(5), rational(9)};
    p.transit = {1, 1};
    EXPECT_EQ(max_cycle_ratio_howard(p).ratio, rational(9));
    EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(9));
}

TEST(Howard, MultiTokenCycleRatios)
{
    // Ratio problems from multi-token cycles: 2-cycle with 2 tokens, delay
    // 10 -> ratio 5; self loop ratio 4.  Howard and Lawler handle transit
    // times > 1 natively (Karp requires the 0/1 token-graph form).
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.graph.add_arc(1, 1);
    p.delay = {rational(6), rational(4), rational(4)};
    p.transit = {1, 1, 1};
    EXPECT_EQ(max_cycle_ratio_howard(p).ratio, rational(5));
    EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(5));
}

TEST(Howard, DeadEndErrorNamesTheNodeAndTheCondensationEntryPoint)
{
    // Node 1 has no out-arc: the precondition error must identify it and
    // point at the driver that accepts such graphs.
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(0, 0);
    p.delay = {rational(1), rational(1)};
    p.transit = {0, 1};
    try {
        (void)max_cycle_ratio_howard(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("node 1"), std::string::npos) << what;
        EXPECT_NE(what.find("max_cycle_ratio_condensed"), std::string::npos) << what;
    }
}

TEST(Howard, TokenFreeCycleErrorNamesAnArc)
{
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.delay = {rational(1), rational(1)};
    p.transit = {0, 0}; // not live: a cycle without a token
    try {
        (void)max_cycle_ratio_howard(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("arc"), std::string::npos) << what;
        EXPECT_NE(what.find("not live"), std::string::npos) << what;
    }
}

TEST(Howard, EqualRatioTieBreakingOnPotentials)
{
    // Two cycles with the *same* ratio 2 but different potentials along
    // their token-free prefixes: phase 1 stabilizes immediately (all
    // lambdas equal), so convergence exercises the phase-2 potential
    // improvement and its Gauss-Seidel tie-breaking.
    ratio_problem p;
    p.graph.add_nodes(3);
    p.graph.add_arc(0, 1); // delay 1, no token
    p.graph.add_arc(1, 0); // delay 1, token -> cycle A ratio 2
    p.graph.add_arc(0, 2); // delay 0, no token
    p.graph.add_arc(2, 0); // delay 2, token -> cycle B ratio 2
    p.delay = {rational(1), rational(1), rational(0), rational(2)};
    p.transit = {0, 1, 0, 1};
    const ratio_result r = max_cycle_ratio_howard(p);
    EXPECT_EQ(r.ratio, rational(2));
    EXPECT_EQ(cycle_ratio(p, r.cycle), rational(2));
    EXPECT_EQ(max_cycle_ratio_lawler(p).ratio, rational(2));
}

TEST(Howard, TerminatesOnTiedCyclesReachedThroughChangingTrees)
{
    // A subgraph of a random core (seed 12, four arcs removed) whose policy
    // iteration used to cycle forever: potentials were anchored wherever
    // the value-determination walk first closed a cycle, so one retained
    // cycle's basin shifted between rounds and the potential phase kept
    // undoing itself until the automatic cap threw.  The anchor is now the
    // cycle's smallest node.
    random_sg_options opts;
    opts.events = 12;
    opts.extra_arcs = 12;
    opts.max_delay = 8;
    opts.seed = 12;
    const ratio_problem p = make_ratio_problem(random_marked_graph(opts));
    std::vector<std::uint8_t> mask(p.graph.arc_count(), 0);
    for (const arc_id a : {3u, 6u, 9u, 10u}) mask[a] = 1;
    const ratio_problem sub = copy_unmasked(p, mask);

    const rational expected = max_cycle_ratio_exhaustive(sub).ratio;
    EXPECT_EQ(max_cycle_ratio_condensed(sub).ratio, expected);
    masked_howard solver(p);
    const std::optional<ratio_result> masked = solver.solve(mask);
    ASSERT_TRUE(masked.has_value());
    EXPECT_EQ(masked->ratio, expected);
}

TEST(Howard, ExplicitIterationCapThrowsUserError)
{
    // Initial policy (first out-arc) picks the ratio-5 self-loop; reaching
    // the ratio-9 one needs a second round to detect convergence, so a cap
    // of 1 must trip — as tsg::error: the cap is caller-provoked.
    ratio_problem p;
    p.graph.add_nodes(1);
    p.graph.add_arc(0, 0);
    p.graph.add_arc(0, 0);
    p.delay = {rational(5), rational(9)};
    p.transit = {1, 1};
    howard_options capped;
    capped.max_iterations = 1;
    EXPECT_THROW((void)max_cycle_ratio_howard(p, capped), error);
    // A generous explicit cap converges normally.
    capped.max_iterations = 64;
    EXPECT_EQ(max_cycle_ratio_howard(p, capped).ratio, rational(9));
}

TEST(Howard, WarmStateReusedAndRewritten)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    howard_state state;
    const ratio_result cold = max_cycle_ratio_howard(p, howard_options{}, &state);
    EXPECT_EQ(cold.ratio, rational(10));
    ASSERT_EQ(state.policy.size(), p.graph.node_count());
    for (node_id v = 0; v < p.graph.node_count(); ++v)
        EXPECT_EQ(p.graph.from(state.policy[v]), v);

    // Re-solving from the converged policy is a no-op round, same answer.
    const ratio_result warm = max_cycle_ratio_howard(p, howard_options{}, &state);
    EXPECT_EQ(warm.ratio, cold.ratio);
    EXPECT_EQ(warm.cycle, cold.cycle);

    // A mismatched state (wrong size) is ignored, not trusted.
    howard_state stale;
    stale.policy.assign(1, 0);
    EXPECT_EQ(max_cycle_ratio_howard(p, howard_options{}, &stale).ratio, rational(10));
    EXPECT_EQ(stale.policy.size(), p.graph.node_count()); // rewritten on success
}

TEST(Condensation, NonStronglyConnectedLiveGraphSolves)
{
    // Two 2-cycles bridged by token-free arcs into a dead-end sink: not
    // strongly connected, still live.  Howard alone refuses (the sink has
    // no out-arc); the condensation driver returns the larger component
    // ratio.
    ratio_problem p;
    p.graph.add_nodes(5);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0); // component {0,1}: ratio (1+3)/1 = 4
    p.graph.add_arc(2, 3);
    p.graph.add_arc(3, 2); // component {2,3}: ratio (2+5)/1 = 7
    p.graph.add_arc(1, 2); // bridge, never on a cycle
    p.graph.add_arc(3, 4); // dead-end sink
    p.delay = {rational(1), rational(3), rational(2), rational(5), rational(100),
               rational(1)};
    p.transit = {0, 1, 0, 1, 0, 0};

    EXPECT_THROW((void)max_cycle_ratio_howard(p), error);

    const condensed_ratio_result r = max_cycle_ratio_condensed(p);
    EXPECT_EQ(r.ratio, rational(7));
    EXPECT_EQ(r.component_count, 3u);
    EXPECT_EQ(r.cyclic_component_count, 2u);
    EXPECT_EQ(cycle_ratio(p, r.cycle), rational(7));
}

TEST(Condensation, SingleNodeSelfLoopCore)
{
    // One self-loop component among trivial single-node SCCs.
    ratio_problem p;
    p.graph.add_nodes(3);
    p.graph.add_arc(0, 1); // source -> core
    p.graph.add_arc(1, 1); // the core: self-loop, ratio 6
    p.graph.add_arc(1, 2); // core -> sink
    p.delay = {rational(1), rational(6), rational(1)};
    p.transit = {0, 1, 0};
    const condensed_ratio_result r = max_cycle_ratio_condensed(p);
    EXPECT_EQ(r.ratio, rational(6));
    EXPECT_EQ(r.component_count, 3u);
    EXPECT_EQ(r.cyclic_component_count, 1u);
    ASSERT_EQ(r.cycle.size(), 1u);
    EXPECT_EQ(r.cycle[0], 1u);
}

TEST(Condensation, AcyclicGraphRejectedWithClearMessage)
{
    ratio_problem p;
    p.graph.add_nodes(2);
    p.graph.add_arc(0, 1);
    p.delay = {rational(1)};
    p.transit = {1};
    try {
        (void)max_cycle_ratio_condensed(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        EXPECT_NE(std::string(e.what()).find("acyclic"), std::string::npos) << e.what();
    }
}

TEST(Condensation, NonLiveComponentErrorNamesTheComponent)
{
    // Component {2,3} has a token-free cycle: the sub-solve error must
    // surface with the condensation context attached.
    ratio_problem p;
    p.graph.add_nodes(4);
    p.graph.add_arc(0, 1);
    p.graph.add_arc(1, 0);
    p.graph.add_arc(2, 3);
    p.graph.add_arc(3, 2);
    p.graph.add_arc(1, 2);
    p.delay = {rational(1), rational(1), rational(1), rational(1), rational(1)};
    p.transit = {0, 1, 0, 0, 0}; // second cycle token-free
    try {
        (void)max_cycle_ratio_condensed(p);
        FAIL() << "expected tsg::error";
    } catch (const error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("max_cycle_ratio_condensed: component"), std::string::npos)
            << what;
        EXPECT_NE(what.find("not live"), std::string::npos) << what;
    }
}

// --- masked Howard -----------------------------------------------------------

/// Whether `arcs` (minus `drop`) contain a cycle: Kahn's algorithm.
bool has_cycle(const ratio_problem& p, const std::vector<arc_id>& arcs, arc_id drop)
{
    const std::size_t n = p.graph.node_count();
    std::vector<std::size_t> in(n, 0);
    std::vector<std::vector<node_id>> out(n);
    std::size_t count = 0;
    for (const arc_id a : arcs) {
        if (a == drop) continue;
        out[p.graph.from(a)].push_back(p.graph.to(a));
        ++in[p.graph.to(a)];
        ++count;
    }
    std::vector<node_id> ready;
    for (node_id v = 0; v < n; ++v)
        if (in[v] == 0) ready.push_back(v);
    while (!ready.empty()) {
        const node_id v = ready.back();
        ready.pop_back();
        for (const node_id w : out[v]) {
            --count;
            if (--in[w] == 0) ready.push_back(w);
        }
    }
    return count > 0;
}

/// Random live test problems in both arithmetic domains: compiled
/// (fixed-point) cores and the same cores with the scaled domain removed,
/// which forces the rational fallback.
std::vector<ratio_problem> masked_test_problems()
{
    std::vector<ratio_problem> problems;
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
        random_sg_options opts;
        opts.events = 10 + static_cast<std::uint32_t>(seed % 7);
        opts.extra_arcs = 12;
        opts.max_delay = seed == 17 ? 1 : 9; // seed 17: dense ratio ties
        opts.seed = seed;
        ratio_problem p = make_ratio_problem(random_marked_graph(opts));
        EXPECT_NE(p.scale, 0);
        ratio_problem rational_only = p;
        rational_only.scale = 0;
        rational_only.scaled_delay.clear();
        problems.push_back(std::move(p));
        problems.push_back(std::move(rational_only));
    }
    return problems;
}

TEST(MaskedHoward, MatchesCondensationOnCopiedSubgraphs)
{
    for (const ratio_problem& p : masked_test_problems()) {
        masked_howard solver(p);
        prng rng(p.graph.arc_count() * 131 + static_cast<std::uint64_t>(p.scale != 0));
        const std::size_t m = p.graph.arc_count();
        std::size_t disconnected = 0;
        std::size_t empty = 0;
        for (int trial = 0; trial < 120; ++trial) {
            std::vector<std::uint8_t> mask(m, 0);
            if (trial == 0) {
                // Every token arc removed: a live graph keeps no cycle.
                for (arc_id a = 0; a < m; ++a) mask[a] = p.transit[a] > 0;
            } else if (trial == 1) {
                std::fill(mask.begin(), mask.end(), 1);
            } else {
                const double density = 0.05 * static_cast<double>(1 + trial % 10);
                for (arc_id a = 0; a < m; ++a) mask[a] = rng.chance(density);
            }
            const ratio_problem sub = copy_unmasked(p, mask);

            std::optional<condensed_ratio_result> expected;
            if (sub.graph.arc_count() > 0) {
                try {
                    expected = max_cycle_ratio_condensed(sub);
                } catch (const error&) {
                    // no component keeps a cycle
                }
            }
            std::vector<arc_id> tight;
            const std::optional<ratio_result> got = solver.solve(mask, &tight);
            ASSERT_EQ(got.has_value(), expected.has_value()) << "trial " << trial;
            if (!got) {
                ++empty;
                continue;
            }
            if (expected->component_count > 1) ++disconnected;
            EXPECT_EQ(got->ratio, expected->ratio) << "trial " << trial;
            EXPECT_EQ(got->fixed_point, p.scale != 0);

            // The witness is a closed walk of unmasked arcs at that ratio.
            ASSERT_FALSE(got->cycle.empty());
            for (std::size_t i = 0; i < got->cycle.size(); ++i) {
                const arc_id a = got->cycle[i];
                const arc_id next = got->cycle[(i + 1) % got->cycle.size()];
                EXPECT_EQ(mask[a], 0) << "witness uses a masked arc";
                EXPECT_EQ(p.graph.to(a), p.graph.from(next)) << "witness is not a cycle";
                EXPECT_TRUE(std::binary_search(tight.begin(), tight.end(), a))
                    << "witness arc is not tight";
            }
            EXPECT_EQ(cycle_ratio(p, got->cycle), got->ratio);
        }
        EXPECT_GT(disconnected, 0u) << "no mask split the core";
        EXPECT_GT(empty, 1u) << "no mask left the graph acyclic";
    }
}

TEST(MaskedHoward, TightArcsDecideWhetherAChildKeepsTheRatio)
{
    // Removing witness arc x keeps the maximum ratio exactly when the tight
    // arcs minus x still contain a cycle — the certificate behind top-K's
    // lazy peeling (core/optimize.cpp).
    std::size_t kept = 0;
    std::size_t dropped = 0;
    for (const ratio_problem& p : masked_test_problems()) {
        masked_howard solver(p);
        prng rng(p.graph.arc_count() * 7 + 1);
        const std::size_t m = p.graph.arc_count();
        for (int trial = 0; trial < 40; ++trial) {
            std::vector<std::uint8_t> mask(m, 0);
            for (arc_id a = 0; a < m; ++a) mask[a] = rng.chance(0.1);
            std::vector<arc_id> tight;
            const std::optional<ratio_result> parent = solver.solve(mask, &tight);
            if (!parent) continue;
            for (const arc_id x : parent->cycle) {
                std::vector<std::uint8_t> child = mask;
                child[x] = 1;
                const std::optional<ratio_result> solved = solver.solve(child);
                const bool keeps = solved && solved->ratio == parent->ratio;
                EXPECT_EQ(keeps, has_cycle(p, tight, x)) << "trial " << trial << " arc " << x;
                ++(keeps ? kept : dropped);
            }
        }
    }
    EXPECT_GT(kept, 0u);
    EXPECT_GT(dropped, 0u);
}

TEST(MaskedHoward, RejectsAMaskOfTheWrongSize)
{
    const ratio_problem p = make_ratio_problem(c_oscillator_sg());
    masked_howard solver(p);
    const std::vector<std::uint8_t> mask(p.graph.arc_count() + 1, 0);
    EXPECT_THROW((void)solver.solve(mask), error);
}

} // namespace
} // namespace tsg
