/**
 * @file
 * Tests for the solver substrate: simplex LP, branch-and-bound ILP, and
 * the specialized Pareto-DP schedule solver — including the property
 * suite asserting DP/ILP agreement on randomized Eqn.-5 instances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/optimizer.hh"
#include "hw/acmp.hh"
#include "hw/dvfs_model.hh"
#include "hw/power_model.hh"
#include "solver/ilp.hh"
#include "solver/lp.hh"
#include "solver/schedule_problem.hh"
#include "util/rng.hh"
#include "web/vsync.hh"

namespace pes {
namespace {

// ---------------------------------------------------------------- LP

TEST(Simplex, TextbookMaximization)
{
    // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> optimum 36 at
    // (2, 6).
    LinearProgram lp(2);
    lp.setObjective({3.0, 5.0});
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 4.0);
    lp.addConstraint({0.0, 2.0}, Relation::LessEqual, 12.0);
    lp.addConstraint({3.0, 2.0}, Relation::LessEqual, 18.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 36.0, 1e-9);
    EXPECT_NEAR(result.x[0], 2.0, 1e-9);
    EXPECT_NEAR(result.x[1], 6.0, 1e-9);
}

TEST(Simplex, EqualityConstraint)
{
    // max x + y st x + y = 5, x <= 3 -> 5, e.g. x=3,y=2.
    LinearProgram lp(2);
    lp.setObjective({1.0, 1.0});
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 5.0);
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 3.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 5.0, 1e-9);
}

TEST(Simplex, GreaterEqualConstraint)
{
    // max -x st x >= 2 (i.e. min x) -> objective -2.
    LinearProgram lp(1);
    lp.setObjective({-1.0});
    lp.addConstraint({1.0}, Relation::GreaterEqual, 2.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, -2.0, 1e-9);
    EXPECT_NEAR(result.x[0], 2.0, 1e-9);
}

TEST(Simplex, DetectsInfeasible)
{
    LinearProgram lp(1);
    lp.setObjective({1.0});
    lp.addConstraint({1.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({1.0}, Relation::GreaterEqual, 2.0);
    EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    LinearProgram lp(1);
    lp.setObjective({1.0});
    lp.addConstraint({-1.0}, Relation::LessEqual, 0.0);  // x >= 0 only
    EXPECT_EQ(lp.solve().status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization)
{
    // x <= -1 written as -x >= 1: feasible at x ... wait, with x >= 0
    // the row x <= -1 is infeasible; the solver must see that.
    LinearProgram lp(1);
    lp.setObjective({1.0});
    lp.addConstraint({1.0}, Relation::LessEqual, -1.0);
    EXPECT_EQ(lp.solve().status, LpStatus::Infeasible);
}

TEST(Simplex, DegenerateInstanceTerminates)
{
    // Classic degenerate corner; Bland's rule must not cycle.
    LinearProgram lp(2);
    lp.setObjective({1.0, 1.0});
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({0.0, 1.0}, Relation::LessEqual, 1.0);
    const LpResult result = lp.solve();
    ASSERT_EQ(result.status, LpStatus::Optimal);
    EXPECT_NEAR(result.objective, 2.0, 1e-9);
}

// ---------------------------------------------------------------- ILP

TEST(Ilp, BinaryKnapsackByConstraints)
{
    // min -(values) st weights <= 5: items (v=6,w=4),(v=5,w=3),(v=5,w=2)
    // -> best = items 2+3 (v=10).
    IntegerProgram ilp(3);
    ilp.setObjective({-6.0, -5.0, -5.0});
    ilp.addConstraint({4.0, 3.0, 2.0}, Relation::LessEqual, 5.0);
    const IlpResult result = ilp.solve();
    ASSERT_EQ(result.status, IlpStatus::Optimal);
    EXPECT_NEAR(result.objective, -10.0, 1e-9);
    EXPECT_EQ(result.x[0], 0);
    EXPECT_EQ(result.x[1], 1);
    EXPECT_EQ(result.x[2], 1);
}

TEST(Ilp, AssignmentConstraint)
{
    // Exactly one of three options, minimize cost -> picks cheapest.
    IntegerProgram ilp(3);
    ilp.setObjective({5.0, 2.0, 9.0});
    ilp.addConstraint({1.0, 1.0, 1.0}, Relation::Equal, 1.0);
    const IlpResult result = ilp.solve();
    ASSERT_EQ(result.status, IlpStatus::Optimal);
    EXPECT_NEAR(result.objective, 2.0, 1e-9);
    EXPECT_EQ(result.x[1], 1);
}

TEST(Ilp, InfeasibleDetected)
{
    IntegerProgram ilp(2);
    ilp.setObjective({1.0, 1.0});
    ilp.addConstraint({1.0, 1.0}, Relation::GreaterEqual, 3.0);  // > 2
    EXPECT_EQ(ilp.solve().status, IlpStatus::Infeasible);
}

TEST(Ilp, FractionalRelaxationRequiresBranching)
{
    // LP relaxation is fractional; the ILP must still find the integral
    // optimum. min x1+x2 st 2x1+2x2 >= 3 -> LP 1.5, ILP 2.
    IntegerProgram ilp(2);
    ilp.setObjective({1.0, 1.0});
    ilp.addConstraint({2.0, 2.0}, Relation::GreaterEqual, 3.0);
    const IlpResult result = ilp.solve();
    ASSERT_EQ(result.status, IlpStatus::Optimal);
    EXPECT_NEAR(result.objective, 2.0, 1e-9);
    EXPECT_GT(result.nodesExplored, 1);
}

// ------------------------------------------------------------ ParetoDP

/**
 * The flat stage loop, kept as the reference the production solver must
 * reproduce bit for bit: per stage it extends every parent by every
 * config, filters the whole stage once per last-config bucket, sorts
 * each bucket by the total order (finish, cost, parent finish, parent
 * cost, parent index), prunes, thins to kMaxBucketStates and copies the
 * stage. An empty switchCost means zero switch costs.
 */
ScheduleSolution
referenceSolve(const ScheduleProblem &problem)
{
    struct State
    {
        TimeMs finish = 0.0;
        TimeMs tardiness = 0.0;
        EnergyMj energy = 0.0;
        int lastConfig = 0;
        int parent = -1;
        int chosen = -1;
        TimeMs parentFinish = 0.0;
        double parentCost = 0.0;
        double cost() const { return tardiness * 1e12 + energy; }
    };
    int thinned_buckets = 0;
    const auto prune = [&thinned_buckets](std::vector<State> &states) {
        std::sort(states.begin(), states.end(),
                  [](const State &a, const State &b) {
                      if (a.finish != b.finish)
                          return a.finish < b.finish;
                      if (a.cost() != b.cost())
                          return a.cost() < b.cost();
                      if (a.parentFinish != b.parentFinish)
                          return a.parentFinish < b.parentFinish;
                      if (a.parentCost != b.parentCost)
                          return a.parentCost < b.parentCost;
                      return a.parent < b.parent;
                  });
        std::vector<State> kept;
        double min_cost = std::numeric_limits<double>::infinity();
        for (const State &s : states) {
            if (s.cost() < min_cost - 1e-12) {
                kept.push_back(s);
                min_cost = s.cost();
            }
        }
        const size_t cap = ParetoDpSolver::kMaxBucketStates;
        if (kept.size() > cap) {
            std::vector<State> thinned;
            const double step = static_cast<double>(kept.size() - 1) /
                static_cast<double>(cap - 1);
            for (size_t i = 0; i < cap; ++i) {
                thinned.push_back(kept[static_cast<size_t>(
                    std::round(step * static_cast<double>(i)))]);
            }
            kept = std::move(thinned);
            ++thinned_buckets;
        }
        states = std::move(kept);
    };

    const int n = static_cast<int>(problem.events.size());
    const int c = problem.numConfigs();
    std::vector<std::vector<State>> stages(static_cast<size_t>(n));
    State init;
    init.lastConfig = problem.initialConfig;
    std::vector<State> frontier{init};
    for (int i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[static_cast<size_t>(i)];
        std::vector<State> next;
        for (size_t s = 0; s < frontier.size(); ++s) {
            for (int j = 0; j < c; ++j) {
                const TimeMs lat = ev.latency[static_cast<size_t>(j)] +
                    (problem.switchCost.empty()
                         ? 0.0
                         : problem.switchCost[static_cast<size_t>(
                               frontier[s].lastConfig)]
                                             [static_cast<size_t>(j)]);
                State st;
                st.finish = frontier[s].finish + lat;
                st.energy = frontier[s].energy +
                    ev.energy[static_cast<size_t>(j)];
                st.tardiness = frontier[s].tardiness +
                    std::max(0.0, st.finish - ev.deadline);
                st.lastConfig = j;
                st.parent = static_cast<int>(s);
                st.chosen = j;
                st.parentFinish = frontier[s].finish;
                st.parentCost = frontier[s].cost();
                next.push_back(st);
            }
        }
        std::vector<State> pruned;
        for (int j = 0; j < c; ++j) {
            std::vector<State> bucket;
            for (const State &st : next) {
                if (st.lastConfig == j)
                    bucket.push_back(st);
            }
            prune(bucket);
            pruned.insert(pruned.end(), bucket.begin(), bucket.end());
        }
        stages[static_cast<size_t>(i)] = pruned;
        frontier = std::move(pruned);
    }

    const std::vector<State> &finals = stages.back();
    size_t best = 0;
    for (size_t s = 1; s < finals.size(); ++s) {
        const State &a = finals[s];
        const State &b = finals[best];
        if (a.tardiness < b.tardiness - 1e-12 ||
            (std::abs(a.tardiness - b.tardiness) <= 1e-12 &&
             a.energy < b.energy - 1e-12)) {
            best = s;
        }
    }
    ScheduleSolution solution;
    solution.configOf.assign(static_cast<size_t>(n), 0);
    solution.finishTime.assign(static_cast<size_t>(n), 0.0);
    int idx = static_cast<int>(best);
    for (int i = n - 1; i >= 0; --i) {
        const State &st =
            stages[static_cast<size_t>(i)][static_cast<size_t>(idx)];
        solution.configOf[static_cast<size_t>(i)] = st.chosen;
        solution.finishTime[static_cast<size_t>(i)] = st.finish;
        idx = st.parent;
    }
    solution.totalEnergy = finals[best].energy;
    solution.totalTardiness = finals[best].tardiness;
    solution.feasible = finals[best].tardiness <= 1e-9;
    solution.thinnedBuckets = thinned_buckets;
    return solution;
}

/**
 * A production-shaped chain: GlobalOptimizer::buildProblem over the
 * exynos5410 tables (17 configs, the platform switch-cost matrix,
 * VSync-floored deadlines) for @p events outstanding events whose
 * arrivals are up to @p max_gap ms apart: below ~60 ms deadlines are
 * missed, above it they bind loosely and the frontier grows past the
 * cap. Configs 2 and 9 copy configs 1 and 8, which forces
 * exact (finish, cost) ties between states reached through either.
 */
ScheduleProblem
productionShapedProblem(uint64_t seed, int events, TimeMs max_gap)
{
    const AcmpPlatform soc = AcmpPlatform::exynos5410();
    const PowerModel power(soc);
    const DvfsLatencyModel model(soc);
    const VsyncClock vsync;
    const GlobalOptimizer optimizer(model, power, vsync);
    Rng rng(seed);
    std::vector<PlanEventSpec> specs(static_cast<size_t>(events));
    TimeMs arrival = 0.0;
    for (PlanEventSpec &spec : specs) {
        spec.work = {rng.uniform(0.5, 6.0), rng.uniform(10.0, 120.0)};
        spec.qosTarget = rng.uniform(0.0, 1.0) < 0.3 ? 100.0 : 300.0;
        spec.arrival = arrival;
        arrival += rng.uniform(5.0, max_gap);
    }
    ScheduleProblem problem =
        optimizer.buildProblem(0.0, soc.minConfig(), specs);
    for (ScheduleEvent &ev : problem.events) {
        ev.latency[2] = ev.latency[1];
        ev.energy[2] = ev.energy[1];
        ev.latency[9] = ev.latency[8];
        ev.energy[9] = ev.energy[8];
    }
    return problem;
}

bool
bitwiseEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}


/** Build a simple two-config problem for hand-checks. */
ScheduleProblem
twoConfigProblem()
{
    // Config 0: slow and cheap (10 ms, 1 mJ); config 1: fast and costly
    // (2 ms, 5 mJ).
    ScheduleProblem problem;
    for (int i = 0; i < 3; ++i) {
        ScheduleEvent ev;
        ev.latency = {10.0, 2.0};
        ev.energy = {1.0, 5.0};
        ev.deadline = 1e9;
        problem.events.push_back(ev);
    }
    return problem;
}

TEST(ParetoDp, PicksCheapWhenDeadlinesLoose)
{
    const ScheduleProblem problem = twoConfigProblem();
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf, (std::vector<int>{0, 0, 0}));
    EXPECT_NEAR(sol.totalEnergy, 3.0, 1e-9);
    EXPECT_NEAR(sol.finishTime.back(), 30.0, 1e-9);
}

TEST(ParetoDp, UsesFastConfigToMeetTightDeadline)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.events[1].deadline = 13.0;  // slow+slow = 20 > 13
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    // One of the first two events must be fast; the cheapest way is one
    // fast + one slow (12 ms <= 13), then slow.
    EXPECT_NEAR(sol.totalEnergy, 7.0, 1e-9);
    EXPECT_LE(sol.finishTime[1], 13.0 + 1e-9);
}

TEST(ParetoDp, LexicographicTardinessWhenInfeasible)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.events[0].deadline = 1.0;  // unmeetable (fastest is 2 ms)
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_FALSE(sol.feasible);
    // Minimum possible tardiness = 2 - 1 = 1 (run event 0 fast).
    EXPECT_NEAR(sol.totalTardiness, 1.0, 1e-9);
    EXPECT_EQ(sol.configOf[0], 1);
}

TEST(ParetoDp, SwitchCostsCharged)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.events.resize(2);
    problem.switchCost = {{0.0, 1.0}, {1.0, 0.0}};
    problem.initialConfig = 0;
    problem.events[0].deadline = 1e9;
    problem.events[1].deadline = 1e9;
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    // All-slow from initial 0: no switches, finish 20.
    EXPECT_EQ(sol.configOf, (std::vector<int>{0, 0}));
    EXPECT_NEAR(sol.finishTime.back(), 20.0, 1e-9);
}

TEST(ParetoDp, SwitchCostCanMakeStayingCheaperFeasible)
{
    // Deadline forces event 0 fast; event 1 can then be slow but pays a
    // switch back. The DP must account for both transitions.
    ScheduleProblem problem = twoConfigProblem();
    problem.events.resize(2);
    problem.switchCost = {{0.0, 3.0}, {3.0, 0.0}};
    problem.initialConfig = 1;
    problem.events[0].deadline = 2.5;   // fast only (no switch from 1)
    problem.events[1].deadline = 16.0;
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(sol.feasible);
    EXPECT_EQ(sol.configOf[0], 1);
    // Slow for event 1: 2 + 3 (switch) + 10 = 15 <= 16 -> feasible and
    // cheaper.
    EXPECT_EQ(sol.configOf[1], 0);
}

TEST(ParetoDp, EmptyProblemIsTriviallyFeasible)
{
    const ScheduleSolution sol = ParetoDpSolver().solve(ScheduleProblem{});
    EXPECT_TRUE(sol.feasible);
    EXPECT_EQ(sol.totalEnergy, 0.0);
}

TEST(ParetoDp, LongChainStaysFast)
{
    // 80 events x 17 configs must solve in well under a second (the
    // regression that once hung the oracle).
    Rng rng(77);
    ScheduleProblem problem;
    for (int i = 0; i < 80; ++i) {
        ScheduleEvent ev;
        for (int j = 0; j < 17; ++j) {
            const double lat = rng.uniform(1.0, 50.0);
            ev.latency.push_back(lat);
            ev.energy.push_back(lat * rng.uniform(0.1, 3.0));
        }
        ev.deadline = 40.0 * (i + 1);
        problem.events.push_back(ev);
    }
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_EQ(sol.configOf.size(), 80u);
}

// ---------------------- DP == ILP equivalence (property) ----------------

/** Random Eqn.-5 instances; the DP must match branch-and-bound exactly. */
class DpIlpEquivalence : public ::testing::TestWithParam<int>
{
};

/** A random small Eqn.-5 instance whose deadlines are always feasible. */
ScheduleProblem
randomEqn5Problem(int seed)
{
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
    const int n = rng.uniformInt(2, 5);
    const int c = rng.uniformInt(2, 4);

    ScheduleProblem problem;
    double chain_min = 0.0;
    for (int i = 0; i < n; ++i) {
        ScheduleEvent ev;
        double fastest = std::numeric_limits<double>::infinity();
        for (int j = 0; j < c; ++j) {
            const double lat = rng.uniform(1.0, 20.0);
            ev.latency.push_back(lat);
            // Faster should generally be costlier, with noise.
            ev.energy.push_back((30.0 - lat) * rng.uniform(0.5, 1.5));
            fastest = std::min(fastest, lat);
        }
        chain_min += fastest;
        // Deadline: sometimes tight, sometimes loose, always feasible.
        ev.deadline = chain_min * rng.uniform(1.05, 2.5);
        problem.events.push_back(ev);
    }
    return problem;
}

TEST_P(DpIlpEquivalence, SameOptimalEnergy)
{
    const ScheduleProblem problem = randomEqn5Problem(GetParam());
    const ScheduleSolution dp = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(dp.feasible);
    EXPECT_EQ(dp.thinnedBuckets, 0);

    IntegerProgram ilp = problem.toIlp();
    const IlpResult reference = ilp.solve();
    ASSERT_EQ(reference.status, IlpStatus::Optimal);

    EXPECT_NEAR(dp.totalEnergy, reference.objective, 1e-6)
        << "DP and branch-and-bound disagree on instance "
        << GetParam();
}

TEST_P(DpIlpEquivalence, ZeroSwitchMatrixSameOptimalEnergy)
{
    // An explicit all-zero matrix is the Eqn. 5 formulation too; the DP
    // must reach the ILP optimum from any initial config.
    ScheduleProblem problem = randomEqn5Problem(GetParam());
    const size_t c = static_cast<size_t>(problem.numConfigs());
    problem.switchCost.assign(c, std::vector<TimeMs>(c, 0.0));
    problem.initialConfig = GetParam() % problem.numConfigs();
    const ScheduleSolution dp = ParetoDpSolver().solve(problem);
    ASSERT_TRUE(dp.feasible);
    EXPECT_EQ(dp.thinnedBuckets, 0);

    const IlpResult reference = problem.toIlp().solve();
    ASSERT_EQ(reference.status, IlpStatus::Optimal);
    EXPECT_NEAR(dp.totalEnergy, reference.objective, 1e-6)
        << "DP and branch-and-bound disagree on instance "
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpIlpEquivalence,
                         ::testing::Range(0, 25));

/** The DP solution must satisfy every constraint it claims to satisfy. */
class DpFeasibilityCheck : public ::testing::TestWithParam<int>
{
};

TEST_P(DpFeasibilityCheck, ReportedScheduleIsConsistent)
{
    Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
    const int n = rng.uniformInt(2, 8);
    const int c = rng.uniformInt(2, 6);

    ScheduleProblem problem;
    for (int i = 0; i < n; ++i) {
        ScheduleEvent ev;
        for (int j = 0; j < c; ++j) {
            ev.latency.push_back(rng.uniform(1.0, 30.0));
            ev.energy.push_back(rng.uniform(1.0, 50.0));
        }
        ev.deadline = rng.uniform(5.0, 40.0 * n);
        problem.events.push_back(ev);
    }

    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_EQ(sol.thinnedBuckets, 0);
    // Recompute the chain from the reported configs.
    double t = 0.0;
    double energy = 0.0;
    double tardiness = 0.0;
    for (int i = 0; i < n; ++i) {
        const int j = sol.configOf[static_cast<size_t>(i)];
        t += problem.events[static_cast<size_t>(i)]
                 .latency[static_cast<size_t>(j)];
        energy += problem.events[static_cast<size_t>(i)]
                      .energy[static_cast<size_t>(j)];
        tardiness += std::max(
            0.0, t - problem.events[static_cast<size_t>(i)].deadline);
        EXPECT_NEAR(sol.finishTime[static_cast<size_t>(i)], t, 1e-9);
    }
    EXPECT_NEAR(sol.totalEnergy, energy, 1e-9);
    EXPECT_NEAR(sol.totalTardiness, tardiness, 1e-9);
    EXPECT_EQ(sol.feasible, tardiness <= 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpFeasibilityCheck,
                         ::testing::Range(0, 20));

TEST(ScheduleProblem, ToIlpRejectsSwitchCosts)
{
    ScheduleProblem problem = twoConfigProblem();
    problem.switchCost = {{0.0, 1.0}, {1.0, 0.0}};
    EXPECT_DEATH((void)problem.toIlp(), "switch costs");
}

// ------------------ production loop == reference loop (property) --------

/**
 * A random switch-cost matrix over @p configs configurations. Entries
 * come from a few values, so several source configs share a switch cost
 * into a target, and every column orders the sources differently: the
 * groups the solver sweeps are neither clusters nor nested across
 * targets.
 */
std::vector<std::vector<TimeMs>>
randomSwitchMatrix(uint64_t seed, int configs)
{
    const TimeMs values[] = {0.0, 0.02, 0.1, 0.12, 0.5};
    Rng rng(seed);
    const size_t c = static_cast<size_t>(configs);
    std::vector<std::vector<TimeMs>> matrix(c, std::vector<TimeMs>(c));
    for (std::vector<TimeMs> &row : matrix) {
        for (TimeMs &cost : row)
            cost = values[rng.uniformInt(0, 4)];
    }
    return matrix;
}

/** Every field of @p got is bitwise equal to @p want's. */
void
expectSameSolution(const ScheduleSolution &got, const ScheduleSolution &want)
{
    EXPECT_EQ(got.configOf, want.configOf);
    ASSERT_EQ(got.finishTime.size(), want.finishTime.size());
    for (size_t i = 0; i < got.finishTime.size(); ++i) {
        EXPECT_TRUE(bitwiseEqual(got.finishTime[i], want.finishTime[i]))
            << "event " << i;
    }
    EXPECT_TRUE(bitwiseEqual(got.totalEnergy, want.totalEnergy));
    EXPECT_TRUE(bitwiseEqual(got.totalTardiness, want.totalTardiness));
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.thinnedBuckets, want.thinnedBuckets);
}

/**
 * Production-shaped instances, some wide enough that the cap fires: the
 * solver must pick the same schedule as the flat reference loop, bit for
 * bit, including which of several exactly tied states survives — so the
 * parents it skips are exactly ones the flat loop would have pruned.
 */
class DpMatchesReference : public ::testing::TestWithParam<int>
{
};

TEST_P(DpMatchesReference, BitwiseIdenticalSchedule)
{
    const ScheduleProblem problem = productionShapedProblem(
        static_cast<uint64_t>(GetParam()) * 6151 + 3, 30 + GetParam() % 7,
        30.0 + 10.0 * GetParam());
    const ScheduleSolution got = ParetoDpSolver().solve(problem);
    expectSameSolution(got, referenceSolve(problem));
    EXPECT_GT(got.thinnedBuckets, 0) << "instance no longer hits the cap";
}

TEST_P(DpMatchesReference, NonNestedSwitchMatrix)
{
    ScheduleProblem problem = productionShapedProblem(
        static_cast<uint64_t>(GetParam()) * 3571 + 17, 20 + GetParam() % 5,
        40.0 + 15.0 * GetParam());
    problem.switchCost = randomSwitchMatrix(
        static_cast<uint64_t>(GetParam()) + 101, problem.numConfigs());
    expectSameSolution(ParetoDpSolver().solve(problem),
                       referenceSolve(problem));
}

TEST_P(DpMatchesReference, TardyHeavyDeadlines)
{
    // Loose arrivals, then every deadline cut to 60 %: about half the
    // instances cannot meet every deadline, and the frontiers mix tardy
    // and on-time states, so the sweep must compare tardiness and energy
    // separately (a folded-cost dominance check fails here).
    ScheduleProblem problem = productionShapedProblem(
        static_cast<uint64_t>(GetParam()) * 7919 + 29, 24 + GetParam() % 6,
        130.0);
    for (ScheduleEvent &ev : problem.events)
        ev.deadline *= 0.6;
    expectSameSolution(ParetoDpSolver().solve(problem),
                       referenceSolve(problem));
}

TEST_P(DpMatchesReference, EmptySwitchCost)
{
    ScheduleProblem problem = productionShapedProblem(
        static_cast<uint64_t>(GetParam()) * 4099 + 7, 24 + GetParam() % 6,
        30.0 + 10.0 * GetParam());
    problem.switchCost.clear();
    problem.initialConfig = GetParam() % problem.numConfigs();
    expectSameSolution(ParetoDpSolver().solve(problem),
                       referenceSolve(problem));
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DpMatchesReference,
                         ::testing::Range(0, 12));

TEST(ParetoDp, RejectsMoreConfigsThanAGroupMaskHolds)
{
    ScheduleProblem problem;
    ScheduleEvent ev;
    ev.latency.assign(ParetoDpSolver::kMaxConfigs + 1, 1.0);
    ev.energy.assign(ParetoDpSolver::kMaxConfigs + 1, 1.0);
    ev.deadline = 10.0;
    problem.events.push_back(ev);
    EXPECT_DEATH((void)ParetoDpSolver().solve(problem), "at most 64");
}

TEST(ParetoDp, ThinnedBucketsCountsEveryCappedBucket)
{
    // Event i runs fast (1 ms, 2^i mJ) or slow (1 + 2^i ms, 0 mJ), with
    // no deadlines: every one of the 2^n schedules has a distinct finish
    // and finish + energy is constant, so all are Pareto-optimal. After
    // event i each of the two last-config buckets holds 2^i states; the
    // cap fires from 2^i > 256, i.e. on both buckets of events 9..11.
    ScheduleProblem problem;
    for (int i = 0; i < 12; ++i) {
        ScheduleEvent ev;
        const double weight = std::ldexp(1.0, i);
        ev.latency = {1.0, 1.0 + weight};
        ev.energy = {weight, 0.0};
        ev.deadline = std::numeric_limits<double>::infinity();
        problem.events.push_back(ev);
    }
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_EQ(sol.thinnedBuckets, 6);
    EXPECT_TRUE(sol.feasible);

    // Nine events stay at 256 states per bucket: exact, nothing thinned.
    problem.events.resize(9);
    EXPECT_EQ(ParetoDpSolver().solve(problem).thinnedBuckets, 0);
}

TEST(ParetoDp, EqualFinishRunsAreOrderedByCost)
{
    // Event 0 ends at 1 ms or one ulp later at half the energy; event 1
    // adds 1000 ms, which rounds both finishes to 1001. The later parent
    // is cheaper, so its candidate must come first and prune the other:
    // each bucket keeps one state. The nine all-Pareto events after that
    // (as in ThinnedBucketsCountsEveryCappedBucket) double each bucket
    // per event up to exactly the cap, so one stale state would thin.
    ScheduleProblem problem;
    ScheduleEvent ev;
    ev.deadline = std::numeric_limits<double>::infinity();
    ev.latency = {1.0, std::nextafter(1.0, 2.0)};
    ev.energy = {10.0, 5.0};
    problem.events.push_back(ev);
    ev.latency = {1000.0, 1000.0};
    ev.energy = {1.0, 1.0};
    problem.events.push_back(ev);
    for (int i = 0; i < 9; ++i) {
        const double weight = std::ldexp(1.0, i);
        ev.latency = {1.0, 1.0 + weight};
        ev.energy = {weight, 0.0};
        problem.events.push_back(ev);
    }
    const ScheduleSolution sol = ParetoDpSolver().solve(problem);
    EXPECT_EQ(sol.thinnedBuckets, 0);
    expectSameSolution(sol, referenceSolve(problem));
}

TEST(ParetoDp, ReusedSolverMatchesFreshSolver)
{
    // The stage buffers persist across solves; a wide solve followed by
    // a narrow one must leave nothing behind.
    const ParetoDpSolver reused;
    const ScheduleProblem wide = productionShapedProblem(11, 30, 120.0);
    const ScheduleProblem narrow = productionShapedProblem(5, 6, 40.0);
    for (const ScheduleProblem *problem : {&wide, &narrow, &wide}) {
        const ScheduleSolution got = reused.solve(*problem);
        const ScheduleSolution want = ParetoDpSolver().solve(*problem);
        EXPECT_EQ(got.configOf, want.configOf);
        EXPECT_EQ(got.finishTime, want.finishTime);
        EXPECT_TRUE(bitwiseEqual(got.totalEnergy, want.totalEnergy));
        EXPECT_EQ(got.thinnedBuckets, want.thinnedBuckets);
    }
}

TEST(GlobalOptimizer, ReboundOptimizerPlansLikeAFreshOne)
{
    // PES keeps one optimizer per pooled driver and rebinds it to each
    // session's models: after a rebind to another platform it must plan
    // exactly like an optimizer built for that platform.
    const AcmpPlatform exynos = AcmpPlatform::exynos5410();
    const AcmpPlatform tegra = AcmpPlatform::tegraParker();
    const PowerModel exynos_power(exynos);
    const PowerModel tegra_power(tegra);
    const DvfsLatencyModel exynos_model(exynos);
    const DvfsLatencyModel tegra_model(tegra);
    const VsyncClock vsync;
    Rng rng(41);
    std::vector<PlanEventSpec> specs(12);
    TimeMs arrival = 0.0;
    for (PlanEventSpec &spec : specs) {
        spec.work = {rng.uniform(0.5, 6.0), rng.uniform(10.0, 120.0)};
        spec.arrival = arrival;
        arrival += rng.uniform(5.0, 80.0);
    }

    GlobalOptimizer rebound(exynos_model, exynos_power, vsync);
    (void)rebound.planSchedule(0.0, exynos.minConfig(), specs);
    rebound.rebind(tegra_model, tegra_power, vsync);
    const GlobalOptimizer fresh(tegra_model, tegra_power, vsync);

    EXPECT_EQ(rebound.buildProblem(0.0, tegra.minConfig(), specs).switchCost,
              fresh.buildProblem(0.0, tegra.minConfig(), specs).switchCost);
    const ScheduleSolution got =
        rebound.planSchedule(0.0, tegra.minConfig(), specs);
    const ScheduleSolution want =
        fresh.planSchedule(0.0, tegra.minConfig(), specs);
    expectSameSolution(got, want);
}

} // namespace
} // namespace pes
