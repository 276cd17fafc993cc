#include "solver/schedule_problem.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace pes {

IntegerProgram
ScheduleProblem::toIlp() const
{
    for (const std::vector<TimeMs> &row : switchCost) {
        panic_if(std::any_of(row.begin(), row.end(),
                             [](TimeMs cost) { return cost != 0.0; }),
                 "toIlp: switch costs are not expressible in the Eqn. 5 "
                 "ILP");
    }
    const int n = static_cast<int>(events.size());
    const int c = numConfigs();
    panic_if(n == 0, "toIlp: empty problem");

    // Variables: tau(i, j) laid out row-major.
    IntegerProgram ilp(n * c);
    auto var = [c](int i, int j) { return i * c + j; };

    std::vector<double> objective(static_cast<size_t>(n * c), 0.0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < c; ++j) {
            objective[static_cast<size_t>(var(i, j))] =
                events[static_cast<size_t>(i)].energy
                    [static_cast<size_t>(j)];
        }
    }
    ilp.setObjective(std::move(objective));

    // Eqn. 2: each event picks exactly one configuration.
    for (int i = 0; i < n; ++i) {
        std::vector<double> row(static_cast<size_t>(n * c), 0.0);
        for (int j = 0; j < c; ++j)
            row[static_cast<size_t>(var(i, j))] = 1.0;
        ilp.addConstraint(std::move(row), Relation::Equal, 1.0);
    }

    // Eqn. 4: prefix-sum latencies within each deadline.
    for (int i = 0; i < n; ++i) {
        const TimeMs deadline = events[static_cast<size_t>(i)].deadline;
        if (!std::isfinite(deadline))
            continue;
        std::vector<double> row(static_cast<size_t>(n * c), 0.0);
        for (int k = 0; k <= i; ++k) {
            for (int j = 0; j < c; ++j) {
                row[static_cast<size_t>(var(k, j))] =
                    events[static_cast<size_t>(k)].latency
                        [static_cast<size_t>(j)];
            }
        }
        ilp.addConstraint(std::move(row), Relation::LessEqual, deadline);
    }

    return ilp;
}

namespace {

/**
 * Weight folding tardiness and energy into one scalar cost. Any positive
 * tardiness above ~1e-6 ms outweighs every achievable energy total, which
 * realizes the lexicographic (tardiness, energy) objective; on feasible
 * instances (tardiness 0) the cost *is* the energy.
 */
constexpr double kTardinessWeight = 1e12;

} // namespace

ScheduleSolution
ParetoDpSolver::solve(const ScheduleProblem &problem) const
{
    ScheduleSolution solution;
    const int n = static_cast<int>(problem.events.size());
    if (n == 0) {
        solution.feasible = true;
        return solution;
    }
    const int c = problem.numConfigs();
    const size_t configs = static_cast<size_t>(c);
    panic_if(c == 0, "ParetoDpSolver: no configurations");
    panic_if(problem.initialConfig < 0 || problem.initialConfig >= c,
             "ParetoDpSolver: initial config %d out of range",
             problem.initialConfig);
    const bool use_switch = !problem.switchCost.empty();
    panic_if(use_switch && problem.switchCost.size() != configs,
             "ParetoDpSolver: switch-cost matrix is not %d x %d", c, c);

    std::vector<DpState> &states = work_.states;
    std::vector<size_t> &stage_begin = work_.stageBegin;
    std::vector<Candidate> &bucket = work_.bucket;
    std::vector<TimeMs> &switch_into = work_.switchInto;
    states.clear();
    stage_begin.clear();
    switch_into.assign(configs, 0.0);

    DpState start;
    start.lastConfig = problem.initialConfig;
    states.push_back(start);
    stage_begin.push_back(0);

    for (int i = 0; i < n; ++i) {
        const ScheduleEvent &ev = problem.events[static_cast<size_t>(i)];
        panic_if(ev.latency.size() != configs || ev.energy.size() != configs,
                 "ParetoDpSolver: ragged event table at %d", i);

        const size_t from = stage_begin.back();
        const size_t parents = states.size() - from;
        stage_begin.push_back(states.size());
        // Each bucket keeps at most min(parents, cap) states. Growing
        // here, before any survivor is appended, keeps `prev` valid for
        // the whole stage.
        const size_t need = states.size() +
            configs * std::min(parents, kMaxBucketStates);
        if (states.capacity() < need)
            states.reserve(std::max(need, 2 * states.capacity()));
        const DpState *prev = states.data() + from;
        bucket.resize(parents);

        // Bucket j holds every parent extended by config j, in ascending
        // parent order: the sequence a filter over the whole stage would
        // hand std::sort, so the sort breaks exact (finish, cost) ties
        // the same way and the chosen schedules never change.
        for (size_t j = 0; j < configs; ++j) {
            if (use_switch) {
                for (size_t a = 0; a < configs; ++a)
                    switch_into[a] = problem.switchCost[a][j];
            }
            const TimeMs latency = ev.latency[j];
            const EnergyMj energy = ev.energy[j];
            for (size_t s = 0; s < parents; ++s) {
                const DpState &p = prev[s];
                const TimeMs finish = p.finish +
                    (latency +
                     switch_into[static_cast<size_t>(p.lastConfig)]);
                const TimeMs tardiness = p.tardiness +
                    std::max(0.0, finish - ev.deadline);
                bucket[s] = {finish,
                             tardiness * kTardinessWeight +
                                 (p.energy + energy),
                             static_cast<int>(s)};
            }
            std::sort(bucket.begin(), bucket.end(),
                      [](const Candidate &a, const Candidate &b) {
                          if (a.finish != b.finish)
                              return a.finish < b.finish;
                          return a.cost < b.cost;
                      });

            // (finish, cost) Pareto frontier: after the sort, a
            // candidate survives only when its cost strictly beats every
            // earlier-finishing survivor. Compacted in place.
            size_t kept = 0;
            double min_cost = std::numeric_limits<double>::infinity();
            for (size_t k = 0; k < parents; ++k) {
                if (bucket[k].cost < min_cost - 1e-12) {
                    min_cost = bucket[k].cost;
                    bucket[kept++] = bucket[k];
                }
            }
            // Cap the frontier by index-thinning, which keeps the
            // cheapest and fastest extremes but can drop the optimum.
            // Source indices rise at least as fast as targets, so the
            // in-place copy never reads a slot it already overwrote.
            if (kept > kMaxBucketStates) {
                const double step = static_cast<double>(kept - 1) /
                    static_cast<double>(kMaxBucketStates - 1);
                for (size_t k = 0; k < kMaxBucketStates; ++k) {
                    bucket[k] = bucket[static_cast<size_t>(
                        std::round(step * static_cast<double>(k)))];
                }
                kept = kMaxBucketStates;
                ++solution.thinnedBuckets;
            }

            for (size_t k = 0; k < kept; ++k) {
                const Candidate &cand = bucket[k];
                const DpState &p = prev[static_cast<size_t>(cand.parent)];
                DpState st;
                st.finish = cand.finish;
                st.tardiness = p.tardiness +
                    std::max(0.0, cand.finish - ev.deadline);
                st.energy = p.energy + energy;
                st.lastConfig = static_cast<int>(j);
                st.parent = cand.parent;
                states.push_back(st);
            }
        }
    }

    // Pick the lexicographic (tardiness, energy) best final state.
    const size_t finals = stage_begin.back();
    panic_if(finals == states.size(), "ParetoDpSolver: lost all states");
    size_t best = finals;
    for (size_t s = finals + 1; s < states.size(); ++s) {
        const DpState &a = states[s];
        const DpState &b = states[best];
        if (a.tardiness < b.tardiness - 1e-12 ||
            (std::abs(a.tardiness - b.tardiness) <= 1e-12 &&
             a.energy < b.energy - 1e-12)) {
            best = s;
        }
    }

    // Reconstruct the assignment.
    solution.configOf.assign(static_cast<size_t>(n), 0);
    solution.finishTime.assign(static_cast<size_t>(n), 0.0);
    size_t idx = best;
    for (int i = n - 1; i >= 0; --i) {
        const DpState &st = states[idx];
        solution.configOf[static_cast<size_t>(i)] = st.lastConfig;
        solution.finishTime[static_cast<size_t>(i)] = st.finish;
        idx = stage_begin[static_cast<size_t>(i)] +
            static_cast<size_t>(st.parent);
    }
    const DpState &chosen = states[best];
    solution.totalEnergy = chosen.energy;
    solution.totalTardiness = chosen.tardiness;
    solution.feasible = chosen.tardiness <= 1e-9;
    return solution;
}

} // namespace pes
