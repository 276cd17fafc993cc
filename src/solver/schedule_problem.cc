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

/**
 * Merge the sorted runs of @p items, whose boundaries @p runs lists
 * (first 0, last items.size()), pairwise until one run is left; @p runs
 * ends as {0, size}. @p less must be a total order on the items, so the
 * result is the one sorted sequence whatever the merge pattern.
 */
template <typename T, typename Less>
void
mergeRuns(std::vector<T> &items, std::vector<T> &scratch,
          std::vector<size_t> &runs, Less less)
{
    scratch.resize(items.size());
    while (runs.size() > 2) {
        size_t out = 0;
        size_t k = 0;
        for (; k + 2 < runs.size(); k += 2) {
            std::merge(items.begin() + runs[k], items.begin() + runs[k + 1],
                       items.begin() + runs[k + 1],
                       items.begin() + runs[k + 2],
                       scratch.begin() + runs[k], less);
            runs[out++] = runs[k];
        }
        if (k + 1 < runs.size()) {
            std::copy(items.begin() + runs[k], items.begin() + runs[k + 1],
                      scratch.begin() + runs[k]);
            runs[out++] = runs[k];
        }
        runs[out++] = items.size();
        runs.resize(out);
        items.swap(scratch);
    }
}

/** Insertion sort: linear on the nearly sorted runs it is given. */
template <typename T, typename Less>
void
insertionSort(T *first, T *last, Less less)
{
    for (T *it = first + (first != last); it < last; ++it) {
        const T item = *it;
        T *hole = it;
        for (; hole != first && less(item, hole[-1]); --hole)
            *hole = hole[-1];
        *hole = item;
    }
}

} // namespace

ParetoDpSolver::Group
ParetoDpSolver::group(uint64_t mask, const DpState *prev) const
{
    for (const Group &g : work_.groups) {
        if (g.mask == mask)
            return g;
    }
    std::vector<int> &members = work_.members;
    Group g{mask, members.size(), 0};
    if ((mask & (mask - 1)) == 0) {
        // One bucket is its own (finish, cost) frontier: its finishes
        // rise strictly and its costs fall strictly, so no member
        // dominates another and its order is already the stage order.
        size_t a = 0;
        while (!(mask >> a & 1))
            ++a;
        for (size_t s = work_.parentBuckets[a];
             s < work_.parentBuckets[a + 1]; ++s) {
            members.push_back(static_cast<int>(s));
        }
    } else {
        // Walk the group in stage order, so every earlier member
        // finishes no later, and drop a member when the earlier member
        // with the least (tardiness, energy) is no worse in either.
        bool have_best = false;
        TimeMs best_tardiness = 0.0;
        EnergyMj best_energy = 0.0;
        for (const int s : work_.order) {
            const DpState &p = prev[s];
            if (!(mask >> p.lastConfig & 1))
                continue;
            if (have_best && best_tardiness <= p.tardiness &&
                best_energy <= p.energy) {
                continue;
            }
            members.push_back(s);
            if (!have_best || p.tardiness < best_tardiness ||
                (p.tardiness == best_tardiness &&
                 p.energy < best_energy)) {
                have_best = true;
                best_tardiness = p.tardiness;
                best_energy = p.energy;
            }
        }
    }
    g.end = members.size();
    work_.groups.push_back(g);
    return g;
}

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
    panic_if(c > kMaxConfigs,
             "ParetoDpSolver: %d configurations, at most %d supported", c,
             kMaxConfigs);
    panic_if(problem.initialConfig < 0 || problem.initialConfig >= c,
             "ParetoDpSolver: initial config %d out of range",
             problem.initialConfig);
    const bool use_switch = !problem.switchCost.empty();
    panic_if(use_switch && problem.switchCost.size() != configs,
             "ParetoDpSolver: switch-cost matrix is not %d x %d", c, c);

    Workspace &w = work_;
    std::vector<DpState> &states = w.states;
    std::vector<size_t> &stage_begin = w.stageBegin;
    std::vector<Candidate> &bucket = w.bucket;
    std::vector<TimeMs> &switch_into = w.switchInto;
    states.clear();
    stage_begin.clear();
    switch_into.assign(configs, 0.0);

    DpState start;
    start.lastConfig = problem.initialConfig;
    states.push_back(start);
    stage_begin.push_back(0);
    w.parentBuckets.assign(configs + 1, 0);
    std::fill(w.parentBuckets.begin() + problem.initialConfig + 1,
              w.parentBuckets.end(), 1);

    // The total order on candidates: (finish, cost), then the parent's
    // position in the (finish, cost, index) order of its stage.
    const auto candidate_before = [](const Candidate &a,
                                     const Candidate &b) {
        if (a.finish != b.finish)
            return a.finish < b.finish;
        if (a.cost != b.cost)
            return a.cost < b.cost;
        return a.rank < b.rank;
    };

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

        // Rank the parents by (finish, cost, index): each bucket is
        // already in that order, so merge the buckets.
        w.order.resize(parents);
        for (size_t s = 0; s < parents; ++s)
            w.order[s] = static_cast<int>(s);
        w.runs.assign(w.parentBuckets.begin(), w.parentBuckets.end());
        mergeRuns(w.order, w.orderScratch, w.runs,
                  [prev](int a, int b) {
                      const DpState &x = prev[a];
                      const DpState &y = prev[b];
                      if (x.finish != y.finish)
                          return x.finish < y.finish;
                      if (x.cost != y.cost)
                          return x.cost < y.cost;
                      return a < b;
                  });
        w.rankOf.resize(parents);
        for (size_t r = 0; r < parents; ++r)
            w.rankOf[static_cast<size_t>(w.order[r])] = static_cast<int>(r);
        w.groups.clear();
        w.members.clear();
        uint64_t occupied = 0;
        for (size_t a = 0; a < configs; ++a) {
            if (w.parentBuckets[a] < w.parentBuckets[a + 1])
                occupied |= uint64_t{1} << a;
        }

        w.childBuckets.clear();
        for (size_t j = 0; j < configs; ++j) {
            w.childBuckets.push_back(states.size() - stage_begin.back());
            if (use_switch) {
                for (size_t a = 0; a < configs; ++a)
                    switch_into[a] = problem.switchCost[a][j];
            }
            w.levels.clear();
            for (size_t a = 0; a < configs; ++a) {
                if (occupied >> a & 1)
                    w.levels.push_back(switch_into[a]);
            }
            std::sort(w.levels.begin(), w.levels.end());
            w.levels.erase(std::unique(w.levels.begin(), w.levels.end()),
                           w.levels.end());

            // Level v extends the parents that switch into j at cost v,
            // after a dominance sweep over every parent that switches
            // in at v or less. A dropped parent has an earlier one that
            // is no later, no tardier and no costlier in energy and
            // reaches j no later; every step of the extension is
            // monotone, so its candidate precedes this one in the total
            // order at no higher cost, and the prune below would have
            // discarded this one anyway.
            const TimeMs latency = ev.latency[j];
            const EnergyMj energy = ev.energy[j];
            bucket.clear();
            w.runs.assign(1, 0);
            for (const TimeMs level : w.levels) {
                uint64_t mask = 0;
                for (size_t a = 0; a < configs; ++a) {
                    if ((occupied >> a & 1) && switch_into[a] <= level)
                        mask |= uint64_t{1} << a;
                }
                const Group g = group(mask, prev);
                const size_t run_begin = bucket.size();
                for (size_t k = g.begin; k < g.end; ++k) {
                    const int s = w.members[k];
                    const DpState &p = prev[s];
                    if (switch_into[static_cast<size_t>(p.lastConfig)] !=
                        level) {
                        continue;
                    }
                    const TimeMs finish = p.finish + (latency + level);
                    const TimeMs tardiness = p.tardiness +
                        std::max(0.0, finish - ev.deadline);
                    bucket.push_back(
                        {finish,
                         tardiness * kTardinessWeight + (p.energy + energy),
                         w.rankOf[static_cast<size_t>(s)], s});
                }
                // One shift moves the whole level, so its finishes
                // already rise with rank; only runs of equal finish can
                // be out of cost order.
                insertionSort(bucket.data() + run_begin,
                              bucket.data() + bucket.size(),
                              candidate_before);
                w.runs.push_back(bucket.size());
            }
            mergeRuns(bucket, w.bucketScratch, w.runs, candidate_before);

            // (finish, cost) Pareto frontier: in sorted order, a
            // candidate survives only when its cost strictly beats every
            // earlier-finishing survivor. Compacted in place.
            size_t kept = 0;
            double min_cost = std::numeric_limits<double>::infinity();
            for (size_t k = 0; k < bucket.size(); ++k) {
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
                st.cost = cand.cost;
                st.lastConfig = static_cast<int>(j);
                st.parent = cand.parent;
                states.push_back(st);
            }
        }
        w.childBuckets.push_back(states.size() - stage_begin.back());
        w.parentBuckets.swap(w.childBuckets);
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
