/**
 * @file
 * The PES scheduling formulation and its custom solver.
 *
 * Paper Sec. 5.3 (Eqns. 2-5): pick exactly one ACMP configuration per
 * event so that the chain of event executions meets every event's deadline
 * while the total energy  sum_i p(i) * dt(i)  is minimized. The paper
 * implements "our own solver customized to this particular formulation" —
 * this file is that solver: a dynamic program over Pareto-optimal
 * (finish time, tardiness, energy) states per event, bucketed by the
 * configuration of the last event so that DVFS-switch and migration
 * costs are charged exactly.
 *
 * Candidates are ordered by a total order, (finish, cost, parent finish,
 * parent cost, parent index), so the result never depends on how a sort
 * breaks ties. Before extending, each stage drops parents that an earlier
 * parent dominates in finish, tardiness and energy with a switch cost no
 * higher; such a parent's candidate would be pruned anyway, so the
 * result is exactly that of extending every parent. Each bucket keeps at
 * most ParetoDpSolver::kMaxBucketStates states; the result is exact only
 * while no bucket exceeds that cap (ScheduleSolution::thinnedBuckets
 * counts the buckets that did).
 *
 * When no assignment can meet all deadlines (e.g. an inherently heavy
 * Type I event with an immediate conservative deadline), the solver
 * degrades lexicographically: minimize total tardiness first, then energy.
 *
 * toIlp() emits the paper's exact ILP (Eqn. 5) for the generic
 * branch-and-bound solver; property tests assert both agree.
 */

#ifndef PES_SOLVER_SCHEDULE_PROBLEM_HH
#define PES_SOLVER_SCHEDULE_PROBLEM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/ilp.hh"
#include "util/types.hh"

namespace pes {

/**
 * One event to schedule: per-configuration latency and energy plus an
 * absolute deadline (relative to the chain start at t = 0).
 */
struct ScheduleEvent
{
    /** Execution latency under each configuration (ms). */
    std::vector<TimeMs> latency;
    /** Energy under each configuration (mJ): p(j) * dt(i,j). */
    std::vector<EnergyMj> energy;
    /** Deadline relative to chain start; infinity = unconstrained. */
    TimeMs deadline = 0.0;
};

/**
 * The chain-scheduling problem over N events and C configurations.
 */
struct ScheduleProblem
{
    std::vector<ScheduleEvent> events;
    /**
     * Optional switch-cost matrix: switchCost[a][b] is added to the
     * latency when an event runs on configuration b after configuration a.
     * Empty = all switch costs zero (the Eqn. 5 formulation).
     */
    std::vector<std::vector<TimeMs>> switchCost;
    /** Configuration active before the first event. */
    int initialConfig = 0;

    /** Number of configurations (from the first event). */
    int numConfigs() const
    {
        return events.empty()
            ? 0 : static_cast<int>(events.front().latency.size());
    }

    /**
     * Emit the paper's ILP (Eqn. 5). Requires every switch cost to be
     * zero (switch costs make the constraints non-linear in tau).
     */
    IntegerProgram toIlp() const;
};

/**
 * Solution: one configuration per event.
 */
struct ScheduleSolution
{
    /** True when every deadline is met. */
    bool feasible = false;
    /** Chosen configuration index per event. */
    std::vector<int> configOf;
    /** Total energy of the chosen assignment. */
    EnergyMj totalEnergy = 0.0;
    /** Total tardiness (0 when feasible). */
    TimeMs totalTardiness = 0.0;
    /** Finish time of each event, relative to chain start. */
    std::vector<TimeMs> finishTime;
    /**
     * Buckets whose Pareto frontier exceeded
     * ParetoDpSolver::kMaxBucketStates and was index-thinned during this
     * solve. 0 means the solution is the exact optimum.
     */
    int thinnedBuckets = 0;
};

/**
 * Pareto-frontier dynamic program for ScheduleProblem.
 *
 * The stage and candidate buffers live in the instance and are reused by
 * every solve, so one instance must not solve on two threads at once;
 * give each worker its own (each GlobalOptimizer owns one).
 */
class ParetoDpSolver
{
  public:
    /** Frontier states kept per last-configuration bucket. */
    static constexpr size_t kMaxBucketStates = 256;

    /** Most configurations a problem may have (group masks are 64-bit). */
    static constexpr int kMaxConfigs = 64;

    /**
     * Solve the chain problem. Objective is lexicographic (total
     * tardiness, total energy); when no bucket was thinned
     * (thinnedBuckets == 0), feasible instances get the minimum-energy
     * deadline-meeting assignment (the Eqn. 5 optimum).
     */
    ScheduleSolution solve(const ScheduleProblem &problem) const;

  private:
    /** One Pareto state after scheduling a prefix of events. */
    struct DpState
    {
        TimeMs finish = 0.0;
        TimeMs tardiness = 0.0;
        EnergyMj energy = 0.0;
        /** tardiness * kTardinessWeight + energy. */
        double cost = 0.0;
        /** Configuration of the last scheduled event (its bucket). */
        int lastConfig = 0;
        /** Index of the parent within the previous stage. */
        int parent = -1;
    };

    /** Sort key of one candidate of the bucket being built. */
    struct Candidate
    {
        TimeMs finish;
        /** tardiness * kTardinessWeight + energy, computed once. */
        double cost;
        /**
         * Position of the parent in the stage's (finish, cost, index)
         * order: the last three keys of the total order in one int.
         */
        int rank;
        /** Index of the parent within the previous stage. */
        int parent;
    };

    /** Parents of one group that survived its dominance sweep. */
    struct Group
    {
        /** Parent buckets in the group, one bit per configuration. */
        uint64_t mask;
        /** Range of the survivors in Workspace::members. */
        size_t begin;
        size_t end;
    };

    /** Buffers reused across solves (capacity only; no state leaks). */
    struct Workspace
    {
        /** Every stage's states back to back; stage 0 is the start. */
        std::vector<DpState> states;
        /** Offset of each stage in `states`. */
        std::vector<size_t> stageBegin;
        /** Bucket offsets of the parent stage, then of the stage built. */
        std::vector<size_t> parentBuckets;
        std::vector<size_t> childBuckets;
        /** Parent indices in (finish, cost, index) order; its inverse. */
        std::vector<int> order;
        std::vector<int> rankOf;
        std::vector<int> orderScratch;
        /** The stage's swept groups and their surviving parents. */
        std::vector<Group> groups;
        std::vector<int> members;
        /** Candidates of the bucket being built, then its survivors. */
        std::vector<Candidate> bucket;
        std::vector<Candidate> bucketScratch;
        /** Boundaries of the sorted runs being merged. */
        std::vector<size_t> runs;
        /** Column of the switch-cost matrix into the bucket's config. */
        std::vector<TimeMs> switchInto;
        /** Distinct switch costs into the bucket's config, ascending. */
        std::vector<TimeMs> levels;
    };

    /** The survivors of the group @p mask, swept on first use. */
    Group group(uint64_t mask, const DpState *prev) const;

    mutable Workspace work_;
};

} // namespace pes

#endif // PES_SOLVER_SCHEDULE_PROBLEM_HH
