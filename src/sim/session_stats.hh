/**
 * @file
 * Compact per-session reduction of one simulated session.
 *
 * SessionStats is the unit of record for fleet aggregation: a few dozen
 * scalars reduced from a session, cheap enough to retain for fleets far
 * beyond what keeping raw SimResults allows. It lives in the sim layer so
 * the simulator can produce it directly on the stats-only fast path (no
 * materialized SimResult at all); the classic reduce(SimResult) entry
 * point remains for callers that do hold full results.
 */

#ifndef PES_SIM_SESSION_STATS_HH
#define PES_SIM_SESSION_STATS_HH

#include <vector>

#include "sim/sim_types.hh"
#include "util/psketch.hh"

namespace pes {

/** Compact per-session reduction of one simulated session. */
struct SessionStats
{
    int events = 0;
    int violations = 0;
    double totalEnergyMj = 0.0;
    double busyEnergyMj = 0.0;
    double idleEnergyMj = 0.0;
    double overheadEnergyMj = 0.0;
    double wasteEnergyMj = 0.0;
    double durationMs = 0.0;
    /** Event-weighted mean latency within the session. */
    double meanLatencyMs = 0.0;
    double p95LatencyMs = 0.0;
    double maxLatencyMs = 0.0;
    int predictionsMade = 0;
    int predictionsCorrect = 0;
    int mispredictions = 0;
    double mispredictWasteMs = 0.0;
    double avgQueueLength = 0.0;
    bool fellBackToReactive = false;
    /**
     * Per-event latency sketch of the session: merged bin-wise across
     * sessions at reduction, it yields true event-level p50/p95/p99
     * per cell from bounded memory, for fleets of any size. Filled on
     * both the full-result and the stats-only fast path.
     */
    PercentileSketch latencySketch;

    /** Reduce a full simulation result (through fold()). */
    static SessionStats reduce(const SimResult &result);

    /**
     * The one session reduction both simulator paths share: latency
     * statistics over @p latencies (per event, in trace order) with
     * @p violations deadline misses, plus the session totals of
     * @p totals — energy, duration, predictions, queue length, fallback.
     * @p totals.events is not read, so the stats-only fast path passes
     * a result that never materialized per-event records.
     */
    static SessionStats fold(const SimResult &totals,
                             const std::vector<double> &latencies,
                             int violations);
};

} // namespace pes

#endif // PES_SIM_SESSION_STATS_HH
