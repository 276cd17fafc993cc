#include "sim/session_stats.hh"

#include <algorithm>

#include "util/stats.hh"

namespace pes {

SessionStats
SessionStats::reduce(const SimResult &result)
{
    std::vector<double> latencies;
    latencies.reserve(result.events.size());
    int violations = 0;
    for (const EventRecord &e : result.events) {
        violations += e.violated() ? 1 : 0;
        latencies.push_back(e.latency());
    }
    return fold(result, latencies, violations);
}

SessionStats
SessionStats::fold(const SimResult &totals,
                   const std::vector<double> &latencies, int violations)
{
    SessionStats s;
    s.events = static_cast<int>(latencies.size());
    s.violations = violations;
    SampleSet samples;
    double latency_sum = 0.0;
    for (const double lat : latencies) {
        latency_sum += lat;
        samples.add(lat);
        s.latencySketch.add(lat);
        s.maxLatencyMs = std::max(s.maxLatencyMs, lat);
    }
    if (s.events > 0) {
        s.meanLatencyMs = latency_sum / s.events;
        s.p95LatencyMs = samples.percentile(95.0);
    }
    s.totalEnergyMj = totals.totalEnergy;
    s.busyEnergyMj = totals.busyEnergy;
    s.idleEnergyMj = totals.idleEnergy;
    s.overheadEnergyMj = totals.overheadEnergy;
    s.wasteEnergyMj = totals.wasteEnergy;
    s.durationMs = totals.duration;
    s.predictionsMade = totals.predictionsMade;
    s.predictionsCorrect = totals.predictionsCorrect;
    s.mispredictions = totals.mispredictions;
    s.mispredictWasteMs = totals.mispredictWasteMs;
    s.avgQueueLength = totals.avgQueueLength;
    s.fellBackToReactive = totals.fellBackToReactive;
    return s;
}

} // namespace pes
