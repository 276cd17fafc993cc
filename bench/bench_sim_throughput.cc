/**
 * @file
 * Simulator throughput bench: sessions/sec and events/sec measured
 * through the telemetry subsystem, recorded as perf-history samples.
 *
 * Runs two fleet sweeps, each at several thread counts with an armed
 * TelemetryRegistry, keeping EVERY replicate (the replicate spread is
 * what the perf-history gate estimates noise from), and reports the
 * rates straight from the RunTelemetry summary — the same numbers
 * `pes_fleet run --telemetry-out` emits, so the bench also exercises
 * that pipeline end to end:
 *
 *   bench_sim          interactive,ondemand,ebs: the model-free event
 *                      loop alone;
 *   bench_sim_default  pes,ebs, the default sweep: adds the predictor
 *                      and the schedule solver, so a solver regression
 *                      cannot pass the gate unseen.
 *
 * Each sweep asserts its telemetry-armed report is byte-identical to an
 * uninstrumented run (the no-feedback contract), then APPENDS one
 * PerfSample line under its label to BENCH_sim.json in the perf-history
 * JSONL schema — the committed file is the throughput ledger, replayable
 * with `pes_perf report --history=BENCH_sim.json` and gateable per label
 * with `pes_perf gate --label=...`. Its numbers vary machine to machine
 * (the sample carries a machine fingerprint so foreign samples never
 * gate against each other).
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "telemetry/perf_history.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"

using namespace pes;

namespace {

constexpr int kRepetitions = 3;

/** One labelled sweep: a ledger label and the schedulers it runs. */
struct BenchSweep
{
    const char *label;
    std::vector<SchedulerKind> schedulers;
};

FleetConfig
sweepConfig(const BenchSweep &sweep)
{
    FleetConfig config;
    config.apps = parseAppList("cnn,amazon,social_feed");
    config.schedulers = sweep.schedulers;
    config.users = 32;
    return config;
}

/** All kRepetitions RunTelemetry replicates at @p threads. */
std::vector<RunTelemetry>
measure(const FleetConfig &base, int threads)
{
    std::vector<RunTelemetry> replicates;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        FleetConfig config = base;
        config.threads = threads;
        TelemetryRegistry telemetry;
        config.telemetry = &telemetry;
        FleetRunner runner(std::move(config));
        const FleetOutcome outcome = runner.run();
        fatal_if(!outcome.diagnostics.empty(),
                 "bench: run reported problems");
        RunTelemetry t = makeRunTelemetry(runner.config(), outcome);
        t.tool = "bench";
        replicates.push_back(std::move(t));
    }
    return replicates;
}

/** Report bytes of one run of @p base at t2, telemetry armed or not. */
std::string
reportBytes(const FleetConfig &base, bool armed)
{
    FleetConfig config = base;
    config.threads = 2;
    TelemetryRegistry telemetry;
    if (armed)
        config.telemetry = &telemetry;
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    return JsonReporter::toString(
        makeFleetReport(runner.config(), outcome.metrics));
}

/** Measure @p sweep, print its table and append its ledger sample. */
void
benchSweep(const BenchSweep &sweep)
{
    const FleetConfig base = sweepConfig(sweep);
    std::cout << sweep.label << ": " << base.jobCount()
              << " sessions per sweep (" << base.apps.size()
              << " apps x " << base.schedulers.size() << " schedulers x "
              << base.users << " users), " << kRepetitions
              << " replicates per thread count\n\n";

    // No-feedback check: the telemetry-armed report must match an
    // uninstrumented run byte for byte.
    fatal_if(reportBytes(base, true) != reportBytes(base, false),
             "%s: telemetry-armed report diverged from uninstrumented "
             "run", sweep.label);

    // Thread counts above the machine's core count measure scheduler
    // thrash, not simulator speed: the "t4" numbers a 2-core box
    // produces would look like regressions next to a 4-core box's.
    // Skip them (noted in the sample), but keep the REQUESTED list in
    // the config identity so samples from differently-sized machines
    // of the same fingerprint still compare.
    const int hw_threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    const std::vector<int> thread_counts = {1, 2, 4};
    std::vector<int> skipped;
    std::map<int, std::vector<RunTelemetry>> by_threads;
    for (const int threads : thread_counts) {
        if (threads > hw_threads) {
            skipped.push_back(threads);
            std::cout << "t" << threads
                      << ": skipped (hardware_concurrency = "
                      << hw_threads << ")\n";
            continue;
        }
        by_threads[threads] = measure(base, threads);
    }

    // Assemble the perf-history sample: replicate metric vectors per
    // thread point, plus derived parallel efficiency from the t1 mean.
    PerfSample sample;
    sample.label = sweep.label;
    if (const char *env = std::getenv("PES_GIT_REV"))
        sample.rev = env;
    sample.machine = machineFingerprint();
    std::string scenario;
    for (const auto &group : by_threads) {
        PerfPoint point;
        point.threads = group.first;
        std::map<std::string, std::vector<double>> series;
        for (const RunTelemetry &t : group.second) {
            sample.sessions = std::max(sample.sessions, t.sessions);
            sample.events = std::max(sample.events, t.events);
            scenario = t.scenario;
            for (const auto &metric : perfPointMetrics(t))
                series[metric.first].push_back(metric.second);
        }
        for (auto &metric : series)
            point.set(metric.first, std::move(metric.second));
        sample.points.push_back(std::move(point));
    }
    derivePerfParallelEfficiency(sample);
    sample.config = perfConfigIdentity(sample.label, sample.sessions,
                                       sample.events, thread_counts,
                                       scenario);
    // Ledger note: how many requested thread counts this machine could
    // not measure. Deterministic per machine, so same-fingerprint
    // comparisons see identical values; a point missing entirely is a
    // note, never a gate failure.
    if (!skipped.empty())
        sample.quality.emplace_back("bench.skipped_thread_counts",
                                    static_cast<double>(skipped.size()));

    // Table: replicate means, with the scaling-attribution columns the
    // ledger gates or charts (efficiency, lock waits, dup synthesis).
    Table table({"threads", "execute(ms)", "sessions/s", "events/s",
                 "efficiency", "lock waits", "dup synth", "cache hit%"});
    for (const PerfPoint &point : sample.points) {
        const auto meanOf = [&point](const char *name) {
            const std::vector<double> *values = point.find(name);
            return values ? perfNoise(*values).mean : 0.0;
        };
        const double hits = meanOf("cache_hits");
        const double lookups = hits + meanOf("cache_misses");
        table.beginRow()
            .cell(static_cast<long>(point.threads))
            .cell(meanOf("execute_ms"), 1)
            .cell(meanOf("sessions_per_sec"), 1)
            .cell(meanOf("events_per_sec"), 1)
            .cell(meanOf("parallel_efficiency"), 3)
            .cell(meanOf("cache_lock_waits") +
                      meanOf("persist_lock_waits"),
                  1)
            .cell(meanOf("duplicate_synthesis"), 1)
            .cell(lookups > 0.0 ? 100.0 * hits / lookups : 0.0, 1);
    }
    table.print(std::cout);
    std::cout << "\ntelemetry-armed report byte-identical to "
                 "uninstrumented run\n";

    std::string error;
    fatal_if(!appendPerfSample("BENCH_sim.json", sample, &error), "%s",
             error.c_str());
    std::cout << "[perf-history sample appended: BENCH_sim.json (label "
              << sample.label << ", rev " << sample.rev << ", machine "
              << sample.machine << ")]\n\n";
}

} // namespace

int
main()
{
    setQuiet(true);
    benchHeader("Simulator throughput bench",
                "fleet platform scaling (sessions/sec, events/sec)");
    const BenchSweep sweeps[] = {
        {"bench_sim",
         {SchedulerKind::Interactive, SchedulerKind::Ondemand,
          SchedulerKind::Ebs}},
        {"bench_sim_default", {SchedulerKind::Pes, SchedulerKind::Ebs}},
    };
    for (const BenchSweep &sweep : sweeps)
        benchSweep(sweep);
    return 0;
}
