/**
 * @file
 * Tests for the telemetry subsystem: the no-feedback contract (reports
 * byte-identical with telemetry on or off, any thread count), trace
 * JSON well-formedness against our own parser, the committed
 * logical-clock trace golden, RunTelemetry serialization round-trips,
 * and canonical-order counter merging.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "telemetry/run_telemetry.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace_sink.hh"
#include "util/json.hh"

namespace pes {
namespace {

/** Whole file as a string ("" when unreadable). */
std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The golden mini sweep (tools/regen_golden.sh; keep in sync). */
FleetConfig
miniConfig(int threads)
{
    FleetConfig config;
    config.schedulers = {SchedulerKind::Ebs, SchedulerKind::Interactive};
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.users = 3;
    config.threads = threads;
    config.baseSeed = 0xf1ee7;
    return config;
}

/** Run @p config and serialize its report (JSON + CSV concatenated). */
std::string
reportBytes(FleetConfig config)
{
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.diagnostics.empty());
    const FleetReport report =
        makeFleetReport(runner.config(), outcome.metrics);
    return JsonReporter::toString(report) + CsvReporter::toString(report);
}

// ------------------------------------------------ no-feedback contract

TEST(TelemetryDeterminism, ReportsByteIdenticalOnVsOffAnyThreads)
{
    const std::string plain_t1 = reportBytes(miniConfig(1));

    for (const int threads : {1, 8}) {
        TelemetryRegistry telemetry;
        TraceEventSink sink(TraceEventSink::Clock::Wall);
        FleetConfig armed = miniConfig(threads);
        armed.telemetry = &telemetry;
        armed.traceSink = &sink;
        EXPECT_EQ(reportBytes(std::move(armed)), plain_t1)
            << "telemetry changed report bytes at threads=" << threads;
        EXPECT_GT(sink.eventCount(), 0u);
    }
}

TEST(TelemetryDeterminism, DisabledRegistryRecordsNothing)
{
    TelemetryRegistry telemetry;
    telemetry.setEnabled(false);
    FleetConfig config = miniConfig(2);
    config.telemetry = &telemetry;
    FleetRunner runner(std::move(config));
    runner.run();
    const TelemetrySnapshot snap = telemetry.snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.durations.empty());
}

// -------------------------------------------------------- trace sink

TEST(TraceSink, EmittedJsonParsesWithOwnParser)
{
    TelemetryRegistry telemetry;
    TraceEventSink sink(TraceEventSink::Clock::Wall);
    FleetConfig config = miniConfig(2);
    config.telemetry = &telemetry;
    config.traceSink = &sink;
    FleetRunner runner(std::move(config));
    runner.run();

    std::ostringstream os;
    sink.write(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << "trace JSON is malformed";
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::Array);

    // Metadata names every lane; every span carries the Chrome
    // trace-event required keys; stage spans sit on lane 0.
    int metadata = 0, stages = 0, jobs = 0;
    for (const JsonValue &e : events->arr) {
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        if (ph->str == "M") {
            ++metadata;
            continue;
        }
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("name"), nullptr);
        if (ph->str == "X" && e.find("cat")->str == "stage") {
            ++stages;
            EXPECT_EQ(e.find("tid")->number64(), 0u);
        }
        if (ph->str == "X" && e.find("cat")->str == "job")
            ++jobs;
    }
    EXPECT_EQ(metadata, 2 + 2);  // runner + store + 2 worker lanes
    EXPECT_EQ(stages, 4);        // plan, execute, persist, reduce
    EXPECT_EQ(jobs, 12);         // one span per session
}

TEST(TraceSink, LogicalClockMatchesCommittedGolden)
{
    TraceEventSink sink(TraceEventSink::Clock::Logical);
    // threads=1: a single worker drains the queue in canonical order,
    // so every logical tick is fully determined (the golden contract).
    FleetConfig config = miniConfig(1);
    config.traceSink = &sink;
    FleetRunner runner(std::move(config));
    runner.run();

    std::ostringstream os;
    sink.write(os);
    const std::string golden = readFile(
        PES_SOURCE_DIR "/tests/data/golden/mini_sweep.trace.json");
    ASSERT_FALSE(golden.empty())
        << "missing committed trace golden; run tools/regen_golden.sh";
    EXPECT_EQ(os.str(), golden)
        << "logical-clock trace changed; if intentional, regenerate "
           "via `cmake --build build --target regen-golden` and commit";
}

TEST(TraceSink, InstantEventsRecordCacheEvictions)
{
    TraceEventSink sink(TraceEventSink::Clock::Logical);
    FleetConfig config = miniConfig(1);
    config.traceSink = &sink;
    // A lone scheduler holds only the in-flight trace: 6 distinct
    // traces through a 1-trace cache must evict.
    config.schedulers = {SchedulerKind::Ebs};
    FleetRunner runner(std::move(config));
    runner.run();

    std::ostringstream os;
    sink.write(os);
    const auto doc = parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    int evictions = 0;
    for (const JsonValue &e : doc->find("traceEvents")->arr) {
        if (e.find("ph")->str == "i" &&
            e.find("name")->str == "cache evict")
            ++evictions;
    }
    EXPECT_GT(evictions, 0);
}

// ------------------------------------------------------ RunTelemetry

TEST(RunTelemetry, JsonRoundTripPreservesEveryField)
{
    RunTelemetry t;
    t.tool = "stress";
    t.scenario = "burst@0.5";
    t.logicalClock = false;
    t.threads = 8;
    t.sessions = 1200;
    t.events = 65536;
    t.planMs = 1.5;
    t.executeMs = 250.25;
    t.persistMs = 8.125;
    t.reduceMs = 2.5;
    t.totalMs = 262.375;
    t.cacheHits = 900;
    t.cacheMisses = 300;
    t.cacheEvictions = 7;
    t.cacheDuplicateSynthesis = 2;
    t.checkpointFlushes = 3;
    t.checkpointBytes = 4096;
    t.poolTasks = 1200;
    t.poolMaxQueueDepth = 64;
    t.poolBusyMs = 1999.5;
    t.poolIdleMs = 0.5;
    // Exact binary fractions: %.10g must round-trip them exactly.
    t.sessionsPerSec = 4800.0;
    t.eventsPerSec = 262144.5;
    t.parallelEfficiency = 0.75;
    t.cacheLockWaits = 11;
    t.cacheLockWaitMs = 1.25;
    t.persistLockWaits = 5;
    t.persistLockWaitMs = 0.5;
    t.poolQueueTasks = 1200;
    t.poolQueueWaitMs = 6.0;
    t.poolQueueWaitMeanMs = 0.005;
    t.workers = {{600, 900.25, 0.25, 3.5}, {600, 899.5, 1.0, 2.5}};
    t.counters.counters = {{"sim.events", 65536},
                           {"sim.sessions", 1200}};
    t.counters.gauges = {{"pool.depth", 64.0}};
    DurationStats d;
    d.record(1.0);
    d.record(2.0);
    t.counters.durations = {{"runner.job_ms", d}};

    const auto parsed = parseRunTelemetry(runTelemetryToString(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->tool, t.tool);
    EXPECT_EQ(parsed->scenario, t.scenario);
    EXPECT_EQ(parsed->logicalClock, t.logicalClock);
    EXPECT_EQ(parsed->threads, t.threads);
    EXPECT_EQ(parsed->sessions, t.sessions);
    EXPECT_EQ(parsed->events, t.events);
    EXPECT_DOUBLE_EQ(parsed->sessionsPerSec, t.sessionsPerSec);
    EXPECT_DOUBLE_EQ(parsed->eventsPerSec, t.eventsPerSec);
    EXPECT_DOUBLE_EQ(parsed->planMs, t.planMs);
    EXPECT_DOUBLE_EQ(parsed->executeMs, t.executeMs);
    EXPECT_DOUBLE_EQ(parsed->persistMs, t.persistMs);
    EXPECT_DOUBLE_EQ(parsed->reduceMs, t.reduceMs);
    EXPECT_DOUBLE_EQ(parsed->totalMs, t.totalMs);
    EXPECT_EQ(parsed->cacheHits, t.cacheHits);
    EXPECT_EQ(parsed->cacheMisses, t.cacheMisses);
    EXPECT_EQ(parsed->cacheEvictions, t.cacheEvictions);
    EXPECT_EQ(parsed->cacheDuplicateSynthesis, t.cacheDuplicateSynthesis);
    EXPECT_EQ(parsed->checkpointFlushes, t.checkpointFlushes);
    EXPECT_EQ(parsed->checkpointBytes, t.checkpointBytes);
    EXPECT_EQ(parsed->poolTasks, t.poolTasks);
    EXPECT_EQ(parsed->poolMaxQueueDepth, t.poolMaxQueueDepth);
    EXPECT_DOUBLE_EQ(parsed->poolBusyMs, t.poolBusyMs);
    EXPECT_DOUBLE_EQ(parsed->poolIdleMs, t.poolIdleMs);
    EXPECT_DOUBLE_EQ(parsed->parallelEfficiency, t.parallelEfficiency);
    EXPECT_EQ(parsed->cacheLockWaits, t.cacheLockWaits);
    EXPECT_DOUBLE_EQ(parsed->cacheLockWaitMs, t.cacheLockWaitMs);
    EXPECT_EQ(parsed->persistLockWaits, t.persistLockWaits);
    EXPECT_DOUBLE_EQ(parsed->persistLockWaitMs, t.persistLockWaitMs);
    EXPECT_EQ(parsed->poolQueueTasks, t.poolQueueTasks);
    EXPECT_DOUBLE_EQ(parsed->poolQueueWaitMs, t.poolQueueWaitMs);
    EXPECT_DOUBLE_EQ(parsed->poolQueueWaitMeanMs, t.poolQueueWaitMeanMs);
    ASSERT_EQ(parsed->workers.size(), 2u);
    EXPECT_EQ(parsed->workers[0].tasks, 600u);
    EXPECT_DOUBLE_EQ(parsed->workers[0].busyMs, 900.25);
    EXPECT_DOUBLE_EQ(parsed->workers[0].idleMs, 0.25);
    EXPECT_DOUBLE_EQ(parsed->workers[0].queueWaitMs, 3.5);
    EXPECT_DOUBLE_EQ(parsed->workers[1].queueWaitMs, 2.5);
    ASSERT_EQ(parsed->counters.counters.size(), 2u);
    EXPECT_EQ(parsed->counters.counters[0].first, "sim.events");
    EXPECT_EQ(parsed->counters.counters[1].second, 1200u);
    ASSERT_EQ(parsed->counters.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed->counters.gauges[0].second, 64.0);
    ASSERT_EQ(parsed->counters.durations.size(), 1u);
    const DurationStats &rd = parsed->counters.durations[0].second;
    EXPECT_EQ(rd.count, 2u);
    EXPECT_DOUBLE_EQ(rd.sumMs, 3.0);
    EXPECT_DOUBLE_EQ(rd.minMs, 1.0);
    EXPECT_DOUBLE_EQ(rd.maxMs, 2.0);
    EXPECT_EQ(rd.buckets, d.buckets);

    // Round-trip is a fixed point: re-serializing parses identically.
    EXPECT_EQ(runTelemetryToString(*parsed), runTelemetryToString(t));
}

TEST(RunTelemetry, RejectsMalformedAndWrongVersion)
{
    EXPECT_FALSE(parseRunTelemetry("not json").has_value());
    EXPECT_FALSE(parseRunTelemetry("{}").has_value());
    RunTelemetry t;
    std::string text = runTelemetryToString(t);
    const std::string needle = "\"telemetry_version\": 4";
    const size_t at = text.find(needle);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, needle.size(), "\"telemetry_version\": 999");
    EXPECT_FALSE(parseRunTelemetry(text).has_value());
}

TEST(RunTelemetry, FoldSumsAndMaxesIntoRollup)
{
    RunTelemetry a;
    a.tool = "stress";
    a.threads = 4;
    a.sessions = 10;
    a.events = 100;
    a.executeMs = 50.0;
    a.poolMaxQueueDepth = 8;
    a.cacheHits = 5;
    a.cacheDuplicateSynthesis = 1;
    a.cacheLockWaits = 3;
    a.cacheLockWaitMs = 0.5;
    a.poolQueueTasks = 10;
    a.poolQueueWaitMs = 1.0;
    a.poolQueueWaitMeanMs = 0.1;
    a.workers = {{10, 40.0, 10.0, 1.0}};
    a.counters.counters = {{"sim.sessions", 10}};

    RunTelemetry b = a;
    b.sessions = 30;
    b.events = 300;
    b.executeMs = 150.0;
    b.poolMaxQueueDepth = 2;
    b.poolQueueTasks = 30;
    b.poolQueueWaitMs = 5.0;
    b.poolQueueWaitMeanMs = 5.0 / 30.0;
    // One more worker lane than a: fold must widen, not truncate.
    b.workers = {{30, 120.0, 30.0, 2.0}, {5, 20.0, 5.0, 0.5}};
    b.counters.counters = {{"sim.sessions", 30}};

    RunTelemetry rollup;
    foldRunTelemetry(rollup, a);
    foldRunTelemetry(rollup, b);
    EXPECT_EQ(rollup.tool, "stress");
    EXPECT_EQ(rollup.threads, 4);
    EXPECT_EQ(rollup.sessions, 40u);
    EXPECT_EQ(rollup.events, 400u);
    EXPECT_DOUBLE_EQ(rollup.executeMs, 200.0);
    EXPECT_EQ(rollup.poolMaxQueueDepth, 8u);
    EXPECT_EQ(rollup.cacheHits, 10u);
    EXPECT_EQ(rollup.cacheDuplicateSynthesis, 2u);
    EXPECT_EQ(rollup.cacheLockWaits, 6u);
    EXPECT_DOUBLE_EQ(rollup.cacheLockWaitMs, 1.0);
    EXPECT_EQ(rollup.poolQueueTasks, 40u);
    EXPECT_DOUBLE_EQ(rollup.poolQueueWaitMs, 6.0);
    // The folded mean recomputes from the folded totals, not the means.
    EXPECT_DOUBLE_EQ(rollup.poolQueueWaitMeanMs, 6.0 / 40.0);
    ASSERT_EQ(rollup.workers.size(), 2u);  // widened to the max
    EXPECT_EQ(rollup.workers[0].tasks, 40u);
    EXPECT_DOUBLE_EQ(rollup.workers[0].busyMs, 160.0);
    EXPECT_DOUBLE_EQ(rollup.workers[0].queueWaitMs, 3.0);
    EXPECT_EQ(rollup.workers[1].tasks, 5u);
    ASSERT_EQ(rollup.counters.counters.size(), 1u);
    EXPECT_EQ(rollup.counters.counters[0].second, 40u);
    EXPECT_DOUBLE_EQ(rollup.sessionsPerSec, 40.0 / 0.2);
}

TEST(RunTelemetry, FoldGuardsZeroTasksAndNonFiniteInputs)
{
    // Zero queue tasks must fold to a zero mean — never 0/0 = NaN.
    RunTelemetry idle;
    idle.sessions = 4;
    idle.executeMs = 10.0;
    idle.poolQueueTasks = 0;
    idle.poolQueueWaitMs = 0.0;
    RunTelemetry rollup;
    foldRunTelemetry(rollup, idle);
    EXPECT_EQ(rollup.poolQueueTasks, 0u);
    EXPECT_DOUBLE_EQ(rollup.poolQueueWaitMeanMs, 0.0);

    // A non-finite part (NaN survives the JSON round-trip as a quoted
    // literal, e.g. from a telemetry file written by a crashed or
    // clock-skewed worker) must not poison the folded sums or mean.
    RunTelemetry poisoned;
    poisoned.sessions = 6;
    poisoned.executeMs = std::numeric_limits<double>::quiet_NaN();
    poisoned.poolQueueTasks = 3;
    poisoned.poolQueueWaitMs =
        std::numeric_limits<double>::quiet_NaN();
    poisoned.poolQueueWaitMeanMs =
        std::numeric_limits<double>::infinity();
    std::ostringstream os;
    writeRunTelemetryJson(poisoned, os);
    const auto parsed = parseRunTelemetry(os.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(std::isnan(parsed->poolQueueWaitMs));

    foldRunTelemetry(rollup, *parsed);
    EXPECT_EQ(rollup.sessions, 10u);
    EXPECT_EQ(rollup.poolQueueTasks, 3u);
    EXPECT_TRUE(std::isfinite(rollup.executeMs));
    EXPECT_TRUE(std::isfinite(rollup.poolQueueWaitMs));
    EXPECT_TRUE(std::isfinite(rollup.poolQueueWaitMeanMs));
    EXPECT_DOUBLE_EQ(rollup.poolQueueWaitMeanMs, 0.0);
}

TEST(RunTelemetry, LogicalClockZeroesWallDerivedFields)
{
    TelemetryRegistry telemetry;
    TraceEventSink sink(TraceEventSink::Clock::Logical);
    FleetConfig config = miniConfig(1);
    config.telemetry = &telemetry;
    config.traceSink = &sink;
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    const RunTelemetry t = makeRunTelemetry(runner.config(), outcome);
    EXPECT_TRUE(t.logicalClock);
    EXPECT_EQ(t.sessions, 12u);
    EXPECT_GT(t.events, 0u);
    EXPECT_DOUBLE_EQ(t.totalMs, 0.0);
    EXPECT_DOUBLE_EQ(t.sessionsPerSec, 0.0);
    EXPECT_DOUBLE_EQ(t.poolBusyMs, 0.0);
    EXPECT_EQ(t.poolMaxQueueDepth, 0u);
    // The scaling section is wall/scheduling-derived: zeroed too.
    EXPECT_EQ(t.cacheLockWaits, 0u);
    EXPECT_DOUBLE_EQ(t.cacheLockWaitMs, 0.0);
    EXPECT_EQ(t.persistLockWaits, 0u);
    EXPECT_DOUBLE_EQ(t.persistLockWaitMs, 0.0);
    EXPECT_TRUE(t.workers.empty());
    // No wall durations may leak into the snapshot either.
    EXPECT_TRUE(t.counters.durations.empty());

    // The whole artifact is byte-reproducible in this mode.
    TelemetryRegistry telemetry2;
    TraceEventSink sink2(TraceEventSink::Clock::Logical);
    FleetConfig config2 = miniConfig(1);
    config2.telemetry = &telemetry2;
    config2.traceSink = &sink2;
    FleetRunner runner2(std::move(config2));
    const FleetOutcome outcome2 = runner2.run();
    EXPECT_EQ(runTelemetryToString(
                  makeRunTelemetry(runner2.config(), outcome2)),
              runTelemetryToString(t));
}

// ------------------------------------------------- canonical merging

TEST(Telemetry, SnapshotMergesShardsCanonically)
{
    // Two registries, same per-shard content written in different
    // thread interleavings: snapshots must be byte-equal and
    // name-sorted.
    const auto build = [](bool reverse) {
        auto registry = std::make_unique<TelemetryRegistry>();
        std::vector<TelemetryShard *> shards;
        for (int i = 0; i < 4; ++i)
            shards.push_back(registry->makeShard());
        std::vector<std::thread> threads;
        for (int i = 0; i < 4; ++i) {
            const int at = reverse ? 3 - i : i;
            threads.emplace_back([shard = shards[at], at] {
                shard->count("zeta", static_cast<uint64_t>(at + 1));
                shard->count("alpha");
                shard->gauge("depth", static_cast<double>(at));
                shard->duration("lat", 1.0 * (at + 1));
            });
        }
        for (auto &t : threads)
            t.join();
        registry->count("alpha", 10);
        return registry;
    };

    const TelemetrySnapshot a = build(false)->snapshot();
    const TelemetrySnapshot b = build(true)->snapshot();

    ASSERT_EQ(a.counters.size(), 2u);
    EXPECT_EQ(a.counters[0].first, "alpha");  // name-sorted
    EXPECT_EQ(a.counters[0].second, 4u + 10u);
    EXPECT_EQ(a.counters[1].first, "zeta");
    EXPECT_EQ(a.counters[1].second, 1u + 2u + 3u + 4u);
    EXPECT_DOUBLE_EQ(a.gaugeValue("depth"), 3.0);  // max-merge
    ASSERT_EQ(a.durations.size(), 1u);
    EXPECT_EQ(a.durations[0].second.count, 4u);
    EXPECT_DOUBLE_EQ(a.durations[0].second.sumMs, 10.0);
    EXPECT_DOUBLE_EQ(a.durations[0].second.minMs, 1.0);
    EXPECT_DOUBLE_EQ(a.durations[0].second.maxMs, 4.0);

    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    ASSERT_EQ(a.durations.size(), b.durations.size());
    EXPECT_EQ(a.durations[0].second.buckets, b.durations[0].second.buckets);
}

TEST(Telemetry, DurationStatsBucketsByLog2Microseconds)
{
    DurationStats d;
    d.record(0.001);  // 1 us -> bucket 0
    d.record(0.003);  // 3 us -> bucket 1
    d.record(1.0);    // 1000 us -> bucket 9
    EXPECT_EQ(d.count, 3u);
    EXPECT_EQ(d.buckets[0], 1u);
    EXPECT_EQ(d.buckets[1], 1u);
    EXPECT_EQ(d.buckets[9], 1u);
    DurationStats e;
    e.record(1.0);
    e.merge(d);
    EXPECT_EQ(e.count, 4u);
    EXPECT_EQ(e.buckets[9], 2u);
    EXPECT_DOUBLE_EQ(e.minMs, 0.001);
    EXPECT_DOUBLE_EQ(e.maxMs, 1.0);
}

} // namespace
} // namespace pes
