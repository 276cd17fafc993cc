/**
 * @file
 * Tests for the simulator hot path: the runner's reusable per-worker
 * engines and pooled scheduler drivers (byte-identical to a reference
 * that builds a fresh engine and driver per session), the stats-only
 * fast path (bit-identical to reducing full results),
 * single-flight trace synthesis (duplicate_synthesis pinned to 0), and
 * engine reuse across run() calls (no state leaks between sessions).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ebs_scheduler.hh"
#include "core/governors.hh"
#include "core/pes_scheduler.hh"
#include "core/predictor_training.hh"
#include "corpus/corpus_store.hh"
#include "corpus/trace_cache.hh"
#include "runner/fleet_config.hh"
#include "runner/fleet_runner.hh"
#include "runner/metrics_aggregator.hh"
#include "runner/reporters.hh"
#include "sim/runtime_simulator.hh"
#include "trace/generator.hh"
#include "util/rng.hh"

namespace pes {
namespace {

namespace fs = std::filesystem;

const AcmpPlatform &
exynos()
{
    static const AcmpPlatform platform = AcmpPlatform::exynos5410();
    return platform;
}

/**
 * PES included deliberately: it is the only scheduler that exercises
 * speculation (the spec-frame arena) and carries warm state across a
 * pooled driver's resetFresh().
 */
FleetConfig
hotpathFleet()
{
    // One event model for every run (and the reference): training is
    // deterministic, so this only saves the per-run training time.
    static const LogisticModel model = [] {
        TraceGenerator generator(exynos());
        return trainEventModel(generator, seenApps(),
                               FleetConfig{}.trainingTracesPerApp);
    }();
    FleetConfig config;
    config.apps = {appByName("cnn"), appByName("social_feed")};
    config.schedulers = {SchedulerKind::Interactive, SchedulerKind::Ebs,
                         SchedulerKind::Pes};
    config.users = 2;
    config.pretrainedModel = &model;
    config.pretrainedModelDevice = exynos().name();
    return config;
}

std::string
runToBytes(FleetConfig config)
{
    FleetRunner runner(std::move(config));
    const FleetOutcome outcome = runner.run();
    const FleetReport report =
        makeFleetReport(runner.config(), outcome.metrics);
    return JsonReporter::toString(report) + CsvReporter::toString(report);
}

/**
 * What the runner's one execution path must reproduce, built without
 * it: every session of @p config on a fresh RuntimeSimulator and a
 * fresh driver, reduced from its full result, folded into a
 * MetricsAggregator in canonical job order.
 */
std::string
referenceBytes(const FleetConfig &config)
{
    const FleetRunner planner(config);  // canonical jobs, default device
    const FleetConfig &sweep = planner.config();
    const AcmpPlatform &platform = sweep.devices.at(0);
    const PowerModel power(platform);
    TraceGenerator generator(platform);
    MetricsAggregator metrics;
    for (const JobSpec &job : planner.jobs()) {
        const AppProfile &profile =
            sweep.apps[static_cast<size_t>(job.appIndex)];
        const SchedulerKind kind =
            sweep.schedulers[static_cast<size_t>(job.schedulerIndex)];
        std::unique_ptr<SchedulerDriver> driver;
        switch (kind) {
          case SchedulerKind::Interactive:
            driver = std::make_unique<InteractiveGovernor>();
            break;
          case SchedulerKind::Ebs:
            driver = std::make_unique<EbsScheduler>();
            break;
          case SchedulerKind::Pes:
            driver = std::make_unique<PesScheduler>(*sweep.pretrainedModel);
            break;
          default:
            ADD_FAILURE() << "reference covers hotpathFleet()'s drivers";
            return {};
        }
        SimConfig sim_config;
        sim_config.renderScale = profile.renderScale;
        // The fleet's per-user speculation-noise stream.
        sim_config.specNoiseSeed = hashCombine(job.userSeed, 0x5eedu);
        RuntimeSimulator engine(platform, power, generator.appFor(profile),
                                sim_config);
        const InteractionTrace trace =
            generator.generate(profile, job.userSeed);
        metrics.add(platform.name(), profile.name, schedulerKindName(kind),
                    SessionStats::reduce(engine.run(trace, *driver)));
    }
    const FleetReport report = makeFleetReport(sweep, metrics);
    return JsonReporter::toString(report) + CsvReporter::toString(report);
}

// --------------------------------------- reused engines, pooled drivers

TEST(HotPath, RunnerMatchesFreshEnginePerSessionReference)
{
    const std::string reference = referenceBytes(hotpathFleet());
    for (const int threads : {1, 8}) {
        FleetConfig config = hotpathFleet();
        config.threads = threads;
        EXPECT_EQ(runToBytes(config), reference) << "threads=" << threads;
    }
}

TEST(HotPath, StatsOnlyFastPathMatchesCollectedResults)
{
    for (const int threads : {1, 8}) {
        FleetConfig stats_only = hotpathFleet();
        stats_only.threads = threads;
        ASSERT_FALSE(stats_only.collectResults);  // default: fast path on

        FleetConfig collected = hotpathFleet();
        collected.threads = threads;
        collected.collectResults = true;

        EXPECT_EQ(runToBytes(stats_only), runToBytes(collected))
            << "threads=" << threads;
    }
}

TEST(HotPath, CorpusReplayMatchesFreshEnginePerSessionReference)
{
    // Record the population once, then replay it on the stats-only and
    // the collected-results paths: both reports must match the
    // fresh-engine reference byte for byte (live synthesis vs corpus
    // replay is covered by test_corpus; this pins the hot path on the
    // replay path).
    const fs::path dir =
        fs::temp_directory_path() / "pes_hotpath_corpus";
    fs::remove_all(dir);
    std::string error;
    auto store = CorpusStore::create(dir.string(), &error);
    ASSERT_TRUE(store.has_value()) << error;
    {
        TraceGenerator generator(exynos());
        TraceProvenance provenance;
        provenance.device = exynos().name();
        const FleetConfig seeds = hotpathFleet();
        for (const AppProfile &profile : seeds.apps) {
            for (int u = 0; u < seeds.users; ++u) {
                ASSERT_TRUE(store->add(
                    generator.generate(profile, fleetUserSeed(seeds, u)),
                    provenance, &error))
                    << error;
            }
        }
        ASSERT_TRUE(store->save(&error)) << error;
    }

    const std::string reference = referenceBytes(hotpathFleet());
    FleetConfig replay = hotpathFleet();
    replay.threads = 4;
    replay.corpus = &*store;
    EXPECT_EQ(runToBytes(replay), reference);

    FleetConfig collected = replay;
    collected.collectResults = true;
    EXPECT_EQ(runToBytes(collected), reference);

    fs::remove_all(dir);
}

// ------------------------------------------- single-flight trace cache

TEST(HotPath, SingleFlightNeverDuplicatesSynthesis)
{
    // Hammer one key from many threads at once. The latch protocol
    // guarantees exactly one loader invocation: everyone else waits and
    // adopts, so duplicate_synthesis stays 0 BY CONSTRUCTION, not by
    // lucky timing (the sleep inside the loader widens the race window
    // that the pre-single-flight cache would lose).
    constexpr int kThreads = 16;
    TraceCache cache;
    std::atomic<int> loads{0};
    const auto loader = [&] {
        loads.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        InteractionTrace trace;
        trace.appName = "cnn";
        trace.userSeed = 7;
        return trace;
    };

    std::vector<TraceHandle> handles(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&, i] {
                handles[static_cast<size_t>(i)] =
                    cache.getOrLoad("exynos5410", "cnn", 7, loader);
            });
        }
        for (std::thread &t : threads)
            t.join();
    }

    EXPECT_EQ(loads.load(), 1);
    EXPECT_EQ(cache.duplicateSynthesis(), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
    for (const TraceHandle &h : handles) {
        ASSERT_TRUE(h);
        EXPECT_EQ(h.get(), handles[0].get());  // one shared trace
    }
}

TEST(HotPath, SingleFlightLoaderFailurePropagatesToEveryWaiter)
{
    // A throwing loader must fail the winner AND every waiter parked on
    // the latch (nobody hangs), and must not poison the key: the next
    // getOrLoad retries the loader.
    constexpr int kThreads = 8;
    TraceCache cache;
    std::atomic<int> loads{0};
    std::atomic<int> failures{0};
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int i = 0; i < kThreads; ++i) {
            threads.emplace_back([&] {
                try {
                    cache.getOrLoad("exynos5410", "cnn", 9, [&] {
                        loads.fetch_add(1);
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(10));
                        throw std::runtime_error("synthetic load failure");
                        return InteractionTrace{};
                    });
                } catch (const std::runtime_error &) {
                    failures.fetch_add(1);
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    // Every thread fails (winners rethrow their own exception, waiters
    // the latched one); late arrivals may retry the erased key, so the
    // loader can run more than once — but never concurrently wasted.
    EXPECT_EQ(failures.load(), kThreads);
    EXPECT_GE(loads.load(), 1);
    EXPECT_EQ(cache.size(), 0u);

    const TraceHandle retried =
        cache.getOrLoad("exynos5410", "cnn", 9, [&] {
            InteractionTrace trace;
            trace.appName = "cnn";
            trace.userSeed = 9;
            return trace;
        });
    ASSERT_TRUE(retried);
    EXPECT_EQ(cache.size(), 1u);
}

// --------------------------------------------------- engine reusability

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        const EventRecord &x = a.events[i];
        const EventRecord &y = b.events[i];
        EXPECT_EQ(x.traceIndex, y.traceIndex) << "event " << i;
        EXPECT_EQ(x.type, y.type) << "event " << i;
        EXPECT_EQ(x.arrival, y.arrival) << "event " << i;
        EXPECT_EQ(x.frameReady, y.frameReady) << "event " << i;
        EXPECT_EQ(x.displayed, y.displayed) << "event " << i;
        EXPECT_EQ(x.qosTarget, y.qosTarget) << "event " << i;
        EXPECT_EQ(x.configIndex, y.configIndex) << "event " << i;
        EXPECT_EQ(x.busyEnergy, y.busyEnergy) << "event " << i;
        EXPECT_EQ(x.execMs, y.execMs) << "event " << i;
        EXPECT_EQ(x.servedSpeculatively, y.servedSpeculatively);
        EXPECT_EQ(x.squashedSpeculation, y.squashedSpeculation);
    }
    EXPECT_EQ(a.totalEnergy, b.totalEnergy);
    EXPECT_EQ(a.busyEnergy, b.busyEnergy);
    EXPECT_EQ(a.idleEnergy, b.idleEnergy);
    EXPECT_EQ(a.overheadEnergy, b.overheadEnergy);
    EXPECT_EQ(a.wasteEnergy, b.wasteEnergy);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_EQ(a.endOfRunWasteMs, b.endOfRunWasteMs);
    EXPECT_EQ(a.endOfRunWasteMj, b.endOfRunWasteMj);
    EXPECT_EQ(a.avgQueueLength, b.avgQueueLength);
    EXPECT_EQ(a.fellBackToReactive, b.fellBackToReactive);
}

TEST(HotPath, EngineReusedAcrossRunsLeaksNoState)
{
    TraceGenerator generator(exynos());
    const WebApp &app = generator.appFor(appByName("cnn"));
    const PowerModel power(exynos());
    const InteractionTrace first = generator.generate(appByName("cnn"), 1);
    const InteractionTrace second =
        generator.generate(appByName("cnn"), 2);

    // One engine runs session 1 then session 2; a fresh engine runs
    // only session 2. If reset() left ANY session state behind (DOM
    // mutations, queue contents, meter segments, arena slices), the
    // reused engine's second result would diverge.
    RuntimeSimulator reused(exynos(), power, app);
    {
        EbsScheduler driver;
        (void)reused.run(first, driver);
    }
    EbsScheduler reused_driver;
    const SimResult from_reused = reused.run(second, reused_driver);

    RuntimeSimulator fresh(exynos(), power, app);
    EbsScheduler fresh_driver;
    const SimResult from_fresh = fresh.run(second, fresh_driver);

    expectSameResult(from_reused, from_fresh);
}

TEST(HotPath, RunStatsIsBitIdenticalToReducingTheFullResult)
{
    TraceGenerator generator(exynos());
    const WebApp &app = generator.appFor(appByName("social_feed"));
    const PowerModel power(exynos());
    const InteractionTrace trace =
        generator.generate(appByName("social_feed"), 11);

    RuntimeSimulator sim(exynos(), power, app);
    EbsScheduler full_driver;
    const SessionStats full =
        SessionStats::reduce(sim.run(trace, full_driver));

    // Same reused engine, stats-only path: the accumulators must
    // reproduce the reduction bit for bit (the report contract).
    EbsScheduler stats_driver;
    const SessionStats stats = sim.runStats(trace, stats_driver);

    EXPECT_EQ(stats.events, full.events);
    EXPECT_EQ(stats.violations, full.violations);
    EXPECT_EQ(stats.totalEnergyMj, full.totalEnergyMj);
    EXPECT_EQ(stats.busyEnergyMj, full.busyEnergyMj);
    EXPECT_EQ(stats.idleEnergyMj, full.idleEnergyMj);
    EXPECT_EQ(stats.overheadEnergyMj, full.overheadEnergyMj);
    EXPECT_EQ(stats.wasteEnergyMj, full.wasteEnergyMj);
    EXPECT_EQ(stats.durationMs, full.durationMs);
    EXPECT_EQ(stats.meanLatencyMs, full.meanLatencyMs);
    EXPECT_EQ(stats.p95LatencyMs, full.p95LatencyMs);
    EXPECT_EQ(stats.maxLatencyMs, full.maxLatencyMs);
    EXPECT_EQ(stats.predictionsMade, full.predictionsMade);
    EXPECT_EQ(stats.predictionsCorrect, full.predictionsCorrect);
    EXPECT_EQ(stats.mispredictions, full.mispredictions);
    EXPECT_EQ(stats.mispredictWasteMs, full.mispredictWasteMs);
    EXPECT_EQ(stats.avgQueueLength, full.avgQueueLength);
    EXPECT_EQ(stats.fellBackToReactive, full.fellBackToReactive);
}

} // namespace
} // namespace pes
