/**
 * @file
 * Corpus-cache microbench: the perf trajectory of record-once /
 * replay-many.
 *
 * Runs one fleet sweep two ways — live synthesis through the runner's
 * trace cache (synthesize once per (device, app, user)) and corpus
 * replay off disk — asserts both produce byte-identical reports, and
 * emits BENCH_corpus.json with the wall times and the replay speedup.
 * The JSON carries timings, so unlike the figure benches its bytes vary
 * run to run; the report bytes it validates do not.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench/bench_common.hh"
#include "corpus/corpus_store.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "util/json.hh"

using namespace pes;

namespace {

constexpr int kRepetitions = 3;

FleetConfig
sweepConfig()
{
    FleetConfig config;
    config.apps = parseAppList("cnn,amazon,social_feed");
    // Three cheap model-free schedulers: the scheduler axis is what the
    // cache amortizes synthesis across (3 replays per generated trace).
    // Oracle/PES would drown synthesis in solver/model time and hide
    // the cache effect this bench tracks.
    config.schedulers = {SchedulerKind::Interactive,
                         SchedulerKind::Ondemand, SchedulerKind::Ebs};
    config.users = 64;
    config.threads = 4;
    return config;
}

/** Best-of-N wall time of one configuration, plus its report bytes. */
double
timeSweep(const FleetConfig &config, std::string &report_bytes)
{
    double best_ms = 0.0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        FleetRunner runner(config);
        const auto start = std::chrono::steady_clock::now();
        const FleetOutcome outcome = runner.run();
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start)
                .count();
        if (rep == 0 || ms < best_ms)
            best_ms = ms;
        report_bytes = JsonReporter::toString(
            makeFleetReport(runner.config(), outcome.metrics));
    }
    return best_ms;
}

} // namespace

int
main()
{
    setQuiet(true);
    benchHeader("Corpus cache microbench",
                "trace corpus subsystem (record-once / replay-many)");

    const FleetConfig base = sweepConfig();
    std::cout << base.jobCount() << " sessions per sweep ("
              << base.apps.size() << " apps x " << base.schedulers.size()
              << " schedulers x " << base.users << " users, "
              << base.threads << " threads), best of " << kRepetitions
              << "\n\n";

    // ---- Mode 1: live synthesis through the trace cache. ----
    std::string cached_bytes;
    const double cached_ms = timeSweep(base, cached_bytes);

    // ---- Mode 2: corpus replay off disk. ----
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "pes_bench_corpus";
    std::filesystem::remove_all(dir);
    std::string error;
    auto store = CorpusStore::create(dir.string(), &error);
    fatal_if(!store, "bench: %s", error.c_str());
    {
        const AcmpPlatform platform = AcmpPlatform::exynos5410();
        TraceGenerator generator(platform);
        TraceProvenance provenance;
        provenance.device = platform.name();
        provenance.params = {{"source", "bench"}};
        for (const AppProfile &profile : base.apps) {
            for (int u = 0; u < base.users; ++u) {
                fatal_if(!store->add(generator.generate(
                                         profile,
                                         fleetUserSeed(base, u)),
                                     provenance, &error),
                         "bench: %s", error.c_str());
            }
        }
        fatal_if(!store->save(&error), "bench: %s", error.c_str());
    }
    FleetConfig replay = base;
    replay.corpus = &*store;
    std::string replay_bytes;
    const double replay_ms = timeSweep(replay, replay_bytes);
    std::filesystem::remove_all(dir);

    fatal_if(replay_bytes != cached_bytes,
             "corpus replay diverged from live synthesis");

    Table table({"mode", "wall(ms)", "speedup"});
    table.beginRow()
        .cell(std::string("live synthesis, cached"))
        .cell(cached_ms, 1)
        .cell(1.0, 2);
    table.beginRow()
        .cell(std::string("corpus replay"))
        .cell(replay_ms, 1)
        .cell(cached_ms / replay_ms, 2);
    table.print(std::cout);
    std::cout << "\nreports byte-identical across both modes\n";

    std::ofstream os("BENCH_corpus.json");
    fatal_if(!os, "cannot write BENCH_corpus.json");
    os << "{\n"
       << "  \"sessions\": " << base.jobCount() << ",\n"
       << "  \"repetitions\": " << kRepetitions << ",\n"
       << "  \"cached_ms\": " << jsonNum(cached_ms) << ",\n"
       << "  \"corpus_replay_ms\": " << jsonNum(replay_ms) << ",\n"
       << "  \"speedup_corpus_replay\": "
       << jsonNum(cached_ms / replay_ms) << ",\n"
       << "  \"reports_identical\": true\n"
       << "}\n";
    std::cout << "[json: BENCH_corpus.json]\n";
    return 0;
}
