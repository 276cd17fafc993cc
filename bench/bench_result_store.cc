/**
 * @file
 * Result-store microbench: what persistence and resume cost.
 *
 * Runs one fleet sweep four ways — no store (the in-memory baseline),
 * store-attached with checkpointing, resume-from-complete-store (zero
 * sessions execute; pure reduce-from-disk), and a two-shard split plus
 * merge — asserts all four produce byte-identical reports, and emits
 * BENCH_results.json with the wall times and overheads. The JSON
 * carries timings, so unlike the figure benches its bytes vary run to
 * run; the report bytes it validates do not.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench/bench_common.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "util/json.hh"

using namespace pes;

namespace {

FleetConfig
sweepConfig()
{
    FleetConfig config;
    config.apps = parseAppList("cnn,amazon,social_feed");
    // Cheap model-free schedulers: persistence overhead is per session,
    // so the bench wants many fast sessions, not solver time.
    config.schedulers = {SchedulerKind::Interactive,
                         SchedulerKind::Ondemand, SchedulerKind::Ebs};
    config.users = 64;
    config.threads = 4;
    config.checkpointEvery = 64;
    return config;
}

double
wallMs(const std::function<void()> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start)
        .count();
}

std::string
reportOf(const FleetConfig &config, const MetricsAggregator &metrics)
{
    return JsonReporter::toString(makeFleetReport(config, metrics));
}

} // namespace

int
main()
{
    setQuiet(true);
    benchHeader("Result store microbench",
                "persistent result store (checkpoint / resume / merge)");

    const FleetConfig base = sweepConfig();
    std::cout << base.jobCount() << " sessions per sweep ("
              << base.apps.size() << " apps x " << base.schedulers.size()
              << " schedulers x " << base.users << " users, "
              << base.threads << " threads, checkpoint every "
              << base.checkpointEvery << ")\n\n";

    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "pes_bench_results";
    std::filesystem::remove_all(dir);
    std::string error;

    // ---- Mode 1: in-memory baseline (no store). ----
    std::string baseline_bytes;
    const double baseline_ms = wallMs([&] {
        FleetRunner runner(base);
        baseline_bytes = reportOf(runner.config(), runner.run().metrics);
    });

    // ---- Mode 2: persist with checkpoints. ----
    std::string persist_bytes;
    uint64_t flushes = 0;
    auto store = ResultStore::create((dir / "whole").string(),
                                     SweepSpec::fromConfig(base), &error);
    fatal_if(!store, "bench: %s", error.c_str());
    const double persist_ms = wallMs([&] {
        FleetConfig config = base;
        config.resultStore = &*store;
        FleetRunner runner(config);
        const FleetOutcome outcome = runner.run();
        fatal_if(!outcome.diagnostics.empty(),
                 "bench: persist run reported problems");
        flushes = outcome.checkpointFlushes;
        persist_bytes = reportOf(runner.config(), outcome.metrics);
    });

    // ---- Mode 3: resume over a complete store (pure reduce). ----
    std::string resume_bytes;
    const double resume_ms = wallMs([&] {
        FleetConfig config = base;
        config.resultStore = &*store;
        config.resume = true;
        FleetRunner runner(config);
        const FleetOutcome outcome = runner.run();
        fatal_if(outcome.jobCount != 0,
                 "bench: resume re-executed completed sessions");
        resume_bytes = reportOf(runner.config(), outcome.metrics);
    });

    // ---- Mode 4: two shards + merge. ----
    std::string merged_bytes;
    const double sharded_ms = wallMs([&] {
        for (int k = 0; k < 2; ++k) {
            FleetConfig config = base;
            selectShard(config, k, 2);
            auto shard = ResultStore::create(
                (dir / ("s" + std::to_string(k))).string(),
                SweepSpec::fromConfig(config), &error);
            fatal_if(!shard, "bench: %s", error.c_str());
            config.resultStore = &*shard;
            FleetRunner runner(config);
            fatal_if(!runner.run().diagnostics.empty(),
                     "bench: shard run reported problems");
        }
    });
    const double merge_ms = wallMs([&] {
        auto merged = ResultStore::create((dir / "merged").string(),
                                          SweepSpec::fromConfig(base),
                                          &error);
        fatal_if(!merged, "bench: %s", error.c_str());
        for (int k = 0; k < 2; ++k) {
            auto shard = ResultStore::open(
                (dir / ("s" + std::to_string(k))).string(), &error);
            fatal_if(!shard, "bench: %s", error.c_str());
            fatal_if(!merged->mergeFrom(*shard, &error), "bench: %s",
                     error.c_str());
        }
        StoreReduction reduction;
        fatal_if(!reduceStore(*merged, reduction, &error), "bench: %s",
                 error.c_str());
        merged_bytes =
            JsonReporter::toString(
                makeStoreReport(*merged, reduction.metrics));
    });
    std::filesystem::remove_all(dir);

    fatal_if(persist_bytes != baseline_bytes,
             "persisted sweep diverged from the in-memory baseline");
    fatal_if(resume_bytes != baseline_bytes,
             "resume reduction diverged from the in-memory baseline");
    fatal_if(merged_bytes != baseline_bytes,
             "shard+merge diverged from the in-memory baseline");

    const double overhead = baseline_ms > 0
        ? (persist_ms - baseline_ms) / baseline_ms * 100.0
        : 0.0;
    Table table({"mode", "wall(ms)", "vs baseline"});
    table.beginRow()
        .cell(std::string("in-memory sweep"))
        .cell(baseline_ms, 1)
        .cell(1.0, 2);
    table.beginRow()
        .cell(std::string("persist (checkpointed)"))
        .cell(persist_ms, 1)
        .cell(persist_ms / baseline_ms, 2);
    table.beginRow()
        .cell(std::string("resume (pure reduce)"))
        .cell(resume_ms, 1)
        .cell(resume_ms / baseline_ms, 2);
    table.beginRow()
        .cell(std::string("2 shards"))
        .cell(sharded_ms, 1)
        .cell(sharded_ms / baseline_ms, 2);
    table.beginRow()
        .cell(std::string("merge + reduce"))
        .cell(merge_ms, 1)
        .cell(merge_ms / baseline_ms, 2);
    table.print(std::cout);
    std::cout << "\npersist overhead " << formatDouble(overhead, 1)
              << "% over " << flushes
              << " checkpoint flushes; reports byte-identical across "
                 "all four modes\n";

    std::ofstream os("BENCH_results.json");
    fatal_if(!os, "cannot write BENCH_results.json");
    os << "{\n"
       << "  \"sessions\": " << base.jobCount() << ",\n"
       << "  \"checkpoint_every\": " << base.checkpointEvery << ",\n"
       << "  \"baseline_ms\": " << jsonNum(baseline_ms) << ",\n"
       << "  \"persist_ms\": " << jsonNum(persist_ms) << ",\n"
       << "  \"persist_overhead_pct\": " << jsonNum(overhead) << ",\n"
       << "  \"checkpoint_flushes\": " << flushes << ",\n"
       << "  \"resume_reduce_ms\": " << jsonNum(resume_ms) << ",\n"
       << "  \"sharded_ms\": " << jsonNum(sharded_ms) << ",\n"
       << "  \"merge_reduce_ms\": " << jsonNum(merge_ms) << ",\n"
       << "  \"reports_identical\": true\n"
       << "}\n";
    std::cout << "[json: BENCH_results.json]\n";
    return 0;
}
