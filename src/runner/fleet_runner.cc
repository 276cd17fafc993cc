#include "runner/fleet_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "core/ebs_scheduler.hh"
#include "corpus/corpus_store.hh"
#include "corpus/trace_cache.hh"
#include "core/governors.hh"
#include "core/oracle_scheduler.hh"
#include "core/pes_scheduler.hh"
#include "core/predictor_training.hh"
#include "population/population_spec.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/thread_pool.hh"
#include "sim/runtime_simulator.hh"
#include "telemetry/trace_sink.hh"
#include "trace/generator.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace pes {

namespace {

/** Salt for deriving per-session speculation-noise seeds (fleet mode). */
constexpr uint64_t kSpecNoiseSalt = 0x5eedu;

/**
 * Upper bound on planned ranges per pool task. Tasks run FIFO over
 * contiguous chunks, so the jobs in flight at once span about
 * threads x chunk ranges: the streaming reducer's out-of-order window
 * and the trace cache's reuse window both scale with it.
 */
constexpr size_t kMaxRangesPerTask = 512;

/** Most traces a run-owned cache may keep resident (a few hundred MB
 *  at typical session sizes). */
constexpr size_t kMaxResidentTraces = 32768;

/**
 * Planned ranges per pool task: about four tasks per worker, so fresh
 * fleets (one singleton range per session) pay a queue round-trip per
 * chunk instead of per session.
 */
size_t
rangesPerTask(size_t ranges, int threads)
{
    const size_t target_tasks = static_cast<size_t>(threads) * 4;
    return std::min(kMaxRangesPerTask,
                    ranges > target_tasks
                        ? (ranges + target_tasks - 1) / target_tasks
                        : 1);
}

/** Milliseconds elapsed since @p t0 (steady clock). */
double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Throttled stderr progress line (--progress). Workers bump an atomic
 * completion counter; whichever bump grabs the try_lock and finds the
 * half-second throttle expired prints. Contending workers skip instead
 * of queueing, so the hot path never blocks on console I/O.
 */
class ProgressMeter
{
  public:
    explicit ProgressMeter(int total)
        : total_(total), start_(std::chrono::steady_clock::now())
    {
    }

    void bump()
    {
        const int done = done_.fetch_add(1) + 1;
        std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
        if (!lock.owns_lock())
            return;
        const auto now = std::chrono::steady_clock::now();
        if (now - lastPrint_ < std::chrono::milliseconds(500))
            return;
        lastPrint_ = now;
        print(done);
    }

    /** Always prints the final tally (unless a bump just did). */
    void finish()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (lastPrinted_ != done_.load())
            print(done_.load());
    }

  private:
    void print(int done)
    {
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::fprintf(stderr,
                     "progress: %d/%d sessions (%d%%), %.1f sessions/s\n",
                     done, total_,
                     total_ > 0 ? done * 100 / total_ : 100,
                     secs > 0.0 ? done / secs : 0.0);
        std::fflush(stderr);
        lastPrinted_ = done;
    }

    const int total_;
    const std::chrono::steady_clock::time_point start_;
    std::atomic<int> done_{0};
    std::mutex mutex_;
    std::chrono::steady_clock::time_point lastPrint_{};
    int lastPrinted_ = -1;
};

/**
 * Immutable per-device state shared by every worker: the platform, its
 * power table, and the trained event model. Construction order matters
 * (power and generator hold references into platform), hence the
 * in-struct initialization.
 */
struct DeviceContext
{
    explicit DeviceContext(const AcmpPlatform &p)
        : platform(p), power(platform), trainGenerator(platform)
    {
    }

    AcmpPlatform platform;
    PowerModel power;
    /** Main-thread generator used only for model training. */
    TraceGenerator trainGenerator;
    /** Trained event model; unset when no scheduler needs it. */
    std::optional<LogisticModel> ownedModel;
    /** Model the PES driver uses (owned or borrowed). */
    const LogisticModel *model = nullptr;
};

std::unique_ptr<SchedulerDriver>
makeFleetScheduler(SchedulerKind kind, const DeviceContext &device)
{
    switch (kind) {
      case SchedulerKind::Interactive:
        return std::make_unique<InteractiveGovernor>();
      case SchedulerKind::Ondemand:
        return std::make_unique<OndemandGovernor>();
      case SchedulerKind::Ebs:
        return std::make_unique<EbsScheduler>();
      case SchedulerKind::Pes:
        panic_if(!device.model, "fleet: PES scheduled without a model");
        return std::make_unique<PesScheduler>(*device.model);
      case SchedulerKind::Oracle:
        return std::make_unique<OracleScheduler>();
    }
    panic("makeFleetScheduler: invalid kind");
}

/**
 * Checkpointing sink of the persist stage: workers push completed
 * sessions, flushes append .psum parts and atomically re-save the
 * store manifest so a kill at any instant leaves a valid store.
 */
struct PersistSink
{
    ResultStore *store = nullptr;
    std::string label;
    PsumParams params;
    int checkpointEvery = 0;

    /** Guards pending only: pushes stay cheap while a flush writes. */
    std::mutex pendingMutex;
    std::vector<SessionRecord> pending;
    /** Contended pendingMutex acquisitions; guarded by pendingMutex. */
    LockContention pushContention;
    /** Serializes store writes and the counters/errors they update. */
    std::mutex flushMutex;
    uint64_t flushes = 0;
    uint64_t persisted = 0;
    uint64_t flushedBytes = 0;
    std::vector<std::string> errors;
    /** Optional trace sink: each flush stamps an instant event. */
    TraceEventSink *traceSink = nullptr;
    int instantLane = 0;

    void push(SessionRecord record)
    {
        std::vector<SessionRecord> batch;
        {
            ContentionGuard lock(pendingMutex, pushContention);
            pending.push_back(std::move(record));
            if (checkpointEvery <= 0 ||
                pending.size() < static_cast<size_t>(checkpointEvery))
                return;
            batch.swap(pending);
        }
        // File I/O happens outside pendingMutex, so workers completing
        // sessions during a checkpoint never block on the disk; batches
        // may land out of order, which reduction re-sorts anyway.
        flush(std::move(batch));
    }

    void finish()
    {
        std::vector<SessionRecord> batch;
        {
            std::lock_guard<std::mutex> lock(pendingMutex);
            batch.swap(pending);
        }
        if (!batch.empty())
            flush(std::move(batch));
    }

  private:
    void flush(std::vector<SessionRecord> batch)
    {
        std::lock_guard<std::mutex> lock(flushMutex);
        std::string error;
        uint64_t part_bytes = 0;
        if (store->appendPart(batch, label, params, &error,
                              &part_bytes)) {
            persisted += batch.size();
            ++flushes;
            flushedBytes += part_bytes;
            if (traceSink)
                traceSink->instant(instantLane, "checkpoint flush",
                                   "store");
        } else {
            errors.push_back("persist: " + error);
        }
    }
};

} // namespace

FleetRunner::FleetRunner(FleetConfig config) : config_(std::move(config))
{
    if (config_.devices.empty())
        config_.devices.push_back(AcmpPlatform::exynos5410());
    if (config_.threads < 1)
        config_.threads = 1;
    fatal_if(config_.resume && !config_.resultStore,
             "fleet: resume requires a result store");
    jobs_ = enumerateJobs(config_);
    const int total = static_cast<int>(jobs_.size());
    const int users_per_cell = config_.effectiveUsers();
    for (const JobRange &range : config_.externalRanges) {
        fatal_if(range.count < 0 || range.first < 0 ||
                     range.first + range.count > total,
                 "fleet: external range [%d, +%d) outside the "
                 "%d-job sweep", range.first, range.count, total);
        fatal_if(config_.warmDrivers &&
                     (range.first % users_per_cell != 0 ||
                      range.count % users_per_cell != 0),
                 "fleet: warm sweeps need cell-aligned external "
                 "ranges (%d users per cell), got [%d, +%d)",
                 users_per_cell, range.first, range.count);
    }
}

// ------------------------------------------------------------ stage: plan

FleetPlan
FleetRunner::plan() const
{
    FleetPlan plan;
    plan.totalJobs = static_cast<int>(jobs_.size());
    // The ranges this run covers (the whole sweep unless leases or a
    // static shard narrowed it), cut into execution units: whole cells
    // when drivers are warm (their cross-session state must replay in
    // order), single jobs otherwise — runRange binds one driver and
    // one cell to each planned range.
    const std::vector<JobRange> whole{JobRange{0, plan.totalJobs}};
    const std::vector<JobRange> &covered =
        config_.externalRanges.empty() ? whole : config_.externalRanges;
    const int unit = config_.warmDrivers ? config_.effectiveUsers() : 1;

    // Resume: collect the store's completed sessions once, as compact
    // (cell ordinal, user index) pairs.
    CompletedSessions done;
    if (config_.resume) {
        fatal_if(config_.resultStore->sweep() !=
                     SweepSpec::fromConfig(config_),
                 "fleet: result store '%s' holds a different sweep",
                 config_.resultStore->dir().c_str());
        std::string error;
        fatal_if(!loadCompletedSessions(*config_.resultStore, done,
                                        &error),
                 "fleet: cannot read result store: %s", error.c_str());
    }
    const auto jobDone = [&](const JobSpec &job) {
        // Job indices follow config axis order, which fromConfig
        // preserves — so this arithmetic equals the CompletedSessions
        // cell-ordinal formula over the store's SweepSpec.
        const long cell =
            (static_cast<long>(job.deviceIndex) *
                 static_cast<long>(config_.apps.size()) +
             job.appIndex) *
                static_cast<long>(config_.schedulers.size()) +
            job.schedulerIndex;
        return done.count({cell,
                           static_cast<uint32_t>(job.userIndex)}) > 0;
    };

    for (const JobRange &range : covered) {
        for (int first = range.first; first < range.first + range.count;
             first += unit) {
            if (config_.resume) {
                // Warm cells resume all-or-nothing: re-running a
                // partial cell from its first session reproduces the
                // driver's cross-session state exactly; the duplicate
                // records deduplicate at reduction.
                bool all_done = true;
                for (int i = first; i < first + unit; ++i)
                    all_done &= jobDone(jobs_[static_cast<size_t>(i)]);
                if (all_done) {
                    plan.resumeSkipped += unit;
                    continue;
                }
            }
            plan.ranges.push_back(JobRange{first, unit});
            plan.plannedJobs += unit;
        }
    }
    plan.shardSkipped =
        plan.totalJobs - plan.plannedJobs - plan.resumeSkipped;
    return plan;
}

size_t
traceCacheCapacity(const FleetConfig &config, const FleetPlan &plan)
{
    const size_t threads = static_cast<size_t>(std::max(1, config.threads));
    const size_t users = static_cast<size_t>(config.effectiveUsers());
    const size_t distinct =
        std::max<size_t>(1, config.devices.size()) * config.apps.size() *
        users;
    const bool fits = distinct <= kMaxResidentTraces;
    // A lone scheduler replays each trace once, so only a corpus
    // preload (which decodes every recording before the run) gains
    // from keeping it; otherwise hold the traces in flight.
    if (config.schedulers.size() < 2 && !(config.corpus && fits))
        return threads;
    // Workers drift apart by as long as one of them stalls, so only all
    // of a sweep's distinct traces keep every hit at any thread count.
    if (fits)
        return distinct;
    // Past the ceiling: in canonical order a trace's replays sit one
    // cell's users apart (exact for one worker), plus what the other
    // workers hold in flight meanwhile — a warm cell each, or a task's
    // chunk of fresh jobs.
    const size_t per_worker = config.warmDrivers
        ? users
        : rangesPerTask(plan.ranges.size(), static_cast<int>(threads));
    const size_t window = users + (threads - 1) * per_worker;
    return window > kMaxResidentTraces ? threads : window;
}

// ------------------------------------------------------- stages 2 to 4

FleetOutcome
FleetRunner::run()
{
    // ---- Instrumentation (both optional, both no-feedback): armed
    // telemetry records counters, an attached sink records spans.
    // Everything below branches on these pointers; report bytes are
    // identical either way (locked by tests and CI). ----
    TelemetryRegistry *telemetry =
        (config_.telemetry && config_.telemetry->enabled())
            ? config_.telemetry
            : nullptr;
    TraceEventSink *tsink = config_.traceSink;
    const bool logical = tsink && tsink->logicalClock();
    // Lane map: 0 = pipeline stages, 1..threads = workers, last =
    // store/cache instants.
    const int store_lane = config_.threads + 1;
    if (tsink) {
        tsink->nameLane(0, "runner");
        for (int w = 0; w < config_.threads; ++w)
            tsink->nameLane(w + 1, "worker " + std::to_string(w));
        tsink->nameLane(store_lane, "store");
    }
    // Stress grids share one sink across severities, so stage spans
    // carry the scenario to stay tellable apart in the viewer.
    const auto stage_name = [this](const char *stage) {
        return config_.scenario.empty()
            ? std::string(stage)
            : std::string(stage) + " [" + config_.scenario + "]";
    };

    // Memory high-water mark, sampled at every stage boundary. An OS
    // figure that varies run to run, so the logical-clock (golden-
    // locked) mode records none — same rule as the wall times.
    const auto sample_rss = [&] {
        if (telemetry && !logical) {
            telemetry->gauge(
                "mem.peak_rss_kb",
                static_cast<double>(currentPeakRssKb()));
        }
    };

    FleetOutcome outcome;
    {
        TraceSpan plan_span(tsink, 0, stage_name("plan"), "stage");
        const auto plan_start = std::chrono::steady_clock::now();
        outcome.plan = plan();
        outcome.planMs = msSince(plan_start);
    }
    sample_rss();
    outcome.jobCount = outcome.plan.plannedJobs;

    ResultStore *store = config_.resultStore;
    if (store) {
        fatal_if(store->sweep() != SweepSpec::fromConfig(config_),
                 "fleet: result store '%s' holds a different sweep",
                 store->dir().c_str());
    }

    // ---- Shared immutable state (built before any worker starts). ----
    bool needs_model = false;
    for (const SchedulerKind kind : config_.schedulers)
        needs_model |= kind == SchedulerKind::Pes;
    needs_model &= outcome.plan.plannedJobs > 0;

    std::vector<std::unique_ptr<DeviceContext>> devices;
    devices.reserve(config_.devices.size());
    for (const AcmpPlatform &platform : config_.devices) {
        auto ctx = std::make_unique<DeviceContext>(platform);
        if (needs_model) {
            if (config_.pretrainedModel && config_.devices.size() == 1 &&
                platform.name() == config_.pretrainedModelDevice) {
                ctx->model = config_.pretrainedModel;
            } else {
                ctx->ownedModel = trainEventModel(
                    ctx->trainGenerator, seenApps(),
                    config_.trainingTracesPerApp);
                ctx->model = &*ctx->ownedModel;
            }
        }
        devices.push_back(std::move(ctx));
    }

    // ---- Parallel phase: full-result runs keep job-indexed slots;
    // everything else reduces in a stream (below), so the resident set
    // never scales with the user axis. ----
    std::vector<SessionStats> stats;
    std::vector<char> executed;
    std::vector<SimResult> full;
    if (config_.collectResults) {
        stats.resize(jobs_.size());
        executed.assign(jobs_.size(), 0);
        full.resize(jobs_.size());
    }

    // Streaming canonical reduction for the stats-only, store-less
    // path (store-backed runs reduce from the store instead): float
    // sums must fold in ascending job order to stay bit-stable across
    // thread counts, so a cursor walks the planned jobs in order and
    // out-of-order completions wait in a bounded window. Sketch merges
    // commute bin-wise, so each session's latency sketch folds into
    // its cell the moment the session finishes and only the few dozen
    // scalars are stashed — a million-user sweep holds the window's
    // scalars, not a million sketches.
    const bool streaming_reduce = !store && !config_.collectResults;
    std::vector<size_t> planned_jobs;
    if (streaming_reduce) {
        for (const JobRange &range : outcome.plan.ranges)
            for (int i = 0; i < range.count; ++i)
                planned_jobs.push_back(
                    static_cast<size_t>(range.first + i));
        std::sort(planned_jobs.begin(), planned_jobs.end());
    }
    std::mutex reduce_mutex;
    size_t reduce_cursor = 0;
    std::map<size_t, SessionStats> reduce_window;
    size_t reduce_window_peak = 0;
    const auto foldJob = [&](size_t job_index, const SessionStats &s) {
        const JobSpec &job = jobs_[job_index];
        outcome.metrics.add(
            devices[static_cast<size_t>(job.deviceIndex)]
                ->platform.name(),
            config_.apps[static_cast<size_t>(job.appIndex)].name,
            schedulerKindName(
                config_.schedulers[static_cast<size_t>(
                    job.schedulerIndex)]),
            s);
    };
    const auto streamStats = [&](size_t job_index, SessionStats &&s) {
        std::lock_guard<std::mutex> lock(reduce_mutex);
        if (reduce_cursor < planned_jobs.size() &&
            planned_jobs[reduce_cursor] == job_index) {
            foldJob(job_index, s);
            ++reduce_cursor;
            while (reduce_cursor < planned_jobs.size()) {
                const auto it =
                    reduce_window.find(planned_jobs[reduce_cursor]);
                if (it == reduce_window.end())
                    break;
                foldJob(it->first, it->second);
                reduce_window.erase(it);
                ++reduce_cursor;
            }
        } else {
            const JobSpec &job = jobs_[job_index];
            outcome.metrics.addEventLatencySketch(
                devices[static_cast<size_t>(job.deviceIndex)]
                    ->platform.name(),
                config_.apps[static_cast<size_t>(job.appIndex)].name,
                schedulerKindName(
                    config_.schedulers[static_cast<size_t>(
                        job.schedulerIndex)]),
                s.latencySketch);
            s.latencySketch.clear();
            reduce_window.emplace(job_index, std::move(s));
            reduce_window_peak =
                std::max(reduce_window_peak, reduce_window.size());
        }
    };

    // Per-worker, per-device trace generators (each caches built apps).
    std::vector<std::vector<std::unique_ptr<TraceGenerator>>> generators(
        static_cast<size_t>(config_.threads));
    for (auto &slots : generators)
        slots.resize(devices.size());

    // Per-worker simulator engines, one per (device, app), and pooled
    // drivers, one per (scheduler, device): a session resets its slot
    // instead of rebuilding it, keeping the engine's allocations (DOM
    // copies, meter segments, record vectors) warm across jobs. Slots
    // are worker-private, so no locking and no cross-worker sharing.
    const size_t num_apps = config_.apps.size();
    std::vector<std::vector<std::unique_ptr<RuntimeSimulator>>> engines(
        static_cast<size_t>(config_.threads));
    std::vector<std::vector<std::unique_ptr<SchedulerDriver>>> driver_pool(
        static_cast<size_t>(config_.threads));
    for (auto &slots : engines)
        slots.resize(devices.size() * num_apps);
    for (auto &slots : driver_pool)
        slots.resize(config_.schedulers.size() * devices.size());

    // Trace storage: every session's trace comes through one LRU cache
    // keyed on (device, app, user). A miss materializes it — corpus
    // load or synthesis — and the scheduler axis replays it read-only.
    // A run-owned cache takes its capacity from the sweep shape (see
    // traceCacheCapacity); a caller-provided one keeps its own policy.
    const size_t cache_capacity = traceCacheCapacity(config_, outcome.plan);
    std::unique_ptr<TraceCache> owned_cache;
    TraceCache *cache = config_.traceCache;
    if (!cache) {
        owned_cache = std::make_unique<TraceCache>();
        owned_cache->setCapacity(cache_capacity, 0);
        if (tsink) {
            // Only the run-owned cache: a caller-provided cache
            // outlives this run and keeps its own hook policy.
            owned_cache->setEvictionHook([tsink, store_lane] {
                tsink->instant(store_lane, "cache evict", "cache");
            });
        }
        cache = owned_cache.get();
    }

    // ---- Corpus preload: replay-from-disk fleets resolve and decode
    // every planned trace up front, so a missing or corrupt recording
    // fails before any session runs, with a per-entry diagnostic. The
    // decoded trace stays resident when the sweep's traces all fit the
    // run-owned cache; otherwise keeping it would only evict it again,
    // so sessions reload it on demand. ----
    uint64_t traces_from_corpus = 0;
    if (config_.corpus) {
        const size_t distinct_traces =
            devices.size() * num_apps *
            static_cast<size_t>(config_.effectiveUsers());
        // A scenario transform never keeps the preload either: the raw
        // recording would poison the cache with untransformed traces,
        // so sessions load+derive on demand through the cache's
        // deterministic loader instead.
        const bool keep =
            !(owned_cache && cache_capacity < distinct_traces) &&
            !config_.traceTransform;
        std::set<std::tuple<std::string, std::string, uint64_t>> checked;
        for (const JobRange &range : outcome.plan.ranges) {
            for (int i = 0; i < range.count; ++i) {
                const JobSpec &job =
                    jobs_[static_cast<size_t>(range.first + i)];
                const AppProfile &profile =
                    config_.apps[static_cast<size_t>(job.appIndex)];
                const std::string &device_name =
                    devices[static_cast<size_t>(job.deviceIndex)]
                        ->platform.name();
                // Every job's trace must exist in the corpus even when
                // a caller-provided warm cache already holds the key —
                // a stale cache must not mask a missing recording.
                const CorpusEntry *entry = config_.corpus->find(
                    profile.name, device_name, job.userSeed);
                fatal_if(!entry,
                         "corpus '%s' has no trace for app '%s' on '%s' "
                         "with user seed %llu (re-record, or drop "
                         "--corpus to synthesize live)",
                         config_.corpus->dir().c_str(),
                         profile.name.c_str(), device_name.c_str(),
                         static_cast<unsigned long long>(job.userSeed));
                if (!checked
                         .insert({device_name, profile.name, job.userSeed})
                         .second)
                    continue;  // scheduler axis revisits the key
                if (keep &&
                    cache->lookup(device_name, profile.name, job.userSeed))
                    continue;  // already resident
                std::string error;
                auto trace = config_.corpus->load(*entry, &error);
                fatal_if(!trace, "corpus '%s': %s",
                         config_.corpus->dir().c_str(), error.c_str());
                if (!keep)
                    continue;  // verified; sessions reload on demand
                cache->insert(device_name, std::move(*trace));
                ++traces_from_corpus;
            }
        }
    }

    // ---- Persist sink (stage 3): checkpoints flow during execution. ----
    PersistSink sink;
    if (store) {
        sink.store = store;
        sink.label = config_.persistLabel.empty()
            ? "s0"
            : config_.persistLabel;
        sink.params = {{"writer", "fleet_runner"}};
        sink.checkpointEvery = config_.checkpointEvery;
        sink.traceSink = tsink;
        sink.instantLane = store_lane;
    }

    // On-demand corpus loads by workers (preloads not kept resident,
    // and post-eviction reloads); folded into tracesFromCorpus so
    // replay traffic is visible even when the preload kept nothing.
    std::atomic<uint64_t> corpus_loads{0};

    // Per-worker telemetry shards, created up front in worker-index
    // order so the snapshot's merge order is deterministic.
    std::vector<TelemetryShard *> shards;
    if (telemetry) {
        shards.reserve(static_cast<size_t>(config_.threads));
        for (int w = 0; w < config_.threads; ++w)
            shards.push_back(telemetry->makeShard());
    }

    std::optional<ProgressMeter> progress;
    if (config_.progress)
        progress.emplace(outcome.plan.plannedJobs);

    const auto runJob = [&](const JobSpec &job, int worker,
                            SchedulerDriver &driver) {
        DeviceContext &device = *devices[static_cast<size_t>(
            job.deviceIndex)];
        auto &gen_slot =
            generators[static_cast<size_t>(worker)]
                      [static_cast<size_t>(job.deviceIndex)];
        if (!gen_slot)
            gen_slot = std::make_unique<TraceGenerator>(device.platform);

        const AppProfile &profile =
            config_.apps[static_cast<size_t>(job.appIndex)];

        TelemetryShard *shard =
            telemetry ? shards[static_cast<size_t>(worker)] : nullptr;
        const auto job_start = std::chrono::steady_clock::now();
        // Per-job execute span on this worker's lane, covering trace
        // materialization plus the simulated session.
        TraceSpan job_span(
            tsink, worker + 1,
            tsink ? profile.name + "/" +
                    schedulerKindName(
                        config_.schedulers[static_cast<size_t>(
                            job.schedulerIndex)]) +
                    " u" + std::to_string(job.userIndex)
                  : std::string(),
            "job");

        // Misses materialize deterministically: from the corpus when
        // replaying (an evicted preload must reload the recording, never
        // re-synthesize), live synthesis otherwise. The handle keeps an
        // evicted trace alive while this session replays it.
        const TraceHandle trace = cache->getOrLoad(
            device.platform.name(), profile.name, job.userSeed,
            [&]() -> InteractionTrace {
                InteractionTrace materialized;
                if (config_.corpus) {
                    // Throw (not fatal): this runs on a worker, and
                    // the pool turns the exception into a run-level
                    // diagnostic while other workers keep going and
                    // the final checkpoint still flushes.
                    const CorpusEntry *entry = config_.corpus->find(
                        profile.name, device.platform.name(),
                        job.userSeed);
                    std::string error;
                    auto loaded = entry
                        ? config_.corpus->load(*entry, &error)
                        : std::nullopt;
                    if (!loaded) {
                        throw std::runtime_error(
                            "corpus '" + config_.corpus->dir() +
                            "': " +
                            (entry ? error
                                   : "preloaded entry disappeared"));
                    }
                    corpus_loads.fetch_add(1);
                    materialized = std::move(*loaded);
                } else if (config_.population) {
                    // Population traits are a pure function of the
                    // user seed, so refills on any worker re-derive the
                    // same cohort and multipliers (the cache key stays
                    // (device, app, seed)). Cohort stress stacks on
                    // synthesis only — corpus recordings already
                    // captured their population's behaviour.
                    const UserTraits traits = samplePopulationTraits(
                        *config_.population, job.userSeed);
                    materialized = applyCohortScenario(
                        traits,
                        gen_slot->generate(profile, job.userSeed,
                                           &traits.scale),
                        job.userSeed);
                } else {
                    materialized =
                        gen_slot->generate(profile, job.userSeed);
                }
                // Scenario derivation happens INSIDE the loader:
                // re-materializing an evicted key reproduces the
                // transformed trace byte-identically (the transform
                // is pure by contract).
                if (config_.traceTransform)
                    materialized =
                        config_.traceTransform(materialized);
                return materialized;
            });

        SimConfig sim_config;
        sim_config.renderScale = profile.renderScale;
        if (config_.seedMode == SeedMode::Fleet) {
            // Per-shard speculation-noise stream (instead of the
            // default fixed seed) so fleets are reproducible per user,
            // not merely per run.
            sim_config.specNoiseSeed =
                hashCombine(job.userSeed, kSpecNoiseSalt);
        }

        auto &simulator = engines[static_cast<size_t>(worker)]
            [static_cast<size_t>(job.deviceIndex) * num_apps +
             static_cast<size_t>(job.appIndex)];
        if (!simulator) {
            simulator = std::make_unique<RuntimeSimulator>(
                device.platform, device.power, gen_slot->appFor(profile),
                sim_config);
        }
        // The engine's app/platform/renderScale are fixed per slot; only
        // the per-session noise seed varies job to job.
        simulator->setSpecNoiseSeed(sim_config.specNoiseSeed);

        SessionStats session_stats;
        if (config_.collectResults) {
            SimResult result = simulator->run(*trace, driver);
            session_stats = SessionStats::reduce(result);
            stats[static_cast<size_t>(job.index)] = session_stats;
            full[static_cast<size_t>(job.index)] = std::move(result);
            executed[static_cast<size_t>(job.index)] = 1;
        } else {
            // Stats-only fast path: reduce the session in-flight, never
            // materializing per-event records (bit-identical reduction,
            // locked by tests).
            session_stats = simulator->runStats(*trace, driver);
        }
        if (sink.store) {
            SessionRecord record;
            record.device = device.platform.name();
            record.app = profile.name;
            record.scheduler = schedulerKindName(
                config_.schedulers[static_cast<size_t>(
                    job.schedulerIndex)]);
            record.userIndex = static_cast<uint32_t>(job.userIndex);
            record.userSeed = job.userSeed;
            record.stats = session_stats;
            sink.push(std::move(record));
        }
        if (shard) {
            // Event/session counters come from the already-reduced
            // SessionStats — the simulator's hot loop stays untouched
            // (no per-event timer or counter calls).
            const SessionStats &s = session_stats;
            shard->count("sim.sessions");
            shard->count("sim.events", static_cast<uint64_t>(s.events));
            shard->count("sim.violations",
                         static_cast<uint64_t>(s.violations));
            // Wall-clock job durations vary run to run, so the
            // logical-clock (golden-locked) mode records none.
            if (!logical)
                shard->duration("runner.job_ms", msSince(job_start));
        }
        if (streaming_reduce)
            streamStats(static_cast<size_t>(job.index),
                        std::move(session_stats));
        if (progress)
            progress->bump();
    };

    // ---- Stage 2: execute the planned ranges. ----
    const auto start = std::chrono::steady_clock::now();
    {
        // Span opens before the pool spins up and closes after it
        // drains, so at threads=1 the logical-clock tick order is fully
        // determined (the main thread blocks in wait() while the lone
        // worker takes its ticks in job order).
        TraceSpan execute_span(tsink, 0, stage_name("execute"), "stage");
        ThreadPool pool(config_.threads, telemetry != nullptr);

        // One driver per range: a per-cell "warmed device" for warm
        // ranges, a fresh-state driver for singleton ranges. The driver
        // comes from the worker's pool and is reset to as-constructed
        // state instead of rebuilt.
        const auto runRange = [&](const JobRange &range, int worker) {
            const JobSpec &head =
                jobs_[static_cast<size_t>(range.first)];
            DeviceContext &device = *devices[static_cast<size_t>(
                head.deviceIndex)];
            const SchedulerKind kind =
                config_.schedulers[static_cast<size_t>(
                    head.schedulerIndex)];
            auto &driver = driver_pool[static_cast<size_t>(worker)]
                [static_cast<size_t>(head.schedulerIndex) *
                     devices.size() +
                 static_cast<size_t>(head.deviceIndex)];
            if (!driver || !driver->resetFresh())
                driver = makeFleetScheduler(kind, device);
            for (int i = 0; i < range.count; ++i)
                runJob(jobs_[static_cast<size_t>(range.first + i)],
                       worker, *driver);
        };

        // Batch contiguous ranges so the pool sees far fewer tasks than
        // sessions — canonical (streamed or slot-indexed) reduction
        // keeps reports byte-identical regardless of how ranges are
        // grouped onto tasks. The batch size is capped (rangesPerTask):
        // giant chunks would let fast workers race megabytes of stashed
        // scalars ahead of the in-order cursor.
        const std::vector<JobRange> &ranges = outcome.plan.ranges;
        const size_t chunk = rangesPerTask(ranges.size(), config_.threads);
        for (size_t first = 0; first < ranges.size(); first += chunk) {
            const size_t count = std::min(chunk, ranges.size() - first);
            pool.submit([&, first, count](int worker) {
                for (size_t r = first; r < first + count; ++r)
                    runRange(ranges[r], worker);
            });
        }
        pool.wait();
        for (const std::string &error : pool.errors())
            outcome.diagnostics.push_back(error);
        outcome.poolStats = pool.stats();
    }
    const auto stop = std::chrono::steady_clock::now();
    sample_rss();
    if (progress)
        progress->finish();

    // ---- Stage 3: final checkpoint flush. ----
    {
        TraceSpan persist_span(tsink, 0, stage_name("persist"), "stage");
        const auto persist_start = std::chrono::steady_clock::now();
        if (store)
            sink.finish();
        outcome.persistMs = msSince(persist_start);
    }
    sample_rss();
    for (const std::string &error : sink.errors)
        outcome.diagnostics.push_back(error);
    outcome.persistedRecords = sink.persisted;
    outcome.checkpointFlushes = sink.flushes;
    outcome.checkpointBytes = sink.flushedBytes;

    outcome.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    outcome.traceCacheHits = cache->hits();
    outcome.traceCacheMisses = cache->misses();
    outcome.traceCacheEvictions = cache->evictions();
    outcome.traceCacheDuplicateSynthesis = cache->duplicateSynthesis();
    outcome.traceCacheContention = cache->lockContention();
    outcome.persistContention = sink.pushContention;
    outcome.tracesFromCorpus = traces_from_corpus + corpus_loads.load();

    // Fold run-level traffic into the registry's root shard so the
    // snapshot in the telemetry artifact is self-contained.
    if (telemetry) {
        telemetry->count("cache.hits", outcome.traceCacheHits);
        telemetry->count("cache.misses", outcome.traceCacheMisses);
        telemetry->count("cache.evictions",
                         outcome.traceCacheEvictions);
        telemetry->count("cache.duplicate_synthesis",
                         outcome.traceCacheDuplicateSynthesis);
        telemetry->count("cache.lock_waits",
                         outcome.traceCacheContention.waits);
        telemetry->count("store.push_lock_waits",
                         outcome.persistContention.waits);
        telemetry->count("corpus.loads", outcome.tracesFromCorpus);
        telemetry->count("store.checkpoint_flushes",
                         outcome.checkpointFlushes);
        telemetry->count("store.checkpoint_bytes",
                         outcome.checkpointBytes);
        telemetry->count("pool.tasks", outcome.poolStats.tasks);
    }

    // ---- Stage 4: deterministic reduction. ----
    TraceSpan reduce_span(tsink, 0, stage_name("reduce"), "stage");
    const auto reduce_start = std::chrono::steady_clock::now();
    if (store) {
        // Reduce FROM the store: one code path for whole, sharded and
        // resumed runs — the reports cover everything persisted.
        StoreReduction reduction;
        std::string error;
        if (!reduceStore(*store, reduction, &error)) {
            outcome.diagnostics.push_back("reduce: " + error);
        } else {
            outcome.metrics = std::move(reduction.metrics);
            for (const std::string &problem : reduction.problems)
                outcome.diagnostics.push_back("reduce: " + problem);
        }
    } else if (config_.collectResults) {
        for (const JobSpec &job : jobs_) {
            if (!executed[static_cast<size_t>(job.index)])
                continue;
            const DeviceContext &device =
                *devices[static_cast<size_t>(job.deviceIndex)];
            outcome.metrics.add(
                device.platform.name(),
                config_.apps[static_cast<size_t>(job.appIndex)].name,
                schedulerKindName(config_.schedulers[static_cast<size_t>(
                    job.schedulerIndex)]),
                stats[static_cast<size_t>(job.index)]);
        }
    } else {
        // Stream drain: only jobs stranded behind a gap an errored
        // range left behind wait here; fold them in the same ascending
        // job order the cursor would have used.
        for (const auto &[job_index, session_stats] : reduce_window)
            foldJob(job_index, session_stats);
        reduce_window.clear();
        if (telemetry)
            telemetry->gauge("runner.reduce_window_peak",
                             static_cast<double>(reduce_window_peak));
    }
    if (config_.collectResults) {
        for (const JobSpec &job : jobs_) {
            if (executed[static_cast<size_t>(job.index)])
                outcome.results.add(
                    std::move(full[static_cast<size_t>(job.index)]));
        }
    }
    outcome.reduceMs = msSince(reduce_start);
    sample_rss();
    return outcome;
}

RunTelemetry
makeRunTelemetry(const FleetConfig &config, const FleetOutcome &outcome)
{
    RunTelemetry t;
    t.tool = "run";
    t.scenario = config.scenario;
    t.logicalClock =
        config.traceSink && config.traceSink->logicalClock();
    t.threads = config.threads;
    if (config.telemetry)
        t.counters = config.telemetry->snapshot();

    // Sessions/events prefer the registry's counters (they cover
    // exactly what THIS run executed); an un-armed registry falls back
    // to the outcome's plan and reduction totals.
    t.sessions = t.counters.counter("sim.sessions");
    if (t.sessions == 0)
        t.sessions = static_cast<uint64_t>(outcome.jobCount);
    t.events = t.counters.counter("sim.events");
    if (t.events == 0)
        t.events = static_cast<uint64_t>(outcome.metrics.events());

    t.cacheHits = outcome.traceCacheHits;
    t.cacheMisses = outcome.traceCacheMisses;
    t.cacheEvictions = outcome.traceCacheEvictions;
    t.cacheDuplicateSynthesis = outcome.traceCacheDuplicateSynthesis;
    t.checkpointFlushes = outcome.checkpointFlushes;
    t.checkpointBytes = outcome.checkpointBytes;
    t.poolTasks = outcome.poolStats.tasks;

    // Wall-derived and scheduling-dependent fields stay zero under the
    // logical clock — that is what makes the artifact byte-reproducible
    // (the RunTelemetry determinism contract).
    if (!t.logicalClock) {
        t.peakRssKb = currentPeakRssKb();
        t.planMs = outcome.planMs;
        t.executeMs = outcome.wallMs;
        t.persistMs = outcome.persistMs;
        t.reduceMs = outcome.reduceMs;
        t.totalMs = outcome.planMs + outcome.wallMs +
            outcome.persistMs + outcome.reduceMs;
        t.poolMaxQueueDepth = outcome.poolStats.maxQueueDepth;
        t.poolBusyMs = outcome.poolStats.busyMs;
        t.poolIdleMs = outcome.poolStats.idleMs;
        // Scaling attribution is contention, i.e. scheduling: the whole
        // section stays zero under the logical clock.
        t.cacheLockWaits = outcome.traceCacheContention.waits;
        t.cacheLockWaitMs = outcome.traceCacheContention.waitMs;
        t.persistLockWaits = outcome.persistContention.waits;
        t.persistLockWaitMs = outcome.persistContention.waitMs;
        t.poolQueueTasks = outcome.poolStats.tasks;
        t.poolQueueWaitMs = outcome.poolStats.queueWaitMs;
        t.poolQueueWaitMeanMs = outcome.poolStats.tasks > 0
            ? outcome.poolStats.queueWaitMs /
                static_cast<double>(outcome.poolStats.tasks)
            : 0.0;
        t.workers.reserve(outcome.poolStats.workers.size());
        for (const ThreadPoolWorkerStats &w : outcome.poolStats.workers) {
            WorkerScaling ws;
            ws.tasks = w.tasks;
            ws.busyMs = w.busyMs;
            ws.idleMs = w.idleMs;
            ws.queueWaitMs = w.queueWaitMs;
            t.workers.push_back(ws);
        }
        t.recomputeRates();
    }
    return t;
}

} // namespace pes
