/**
 * @file
 * Per-layer spans for the traced pes_fleet build (pes_fleet_traced).
 *
 * CMakeLists.txt next to this file links tools/pes_fleet.cc and the
 * unchanged pes_core library a second time, passing `--wrap=<symbol>` to
 * GNU ld for every symbol named in a PES_WRAP(...) below. The linker
 * sends each call of <symbol> made from another object file to
 * __wrap_<symbol>, defined here, which times the call and forwards it to
 * __real_<symbol>, the original. Nothing under src/ changes, so the traced
 * binary writes the same report bytes as the plain one.
 *
 * The __real_ symbols are weak. When an entry point is renamed, its
 * __real_ resolves to null, the build still links, and the layer is
 * reported as missing instead of being timed.
 *
 * Spans stay in memory. When the process exits they are summarised as
 * JSON into the file named by $PES_LAYER_TRACE (nothing is written when
 * it is unset). A layer's self time is its duration minus the time of
 * the traced spans nested inside it on the same thread.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/optimizer.hh"
#include "core/predictor.hh"
#include "corpus/trace_cache.hh"
#include "ml/logistic.hh"
#include "ml/trainer.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "sim/runtime_simulator.hh"
#include "solver/schedule_problem.hh"
#include "trace/generator.hh"
#include "web/dom_analyzer.hh"

#define PES_WRAP(sym) __asm__("__wrap_" #sym)
#define PES_REAL(sym) __asm__("__real_" #sym) __attribute__((weak))

using namespace pes;

// ------------------------------------------------------------ originals

LogisticModel real_trainEventModel(TraceGenerator &,
                                   const std::vector<AppProfile> &, int,
                                   const TrainConfig &)
    PES_REAL(_ZN3pes15trainEventModelERNS_14TraceGeneratorERKSt6vectorINS_10AppProfileESaIS3_EEiRKNS_11TrainConfigE);

InteractionTrace real_generate(TraceGenerator *, const AppProfile &,
                               uint64_t, const UserParams *)
    PES_REAL(_ZN3pes14TraceGenerator8generateERKNS_10AppProfileEmPKNS_10UserParamsE);

TraceHandle real_getOrLoad(TraceCache *, const std::string &,
                           const std::string &, uint64_t,
                           const std::function<InteractionTrace()> &)
    PES_REAL(_ZN3pes10TraceCache9getOrLoadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES8_mRKSt8functionIFNS_16InteractionTraceEvEE);

std::vector<CandidateEvent> real_likelyNextEvents(const DomAnalyzer *,
                                                  const DomOverlay &)
    PES_REAL(_ZNK3pes11DomAnalyzer16likelyNextEventsERKNS_10DomOverlayE);

DomAnalysis real_analyze(const DomAnalyzer *, const DomOverlay &)
    PES_REAL(_ZNK3pes11DomAnalyzer7analyzeERKNS_10DomOverlayE);

std::vector<PredictedEvent> real_predictSequence(const EventPredictor *,
                                                 const DomAnalyzer &,
                                                 DomOverlay, FeatureWindow)
    PES_REAL(_ZNK3pes14EventPredictor15predictSequenceERKNS_11DomAnalyzerENS_10DomOverlayENS_13FeatureWindowE);

ScheduleSolution real_planSchedule(const GlobalOptimizer *, TimeMs,
                                   const AcmpConfig &,
                                   const std::vector<PlanEventSpec> &)
    PES_REAL(_ZNK3pes15GlobalOptimizer12planScheduleEdRKNS_10AcmpConfigERKSt6vectorINS_13PlanEventSpecESaIS5_EE);

ScheduleSolution real_solve(const ParetoDpSolver *, const ScheduleProblem &)
    PES_REAL(_ZNK3pes14ParetoDpSolver5solveERKNS_15ScheduleProblemE);

SessionStats real_runStats(RuntimeSimulator *, const InteractionTrace &,
                           SchedulerDriver &)
    PES_REAL(_ZN3pes16RuntimeSimulator8runStatsERKNS_16InteractionTraceERNS_15SchedulerDriverE);

SimResult real_run(RuntimeSimulator *, const InteractionTrace &,
                   SchedulerDriver &)
    PES_REAL(_ZN3pes16RuntimeSimulator3runERKNS_16InteractionTraceERNS_15SchedulerDriverE);

bool real_appendPart(ResultStore *, const std::vector<SessionRecord> &,
                     const std::string &, const PsumParams &,
                     std::string *, uint64_t *)
    PES_REAL(_ZN3pes11ResultStore10appendPartERKSt6vectorINS_13SessionRecordESaIS2_EERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKS1_ISt4pairISC_SC_ESaISG_EEPSC_Pm);

bool real_reduceStore(const ResultStore &, StoreReduction &, std::string *)
    PES_REAL(_ZN3pes11reduceStoreERKNS_11ResultStoreERNS_14StoreReductionEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE);

namespace {

using Clock = std::chrono::steady_clock;

enum Layer
{
    kTrain,
    kGenerate,
    kCache,
    kLikelyNext,
    kPredict,
    kPlan,
    kSolve,
    kSim,
    kAppend,
    kReduce,
    kLayerCount
};

const char *const kLayerNames[kLayerCount] = {
    "train", "generate", "cache", "likely_next", "predict",
    "plan", "solve", "sim", "append", "reduce"};

struct LayerTotals
{
    uint64_t calls = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Nearest-rank percentile of @p sorted (0 when empty). */
double
percentile(const std::vector<int64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(q * sorted.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return static_cast<double>(sorted[rank - 1]);
}

/** Everything the spans record; written out when the process exits. */
struct Recorder
{
    std::mutex mutex;
    LayerTotals layers[kLayerCount];
    std::vector<int64_t> solveNs;
    std::vector<int64_t> sessionNs;
    uint64_t solveEvents = 0;
    uint64_t solveInfeasible = 0;
    uint64_t simEvents = 0;
    uint64_t appendBytes = 0;
    uint64_t cacheHits = 0;

    ~Recorder() { write(); }

    void write();
};

Recorder recorder;

/** Per open span on this thread: time spent in traced spans nested in it. */
thread_local std::vector<int64_t> childNs;
/** Predictor calls open on this thread. Trace synthesis and training run
 *  the same DOM analysis to model the user; only the predictor's calls
 *  count as the web layer. */
thread_local int predictDepth = 0;
/** Start of the session being materialized on this thread: set by the
 *  first trace lookup or synthesis, consumed when the session's
 *  simulation returns. */
thread_local std::optional<Clock::time_point> sessionStart;

/** Times one call into a layer, from construction to destruction. */
class Span
{
  public:
    explicit Span(Layer layer) : layer_(layer), start_(Clock::now())
    {
        childNs.push_back(0);
    }

    ~Span()
    {
        const int64_t ns = nsBetween(start_, Clock::now());
        const int64_t nested = childNs.back();
        childNs.pop_back();
        if (!childNs.empty())
            childNs.back() += ns;
        std::lock_guard<std::mutex> lock(recorder.mutex);
        LayerTotals &totals = recorder.layers[layer_];
        ++totals.calls;
        totals.totalNs += ns;
        totals.selfNs += ns - nested;
        if (samples_)
            samples_->push_back(ns);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    Clock::time_point start() const { return start_; }

    /** Also keep this call's duration in @p samples. */
    void sampleInto(std::vector<int64_t> &samples) { samples_ = &samples; }

  private:
    Layer layer_;
    Clock::time_point start_;
    std::vector<int64_t> *samples_ = nullptr;
};

void
noteSessionStart()
{
    if (!sessionStart)
        sessionStart = Clock::now();
}

void
noteSessionEnd(const Span &sim_span, int events)
{
    const Clock::time_point end = Clock::now();
    const int64_t ns =
        nsBetween(sessionStart.value_or(sim_span.start()), end);
    sessionStart.reset();
    std::lock_guard<std::mutex> lock(recorder.mutex);
    recorder.sessionNs.push_back(ns);
    recorder.simEvents += static_cast<uint64_t>(events);
}

void
Recorder::write()
{
    const char *path = std::getenv("PES_LAYER_TRACE");
    if (!path || !*path)
        return;
    std::FILE *out = std::fopen(path, "w");
    if (!out) {
        std::perror(path);
        return;
    }
    // A null original means its entry point no longer exists.
    const bool missing[kLayerCount] = {
        !&real_trainEventModel,
        !&real_generate,
        !&real_getOrLoad,
        !&real_likelyNextEvents || !&real_analyze,
        !&real_predictSequence,
        !&real_planSchedule,
        !&real_solve,
        !&real_runStats || !&real_run,
        !&real_appendPart,
        !&real_reduceStore};
    std::sort(solveNs.begin(), solveNs.end());
    std::sort(sessionNs.begin(), sessionNs.end());
    std::fprintf(out, "{\"layers\": {");
    for (int l = 0; l < kLayerCount; ++l) {
        std::fprintf(out,
                     "%s\"%s\": {\"calls\": %llu, \"total_ms\": %.6f, "
                     "\"self_ms\": %.6f, \"missing\": %s}",
                     l ? ", " : "", kLayerNames[l],
                     static_cast<unsigned long long>(layers[l].calls),
                     layers[l].totalNs / 1e6, layers[l].selfNs / 1e6,
                     missing[l] ? "true" : "false");
    }
    std::fprintf(
        out,
        "}, \"solve_p50_us\": %.3f, \"solve_p99_us\": %.3f, "
        "\"solve_max_ms\": %.6f, \"solve_events\": %llu, "
        "\"solve_infeasible\": %llu, \"sessions\": %zu, "
        "\"session_p50_ms\": %.6f, \"session_p99_ms\": %.6f, "
        "\"sim_events\": %llu, \"append_bytes\": %llu, "
        "\"cache_hits\": %llu}\n",
        percentile(solveNs, 0.50) / 1e3, percentile(solveNs, 0.99) / 1e3,
        (solveNs.empty() ? 0.0 : solveNs.back() / 1e6),
        static_cast<unsigned long long>(solveEvents),
        static_cast<unsigned long long>(solveInfeasible),
        sessionNs.size(), percentile(sessionNs, 0.50) / 1e6,
        percentile(sessionNs, 0.99) / 1e6,
        static_cast<unsigned long long>(simEvents),
        static_cast<unsigned long long>(appendBytes),
        static_cast<unsigned long long>(cacheHits));
    std::fclose(out);
}

} // namespace

// ------------------------------------------------------------ wrappers

LogisticModel wrap_trainEventModel(TraceGenerator &,
    const std::vector<AppProfile> &, int, const TrainConfig &)
    PES_WRAP(_ZN3pes15trainEventModelERNS_14TraceGeneratorERKSt6vectorINS_10AppProfileESaIS3_EEiRKNS_11TrainConfigE);
LogisticModel
wrap_trainEventModel(TraceGenerator &generator,
                     const std::vector<AppProfile> &profiles,
                     int traces_per_app, const TrainConfig &config)
{
    Span span(kTrain);
    return real_trainEventModel(generator, profiles, traces_per_app,
                                config);
}

InteractionTrace wrap_generate(TraceGenerator *, const AppProfile &, uint64_t,
    const UserParams *)
    PES_WRAP(_ZN3pes14TraceGenerator8generateERKNS_10AppProfileEmPKNS_10UserParamsE);
InteractionTrace
wrap_generate(TraceGenerator *self, const AppProfile &profile,
              uint64_t user_seed, const UserParams *trait_scale)
{
    noteSessionStart();
    Span span(kGenerate);
    return real_generate(self, profile, user_seed, trait_scale);
}

TraceHandle wrap_getOrLoad(TraceCache *, const std::string &,
    const std::string &, uint64_t, const std::function<InteractionTrace()> &)
    PES_WRAP(_ZN3pes10TraceCache9getOrLoadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES8_mRKSt8functionIFNS_16InteractionTraceEvEE);
TraceHandle
wrap_getOrLoad(TraceCache *self, const std::string &device,
               const std::string &app, uint64_t user_seed,
               const std::function<InteractionTrace()> &loader)
{
    noteSessionStart();
    // A lookup is a hit unless the cache ran the loader.
    bool loaded = false;
    const std::function<InteractionTrace()> counted = [&] {
        loaded = true;
        return loader();
    };
    Span span(kCache);
    TraceHandle handle =
        real_getOrLoad(self, device, app, user_seed, counted);
    if (!loaded) {
        std::lock_guard<std::mutex> lock(recorder.mutex);
        ++recorder.cacheHits;
    }
    return handle;
}

std::vector<CandidateEvent> wrap_likelyNextEvents(const DomAnalyzer *,
    const DomOverlay &)
    PES_WRAP(_ZNK3pes11DomAnalyzer16likelyNextEventsERKNS_10DomOverlayE);
std::vector<CandidateEvent>
wrap_likelyNextEvents(const DomAnalyzer *self, const DomOverlay &state)
{
    if (predictDepth == 0)
        return real_likelyNextEvents(self, state);
    Span span(kLikelyNext);
    return real_likelyNextEvents(self, state);
}

// The predictor's hot path gets the same LNES from the batched analyze();
// both count as the DOM-analysis layer.
DomAnalysis wrap_analyze(const DomAnalyzer *, const DomOverlay &)
    PES_WRAP(_ZNK3pes11DomAnalyzer7analyzeERKNS_10DomOverlayE);
DomAnalysis
wrap_analyze(const DomAnalyzer *self, const DomOverlay &state)
{
    if (predictDepth == 0)
        return real_analyze(self, state);
    Span span(kLikelyNext);
    return real_analyze(self, state);
}

std::vector<PredictedEvent> wrap_predictSequence(const EventPredictor *,
    const DomAnalyzer &, DomOverlay, FeatureWindow)
    PES_WRAP(_ZNK3pes14EventPredictor15predictSequenceERKNS_11DomAnalyzerENS_10DomOverlayENS_13FeatureWindowE);
std::vector<PredictedEvent>
wrap_predictSequence(const EventPredictor *self, const DomAnalyzer &analyzer,
                     DomOverlay state, FeatureWindow window)
{
    Span span(kPredict);
    ++predictDepth;
    std::vector<PredictedEvent> predicted = real_predictSequence(
        self, analyzer, std::move(state), std::move(window));
    --predictDepth;
    return predicted;
}

ScheduleSolution wrap_planSchedule(const GlobalOptimizer *, TimeMs,
    const AcmpConfig &, const std::vector<PlanEventSpec> &)
    PES_WRAP(_ZNK3pes15GlobalOptimizer12planScheduleEdRKNS_10AcmpConfigERKSt6vectorINS_13PlanEventSpecESaIS5_EE);
ScheduleSolution
wrap_planSchedule(const GlobalOptimizer *self, TimeMs now,
                  const AcmpConfig &current_config,
                  const std::vector<PlanEventSpec> &events)
{
    Span span(kPlan);
    return real_planSchedule(self, now, current_config, events);
}

ScheduleSolution wrap_solve(const ParetoDpSolver *, const ScheduleProblem &)
    PES_WRAP(_ZNK3pes14ParetoDpSolver5solveERKNS_15ScheduleProblemE);
ScheduleSolution
wrap_solve(const ParetoDpSolver *self, const ScheduleProblem &problem)
{
    ScheduleSolution solution;
    {
        Span span(kSolve);
        span.sampleInto(recorder.solveNs);
        solution = real_solve(self, problem);
    }
    std::lock_guard<std::mutex> lock(recorder.mutex);
    recorder.solveEvents += problem.events.size();
    recorder.solveInfeasible += solution.feasible ? 0 : 1;
    return solution;
}

SessionStats wrap_runStats(RuntimeSimulator *, const InteractionTrace &,
    SchedulerDriver &)
    PES_WRAP(_ZN3pes16RuntimeSimulator8runStatsERKNS_16InteractionTraceERNS_15SchedulerDriverE);
SessionStats
wrap_runStats(RuntimeSimulator *self, const InteractionTrace &trace,
              SchedulerDriver &driver)
{
    Span span(kSim);
    SessionStats stats = real_runStats(self, trace, driver);
    noteSessionEnd(span, stats.events);
    return stats;
}

SimResult wrap_run(RuntimeSimulator *, const InteractionTrace &,
    SchedulerDriver &)
    PES_WRAP(_ZN3pes16RuntimeSimulator3runERKNS_16InteractionTraceERNS_15SchedulerDriverE);
SimResult
wrap_run(RuntimeSimulator *self, const InteractionTrace &trace,
         SchedulerDriver &driver)
{
    Span span(kSim);
    SimResult result = real_run(self, trace, driver);
    noteSessionEnd(span, static_cast<int>(result.events.size()));
    return result;
}

bool wrap_appendPart(ResultStore *, const std::vector<SessionRecord> &,
    const std::string &, const PsumParams &, std::string *, uint64_t *)
    PES_WRAP(_ZN3pes11ResultStore10appendPartERKSt6vectorINS_13SessionRecordESaIS2_EERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKS1_ISt4pairISC_SC_ESaISG_EEPSC_Pm);
bool
wrap_appendPart(ResultStore *self, const std::vector<SessionRecord> &records,
                const std::string &label, const PsumParams &params,
                std::string *error, uint64_t *bytes_written)
{
    uint64_t bytes = 0;
    bool ok = false;
    {
        Span span(kAppend);
        ok = real_appendPart(self, records, label, params, error, &bytes);
    }
    if (bytes_written)
        *bytes_written = bytes;
    std::lock_guard<std::mutex> lock(recorder.mutex);
    recorder.appendBytes += bytes;
    return ok;
}

bool wrap_reduceStore(const ResultStore &, StoreReduction &, std::string *)
    PES_WRAP(_ZN3pes11reduceStoreERKNS_11ResultStoreERNS_14StoreReductionEPNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE);
bool
wrap_reduceStore(const ResultStore &store, StoreReduction &out,
                 std::string *error)
{
    Span span(kReduce);
    return real_reduceStore(store, out, error);
}
