/**
 * @file
 * Tests for the population subsystem and the percentile sketches it
 * rides on: sketch merge algebra (associative, commutative, partition-
 * invariant), byte-stable serialization, the accuracy bound against
 * exact percentiles, mixture-spec identity (tags, digests, classified
 * load diagnostics), sampler determinism, and the fleet-level
 * guarantees — population sweeps byte-identical across thread counts,
 * shard splits and coordinator plans, with cross-population stores and
 * diffs refused.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "coordinator/coordinator.hh"
#include "coordinator/lease_queue.hh"
#include "population/population_spec.hh"
#include "results/report_diff.hh"
#include "results/result_reduce.hh"
#include "results/result_store.hh"
#include "runner/fleet_runner.hh"
#include "runner/reporters.hh"
#include "util/psketch.hh"
#include "util/rng.hh"

namespace fs = std::filesystem;

namespace pes {
namespace {

/** Unique scratch directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / ("pes_population_test_" + name))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }

    std::string str() const { return path.string(); }

    fs::path path;
};

std::string
sketchBytes(const PercentileSketch &s)
{
    std::string out;
    s.appendTo(out);
    return out;
}

/** Deterministic lognormal-ish latency stream for sketch tests. */
std::vector<double>
latencySamples(size_t n, uint64_t seed = 0x5e7c4)
{
    std::vector<double> xs;
    xs.reserve(n);
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i)
        xs.push_back(rng.lognormal(120.0, 0.9));
    return xs;
}

// ------------------------------------------------------------ sketches

TEST(PercentileSketch, MergeIsAssociativeAndCommutative)
{
    const std::vector<double> xs = latencySamples(3000);
    PercentileSketch a, b, c;
    for (size_t i = 0; i < xs.size(); ++i)
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(xs[i]);

    PercentileSketch ab_c = a;
    ab_c.merge(b);
    ab_c.merge(c);

    PercentileSketch bc = b;
    bc.merge(c);
    PercentileSketch a_bc = a;
    a_bc.merge(bc);

    PercentileSketch cba = c;
    cba.merge(b);
    cba.merge(a);

    EXPECT_EQ(ab_c, a_bc);
    EXPECT_EQ(ab_c, cba);
    EXPECT_EQ(sketchBytes(ab_c), sketchBytes(a_bc));
    EXPECT_EQ(sketchBytes(ab_c), sketchBytes(cba));
}

TEST(PercentileSketch, AnyPartitioningMergesToTheWholeStreamState)
{
    const std::vector<double> xs = latencySamples(5000);
    PercentileSketch whole;
    for (const double x : xs)
        whole.add(x);

    for (const size_t parts : {2u, 7u, 31u}) {
        std::vector<PercentileSketch> shards(parts);
        for (size_t i = 0; i < xs.size(); ++i)
            shards[i % parts].add(xs[i]);
        // Merge in descending order — opposite of shard order.
        PercentileSketch merged;
        for (size_t k = parts; k-- > 0;)
            merged.merge(shards[k]);
        EXPECT_EQ(merged, whole) << parts << " parts";
        EXPECT_EQ(sketchBytes(merged), sketchBytes(whole));
    }
}

TEST(PercentileSketch, SerializationRoundTripsAndRejectsTruncation)
{
    PercentileSketch sketch;
    for (const double x : latencySamples(1000))
        sketch.add(x);
    sketch.add(0.0);  // exercise the zero bucket

    const std::string bytes = sketchBytes(sketch);
    ByteReader reader(bytes);
    PercentileSketch parsed;
    ASSERT_TRUE(PercentileSketch::readFrom(reader, parsed));
    EXPECT_EQ(parsed, sketch);
    EXPECT_EQ(sketchBytes(parsed), bytes);

    // An empty sketch round-trips too (the .psum fixed footprint).
    const PercentileSketch empty;
    const std::string empty_bytes = sketchBytes(empty);
    ByteReader er(empty_bytes);
    PercentileSketch eparsed;
    ASSERT_TRUE(PercentileSketch::readFrom(er, eparsed));
    EXPECT_TRUE(eparsed.empty());

    for (const size_t cut :
         {size_t(0), size_t(4), size_t(12), bytes.size() - 1}) {
        const std::string truncated = bytes.substr(0, cut);
        ByteReader tr(truncated);
        PercentileSketch out;
        EXPECT_FALSE(PercentileSketch::readFrom(tr, out)) << cut;
    }
}

TEST(PercentileSketch, QuantilesMeetTheRelativeErrorBound)
{
    std::vector<double> xs = latencySamples(100000);
    PercentileSketch sketch;
    for (const double x : xs)
        sketch.add(x);
    std::sort(xs.begin(), xs.end());

    // Bucketing guarantees ~1/(2*64) relative error on the value; allow
    // a bit over it for the nearest-rank difference between the sketch
    // walk and the exact order statistic.
    const double bound = 1.5 / (2.0 * PercentileSketch::kSubBuckets);
    for (const double q : {0.50, 0.95, 0.99}) {
        const double exact =
            xs[static_cast<size_t>(q * (xs.size() - 1))];
        const double approx = sketch.quantile(q);
        EXPECT_NEAR(approx / exact, 1.0, bound) << "q=" << q;
    }
    EXPECT_LE(sketch.binCount(), 2048u);  // bounded memory, 1e5 samples
}

// ----------------------------------------------------- spec & identity

TEST(PopulationSpec, TagRoundTripsNameAndDigest)
{
    for (const PopulationSpec &spec : populationRegistry()) {
        const std::string tag = populationTag(spec);
        std::string name;
        uint64_t digest = 0;
        ASSERT_TRUE(parsePopulationTag(tag, &name, &digest)) << tag;
        EXPECT_EQ(name, spec.name);
        EXPECT_EQ(digest, populationDigest(spec));
    }
    std::string name;
    uint64_t digest = 0;
    EXPECT_FALSE(parsePopulationTag("", &name, &digest));
    EXPECT_FALSE(parsePopulationTag("no-digest", &name, &digest));
}

TEST(PopulationSpec, CanonicalTextRoundTripsToTheSameDigest)
{
    const TempDir dir("spec_roundtrip");
    for (const PopulationSpec &spec : populationRegistry()) {
        const std::string path = (dir.path / "spec.json").string();
        std::ofstream(path) << populationSpecText(spec);
        std::vector<IntegrityProblem> problems;
        const auto loaded = loadPopulationSpec(path, problems);
        ASSERT_TRUE(loaded.has_value())
            << spec.name << ": "
            << (problems.empty() ? "?" : problems[0].message);
        EXPECT_EQ(populationDigest(*loaded), populationDigest(spec))
            << spec.name;
        EXPECT_EQ(populationTag(*loaded), populationTag(spec));
    }
}

TEST(PopulationSpec, LoadFailuresAreClassified)
{
    const TempDir dir("spec_diag");
    std::vector<IntegrityProblem> problems;

    // Missing file -> exit 3.
    EXPECT_FALSE(loadPopulationSpec((dir.path / "absent.json").string(),
                                    problems)
                     .has_value());
    ASSERT_FALSE(problems.empty());
    EXPECT_EQ(integrityExitCode(problems), 3);

    // Malformed JSON -> exit 4.
    const std::string garbled = (dir.path / "garbled.json").string();
    std::ofstream(garbled) << "{ not json";
    problems.clear();
    EXPECT_FALSE(loadPopulationSpec(garbled, problems).has_value());
    ASSERT_FALSE(problems.empty());
    EXPECT_EQ(integrityExitCode(problems), 4);

    // Unknown registry name -> exit 4.
    problems.clear();
    EXPECT_FALSE(resolvePopulation("no_such_mixture", problems)
                     .has_value());
    ASSERT_FALSE(problems.empty());
    EXPECT_EQ(integrityExitCode(problems), 4);

    // A built-in resolves clean.
    problems.clear();
    EXPECT_TRUE(resolvePopulation("commuter_mix", problems).has_value());
    EXPECT_TRUE(problems.empty());
}

TEST(PopulationSpec, SamplerIsDeterministicAndCoversEveryCohort)
{
    const PopulationSpec *spec = findPopulation("city_blend");
    ASSERT_NE(spec, nullptr);

    std::map<int, int> cohorts;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t seed =
            populationUserSeed(populationDigest(*spec), 0xf1ee7, i);
        const UserTraits once = samplePopulationTraits(*spec, seed);
        const UserTraits again = samplePopulationTraits(*spec, seed);
        EXPECT_EQ(once.cohort, again.cohort);
        EXPECT_EQ(once.scale.thinkScale, again.scale.thinkScale);
        EXPECT_EQ(once.scale.moveAffinity, again.scale.moveAffinity);
        EXPECT_EQ(once.scale.tapAffinity, again.scale.tapAffinity);
        EXPECT_EQ(once.scale.navAffinity, again.scale.navAffinity);
        EXPECT_EQ(once.severity, again.severity);
        ++cohorts[once.cohort];

        for (const double s :
             {once.scale.thinkScale, once.scale.moveAffinity,
              once.scale.tapAffinity, once.scale.navAffinity}) {
            EXPECT_GE(s, 0.05);
            EXPECT_LE(s, 8.0);
        }
    }
    EXPECT_EQ(cohorts.size(), spec->cohorts.size())
        << "2000 users should hit every cohort of the mixture";
}

// --------------------------------------------- fleet-level determinism

/** Small population sweep: two schedulers, one app, six users. */
FleetConfig
populationFleet(const PopulationSpec &spec)
{
    FleetConfig config;
    config.schedulers = {SchedulerKind::Ebs, SchedulerKind::Interactive};
    config.apps = {appByName("cnn")};
    config.users = 6;
    config.baseSeed = 0xf1ee7;
    config.population = &spec;
    config.populationTag = populationTag(spec);
    config.populationDigest = populationDigest(spec);
    return config;
}

std::string
reportBytes(const FleetConfig &config, const MetricsAggregator &metrics)
{
    return JsonReporter::toString(makeFleetReport(config, metrics)) +
        CsvReporter::toString(makeFleetReport(config, metrics));
}

std::string
storeReportBytes(const ResultStore &store)
{
    StoreReduction reduction;
    std::string error;
    EXPECT_TRUE(reduceStore(store, reduction, &error)) << error;
    EXPECT_TRUE(reduction.problems.empty())
        << (reduction.problems.empty() ? "" : reduction.problems[0]);
    return JsonReporter::toString(
               makeStoreReport(store, reduction.metrics)) +
        CsvReporter::toString(makeStoreReport(store, reduction.metrics));
}

TEST(PopulationFleet, ReportsAreThreadCountInvariant)
{
    const PopulationSpec *spec = findPopulation("commuter_mix");
    ASSERT_NE(spec, nullptr);

    FleetConfig t1 = populationFleet(*spec);
    t1.threads = 1;
    FleetRunner r1(t1);
    const std::string bytes1 = reportBytes(r1.config(), r1.run().metrics);

    FleetConfig t8 = populationFleet(*spec);
    t8.threads = 8;
    FleetRunner r8(t8);
    const std::string bytes8 = reportBytes(r8.config(), r8.run().metrics);

    EXPECT_EQ(bytes1, bytes8);
    EXPECT_NE(bytes1.find(populationTag(*spec)), std::string::npos)
        << "the report must carry the population tag";
}

TEST(PopulationFleet, PopulationChangesTheTracesNotJustTheTag)
{
    const PopulationSpec *spec = findPopulation("evening_binge");
    ASSERT_NE(spec, nullptr);

    FleetConfig with = populationFleet(*spec);
    FleetRunner rw(with);
    const FleetReport with_report =
        makeFleetReport(rw.config(), rw.run().metrics);

    FleetConfig without = populationFleet(*spec);
    without.population = nullptr;
    without.populationTag.clear();
    without.populationDigest = 0;
    FleetRunner ro(without);
    const FleetReport without_report =
        makeFleetReport(ro.config(), ro.run().metrics);

    ASSERT_EQ(with_report.cells.size(), without_report.cells.size());
    bool differs = false;
    for (size_t i = 0; i < with_report.cells.size(); ++i)
        differs |= with_report.cells[i].events !=
            without_report.cells[i].events;
    EXPECT_TRUE(differs)
        << "a binge-heavy mixture must reshape the generated traces";
}

TEST(PopulationFleet, ShardSplitMergeEqualsTheWholeRun)
{
    const PopulationSpec *spec = findPopulation("commuter_mix");
    ASSERT_NE(spec, nullptr);
    const TempDir dir("pop_shards");
    std::string error;

    FleetConfig whole = populationFleet(*spec);
    FleetRunner whole_runner(whole);
    const std::string whole_bytes =
        reportBytes(whole_runner.config(), whole_runner.run().metrics);

    std::vector<std::string> shard_dirs;
    for (int k = 0; k < 2; ++k) {
        FleetConfig shard = populationFleet(*spec);
        shard.threads = 1 + k;
        shard.checkpointEvery = 2;
        selectShard(shard, k, 2);
        const std::string shard_dir =
            (dir.path / ("s" + std::to_string(k))).string();
        auto store = ResultStore::create(
            shard_dir, SweepSpec::fromConfig(shard), &error);
        ASSERT_TRUE(store.has_value()) << error;
        shard.resultStore = &*store;
        FleetRunner runner(shard);
        EXPECT_TRUE(runner.run().diagnostics.empty());
        shard_dirs.push_back(shard_dir);
    }

    auto merged = ResultStore::create((dir.path / "merged").string(),
                                      SweepSpec::fromConfig(whole),
                                      &error);
    ASSERT_TRUE(merged.has_value()) << error;
    for (const std::string &shard_dir : shard_dirs) {
        auto src = ResultStore::open(shard_dir, &error);
        ASSERT_TRUE(src.has_value()) << error;
        ASSERT_TRUE(merged->mergeFrom(*src, &error)) << error;
    }
    EXPECT_EQ(storeReportBytes(*merged), whole_bytes);
}

TEST(PopulationFleet, CoordinatorPlanReproducesTheDirectRunBytes)
{
    const PopulationSpec *spec = findPopulation("commuter_mix");
    ASSERT_NE(spec, nullptr);
    const TempDir dir("pop_queue");
    std::string error;

    FleetConfig direct = populationFleet(*spec);
    FleetRunner direct_runner(direct);
    const std::string direct_bytes =
        reportBytes(direct_runner.config(), direct_runner.run().metrics);

    // Round-trip the sweep identity through a queue plan on disk — what
    // `pes_coordinator init` writes and `pes_fleet work` reads back.
    QueuePlan plan;
    plan.resultsDir = (dir.path / "results").string();
    plan.grain = 4;
    plan.baseSeed = direct.baseSeed;
    plan.seedMode = "fleet";
    plan.users = direct.users;
    plan.devices = SweepSpec::fromConfig(direct).devices;
    plan.apps = {"cnn"};
    plan.schedulers = SweepSpec::fromConfig(direct).schedulers;
    plan.population = *spec;
    plan.ranges = partitionJobs(direct.jobCount(), plan.grain);
    auto queue =
        LeaseQueue::create((dir.path / "queue").string(), plan, &error);
    ASSERT_TRUE(queue.has_value()) << error;

    auto reopened =
        LeaseQueue::open((dir.path / "queue").string(), &error);
    ASSERT_TRUE(reopened.has_value()) << error;
    ASSERT_TRUE(reopened->plan().population.has_value());
    EXPECT_EQ(populationDigest(*reopened->plan().population),
              populationDigest(*spec));

    FleetConfig from_plan = configOf(reopened->plan());
    EXPECT_EQ(from_plan.populationTag, populationTag(*spec));
    FleetRunner plan_runner(from_plan);
    EXPECT_EQ(reportBytes(plan_runner.config(),
                          plan_runner.run().metrics),
              direct_bytes);
}

// ----------------------------------------------------------- refusals

TEST(PopulationFleet, StoresAndDiffsRefuseToMixPopulations)
{
    const PopulationSpec *commuters = findPopulation("commuter_mix");
    const PopulationSpec *bingers = findPopulation("evening_binge");
    ASSERT_NE(commuters, nullptr);
    ASSERT_NE(bingers, nullptr);
    const TempDir dir("pop_refusal");
    std::string error;

    const FleetConfig a = populationFleet(*commuters);
    const FleetConfig b = populationFleet(*bingers);

    // A store created for one population refuses the other...
    auto store = ResultStore::create((dir.path / "store").string(),
                                     SweepSpec::fromConfig(a), &error);
    ASSERT_TRUE(store.has_value()) << error;
    EXPECT_FALSE(ResultStore::create((dir.path / "store").string(),
                                     SweepSpec::fromConfig(b), &error)
                     .has_value());
    EXPECT_NE(error.find("population"), std::string::npos) << error;

    // ...and merge refuses a foreign-population source store.
    auto foreign = ResultStore::create((dir.path / "foreign").string(),
                                       SweepSpec::fromConfig(b), &error);
    ASSERT_TRUE(foreign.has_value()) << error;
    EXPECT_FALSE(store->mergeFrom(*foreign, &error));

    // Diffs across populations are incomparable: classified exit 4.
    FleetRunner ra(a);
    const FleetReport report_a =
        makeFleetReport(ra.config(), ra.run().metrics);
    FleetRunner rb(b);
    const FleetReport report_b =
        makeFleetReport(rb.config(), rb.run().metrics);
    const DiffSummary summary =
        diffReports(report_a, report_b, DiffOptions{});
    EXPECT_FALSE(summary.comparable);
    EXPECT_EQ(diffExitCode(summary), 4);
}

} // namespace
} // namespace pes
