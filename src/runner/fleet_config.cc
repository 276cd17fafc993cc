#include "runner/fleet_config.hh"

#include <algorithm>
#include <climits>

#include "population/population_spec.hh"
#include "trace/generator.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace pes {

int
FleetConfig::effectiveUsers() const
{
    return userSeeds.empty() ? users : static_cast<int>(userSeeds.size());
}

int
FleetConfig::cellCount() const
{
    const size_t devs = devices.empty() ? 1 : devices.size();
    return static_cast<int>(devs * apps.size() * schedulers.size());
}

int
FleetConfig::jobCount() const
{
    const long long total =
        static_cast<long long>(cellCount()) * effectiveUsers();
    fatal_if(total > INT_MAX, "fleet: %lld sessions exceed the job limit",
             total);
    return static_cast<int>(total);
}

uint64_t
fleetUserSeed(const FleetConfig &config, int user_index)
{
    if (!config.userSeeds.empty()) {
        panic_if(user_index < 0 ||
                 user_index >= static_cast<int>(config.userSeeds.size()),
                 "fleetUserSeed: user %d outside the explicit seed list",
                 user_index);
        return config.userSeeds[static_cast<size_t>(user_index)];
    }
    const uint64_t idx = static_cast<uint64_t>(user_index);
    switch (config.seedMode) {
      case SeedMode::Fleet:
        // Population sweeps fold the population digest into every user
        // seed so two populations never share a user, and so reduction
        // can re-verify record seeds from the manifest tag alone.
        if (config.populationDigest != 0) {
            return populationUserSeed(config.populationDigest,
                                      config.baseSeed, idx);
        }
        return hashCombine(config.baseSeed, idx);
      case SeedMode::Evaluation:
        return TraceGenerator::kEvaluationSeedBase + idx;
    }
    panic("fleetUserSeed: invalid seed mode");
}

std::vector<JobSpec>
enumerateJobs(const FleetConfig &config)
{
    fatal_if(config.apps.empty(), "fleet: no application profiles");
    fatal_if(config.schedulers.empty(), "fleet: no schedulers");
    const int users = config.effectiveUsers();
    fatal_if(users < 1, "fleet: users must be >= 1");

    const int devs =
        config.devices.empty() ? 1 : static_cast<int>(config.devices.size());
    std::vector<JobSpec> jobs;
    jobs.reserve(static_cast<size_t>(config.jobCount()));
    int index = 0;
    for (int d = 0; d < devs; ++d) {
        for (size_t a = 0; a < config.apps.size(); ++a) {
            for (size_t s = 0; s < config.schedulers.size(); ++s) {
                for (int u = 0; u < users; ++u) {
                    JobSpec job;
                    job.index = index++;
                    job.deviceIndex = d;
                    job.appIndex = static_cast<int>(a);
                    job.schedulerIndex = static_cast<int>(s);
                    job.userIndex = u;
                    job.userSeed = fleetUserSeed(config, u);
                    jobs.push_back(job);
                }
            }
        }
    }
    return jobs;
}

void
selectShard(FleetConfig &config, int index, int count)
{
    fatal_if(count < 1 || index < 0 || index >= count,
             "fleet: shard %d/%d needs 0 <= K < N", index, count);
    // The shard unit mirrors the execution unit: whole cells when
    // drivers are warm (their session order must not split), single
    // jobs otherwise; unit ordinals deal round-robin across shards.
    const int unit =
        config.warmDrivers ? std::max(1, config.effectiveUsers()) : 1;
    const int total = config.jobCount();
    std::vector<JobRange> ranges;
    for (long long first = static_cast<long long>(index) * unit;
         first < total; first += static_cast<long long>(count) * unit) {
        if (!ranges.empty() &&
            ranges.back().first + ranges.back().count == first)
            ranges.back().count += unit;
        else
            ranges.push_back(JobRange{static_cast<int>(first), unit});
    }
    // More shards than units leaves this one empty: an empty range
    // plans no job (no ranges at all would mean the whole sweep).
    if (ranges.empty())
        ranges.push_back(JobRange{0, 0});
    config.externalRanges = std::move(ranges);
    config.persistLabel = "s" + std::to_string(index);
}

std::vector<SchedulerKind>
parseSchedulerList(const std::string &spec)
{
    std::vector<SchedulerKind> kinds;
    for (const std::string &raw : split(spec, ',')) {
        const std::string name = trim(raw);
        if (name.empty())
            continue;
        const auto kind = schedulerKindFromName(name);
        fatal_if(!kind, "unknown scheduler '%s' (expected one of "
                 "interactive, ondemand, ebs, pes, oracle)", name.c_str());
        kinds.push_back(*kind);
    }
    fatal_if(kinds.empty(), "empty scheduler list '%s'", spec.c_str());
    return kinds;
}

std::vector<AppProfile>
parseAppList(const std::string &spec)
{
    std::vector<AppProfile> apps;
    for (const std::string &raw : split(spec, ',')) {
        const std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        if (name == "seen") {
            for (const AppProfile &p : seenApps())
                apps.push_back(p);
        } else if (name == "unseen") {
            for (const AppProfile &p : unseenApps())
                apps.push_back(p);
        } else if (name == "all") {
            for (const AppProfile &p : appRegistry())
                apps.push_back(p);
        } else if (name == "extra") {
            for (const AppProfile &p : extraApps())
                apps.push_back(p);
        } else {
            apps.push_back(appByName(name));
        }
    }
    fatal_if(apps.empty(), "empty application list '%s'", spec.c_str());
    return apps;
}

const std::vector<DeviceInfo> &
deviceRegistry()
{
    static const std::vector<DeviceInfo> registry{
        {AcmpPlatform::exynos5410(), "exynos5410", {"exynos"}},
        {AcmpPlatform::tegraParker(), "tegra-parker", {"parker", "tx2"}},
    };
    return registry;
}

std::vector<AcmpPlatform>
knownDevices()
{
    std::vector<AcmpPlatform> devices;
    for (const DeviceInfo &info : deviceRegistry())
        devices.push_back(info.platform);
    return devices;
}

std::optional<AcmpPlatform>
deviceByPlatformName(const std::string &name)
{
    for (const DeviceInfo &info : deviceRegistry()) {
        if (info.platform.name() == name)
            return info.platform;
    }
    return std::nullopt;
}

std::vector<AcmpPlatform>
parseDeviceList(const std::string &spec)
{
    const auto lookup = [](const std::string &name) -> const DeviceInfo * {
        for (const DeviceInfo &info : deviceRegistry()) {
            if (name == info.cliName)
                return &info;
            for (const std::string &alias : info.aliases) {
                if (name == alias)
                    return &info;
            }
        }
        return nullptr;
    };
    std::vector<AcmpPlatform> devices;
    for (const std::string &raw : split(spec, ',')) {
        const std::string name = toLower(trim(raw));
        if (name.empty())
            continue;
        const DeviceInfo *info = lookup(name);
        if (!info) {
            std::string known;
            for (const DeviceInfo &d : deviceRegistry())
                known += (known.empty() ? "" : ", ") + d.cliName;
            fatal("unknown device '%s' (expected one of %s)",
                  name.c_str(), known.c_str());
        }
        devices.push_back(info->platform);
    }
    fatal_if(devices.empty(), "empty device list '%s'", spec.c_str());
    return devices;
}

} // namespace pes
