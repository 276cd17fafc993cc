/**
 * @file
 * Host-speed calibration loop for the end-to-end benchmark (run.py).
 *
 * The benchmark runs on a shared host whose speed moves by tens of per
 * cent within seconds, as other tenants load the cores. run.py times
 * this fixed loop before and after every sweep and scales the sweep's
 * times by (reference time / loop time), so a change of host speed moves
 * both and cancels out. The loop does not depend on the repository's
 * code: a change to the simulator never changes it.
 *
 * The loop is branchy integer and floating-point arithmetic on registers,
 * like the simulator's solver and event loop. A memory-bound loop (a
 * random walk over a table larger than the caches) was tried and left
 * out: it swings three times as far as the sweeps do when neighbours
 * load the memory bus, so scaling by it over-corrects.
 *
 * It prints the CPU seconds the loop took:
 *
 *   e2ebench_calibrate      ->  "0.182106"
 */

#include <cstdint>
#include <cstdio>
#include <ctime>

namespace {

double cpuSeconds() {
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

constexpr long kSteps = 30'000'000;

// Written once at the end, so the loop cannot be optimised away.
volatile std::uint64_t gSink;

}  // namespace

int main() {
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t sink = 0;
    double f = 0.0;

    double start = cpuSeconds();
    for (long i = 0; i < kSteps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if (x & 1)
            f += static_cast<double>(x & 1023) * 1e-3;
        else
            f *= 0.999;
        sink += x >> 60;
    }
    double spent = cpuSeconds() - start;

    gSink = sink + static_cast<std::uint64_t>(f);
    std::printf("%.6f\n", spent);
    return 0;
}
