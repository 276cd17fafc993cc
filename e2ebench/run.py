#!/usr/bin/env python3
"""End-to-end benchmark of the PES fleet simulator (see README.md here).

One run builds pes_fleet, pes_fleet_traced and the calibration loop from
the checkout, runs one closed-batch workload with --threads=1, checks the
outputs and prints, as its last stdout line, one JSON object: correct,
attempted, failed and the metrics (end-to-end with --trace 0, per-layer
with --trace 1).

  python3 e2ebench/run.py                          # all workloads, tables
  python3 e2ebench/run.py --workload pes_default --seed 7 --seconds 50
  python3 e2ebench/run.py --workload oracle_small --trace 1
  python3 e2ebench/run.py --workload pes_default --repeat 10 --save a.json
  python3 e2ebench/run.py --workload pes_default --repeat 10 --compare a.json
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# The fleet's own default population seed, and the one kept back for
# confirming a claim on inputs it was not tuned on.
DEFAULT_SEED = 0xF1EE7
CONFIRM_SEED = 20190622
DEFAULT_SECONDS = 50

APPS = "cnn,amazon,social_feed"

# End-to-end times are scaled to a reference host speed: each sweep's
# times are multiplied by CAL_REF_S / (the calibration loop's CPU seconds
# beside that sweep). CAL_REF_S is about the loop's time on a quiet
# 2.1 GHz Xeon vCPU; a faster or slower moment of the host moves the loop
# and the sweep together.
CAL_REF_S = 0.18

# Sweep sizes: every workload is a closed batch of users x apps x
# schedulers sessions on one worker thread. Sizes are set so one sweep
# takes several seconds and averages over enough sessions that the
# seed-to-seed spread stays inside the bounds in BENCHMARK.json.
WORKLOADS = {
    "pes_default": {"schedulers": "pes,ebs", "users": 512, "store": False},
    "oracle_small": {"schedulers": "oracle", "users": 16, "store": False},
    "model_free_stored": {"schedulers": "interactive,ondemand,ebs",
                          "users": 1500, "store": True},
}

# Calls each layer must (not) receive on each workload; a traced run whose
# counts contradict its workload's design fails. "+" means at least one,
# "sessions" and "traces" the workload's session and distinct-trace
# counts, a number that exact count.
EXPECTED_CALLS = {
    "pes_default": {"train": "+", "likely_next": "+", "predict": "+",
                    "plan": "+", "solve": "+", "append": 0, "reduce": 0},
    "oracle_small": {"train": 0, "likely_next": 0, "predict": 0,
                     "plan": "sessions", "solve": "sessions", "append": 0,
                     "reduce": 0},
    "model_free_stored": {"train": 0, "likely_next": 0, "predict": 0,
                          "plan": 0, "solve": 0, "append": "+",
                          "reduce": 1},
}
COMMON_CALLS = {"sim": "sessions", "generate": "traces"}

E2E_UNITS = {
    "sessions_per_s": "1/s",
    "cpu_ms_per_session": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_energy_mj": "mJ",
    "sim_qos_met_pct": "%",
}

LAYER_UNITS = {
    "core.train_ms": "ms",
    "trace.generate_calls": "count",
    "trace.generate_ms": "ms",
    "web.likely_next_calls": "count",
    "web.likely_next_ms": "ms",
    "core.predict_calls": "count",
    "core.predict_self_ms": "ms",
    "core.plan_calls": "count",
    "core.plan_self_ms": "ms",
    "solver.solve_calls": "count",
    "solver.solve_ms": "ms",
    "solver.solve_p50_us": "us",
    "solver.solve_p99_us": "us",
    "solver.solve_max_ms": "ms",
    "solver.events_per_solve": "count",
    "solver.infeasible_ratio": "ratio",
    "solver.sweep_share_pct": "%",
    "sim.run_calls": "count",
    "sim.self_ms": "ms",
    "sim.us_per_event": "us",
    "results.append_calls": "count",
    "results.append_ms": "ms",
    "results.bytes_written": "B",
    "results.reduce_ms": "ms",
    "runner.cache_lookups": "count",
    "runner.cache_hits": "count",
    "runner.cache_hit_ratio": "ratio",
    "runner.session_p50_ms": "ms",
    "runner.session_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    """Configure once and build the three binaries; return their paths."""
    for needed in ("CMakeLists.txt", "src", "tools/pes_fleet.cc"):
        if not (ROOT / needed).exists():
            raise BenchError(f"repository source '{needed}' not found "
                             f"next to {BENCH_DIR.name}/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    run_quiet(["cmake", "--build", str(build_dir), "--target", "pes_fleet",
               "pes_fleet_traced", "e2ebench_calibrate", "-j",
               str(os.cpu_count() or 1)], "build")
    return build_dir, (build_dir / "pes" / "pes_fleet",
                       build_dir / "pes_fleet_traced",
                       build_dir / "e2ebench_calibrate")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise BenchError(f"{what} failed (exit {proc.returncode})")


# ------------------------------------------------------------------ sweeps

class Runner:
    """Runs one workload's sweeps inside a private work directory."""

    def __init__(self, workload, seed, binaries, work):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.plain, self.traced, self.calibrator = binaries
        self.work = work
        self.planned = (self.spec["users"] * len(APPS.split(",")) *
                        len(self.spec["schedulers"].split(",")))
        self.traces = self.spec["users"] * len(APPS.split(","))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None  # (json bytes, csv bytes) of the first sweep
        self.count = 0

    def problem(self, msg):
        self.problems.append(msg)
        log(f"FAIL {self.name}: {msg}")

    def sweep(self, traced=False, store=None, check=True):
        """One pes_fleet process over the whole sweep; returns its sample."""
        self.count += 1
        tag = self.work / f"sweep{self.count}"
        out, csv, tel = (Path(f"{tag}.json"), Path(f"{tag}.csv"),
                         Path(f"{tag}.tel.json"))
        layers = Path(f"{tag}.layers.json")
        cmd = [str(self.traced if traced else self.plain),
               f"--schedulers={self.spec['schedulers']}", f"--apps={APPS}",
               f"--users={self.spec['users']}", "--threads=1",
               f"--seed={self.seed}", "--quiet", f"--out={out}",
               f"--csv={csv}", f"--telemetry-out={tel}"]
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
            cmd.append(f"--results-dir={store}")
        env = dict(os.environ)
        env.pop("PES_LAYER_TRACE", None)
        if traced:
            env["PES_LAYER_TRACE"] = str(layers)
        with open(f"{tag}.stdout", "wb") as so, \
                open(f"{tag}.stderr", "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = Path(f"{tag}.stderr").read_text(errors="replace").strip()

        self.attempted += self.planned
        if proc.returncode != 0 or stderr:
            self.failed += self.planned
            self.problem(f"pes_fleet exit {proc.returncode}: "
                         f"{stderr[:400] or '(no stderr)'}")
            return None
        report = out.read_bytes()
        sample = {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "telemetry": json.loads(tel.read_text()),
            "report": json.loads(report),
            "bytes": (report, csv.read_bytes()),
            "layers": json.loads(layers.read_text()) if traced else None,
        }
        sample["sweep_s"] = sample["telemetry"]["stage_ms"]["total"] / 1e3
        self.check_sessions(sample)
        if check:
            self.check_bytes(sample["bytes"], "traced " if traced else "")
        return sample

    def calibrate(self):
        """CPU seconds of one run of the fixed calibration loop."""
        proc = subprocess.run([str(self.calibrator)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 1:
            raise BenchError(f"calibration loop failed (exit "
                             f"{proc.returncode}): {proc.stderr[:400]}")
        return float(fields[0])

    def check_sessions(self, sample):
        """Sessions completed must equal sessions planned."""
        report, tel = sample["report"], sample["telemetry"]
        done = min(report["meta"]["sessions"],
                   sum(c["sessions"] for c in report["cells"]),
                   tel["sessions"])
        if done != self.planned:
            self.failed += max(0, self.planned - done)
            self.problem(f"{done} of {self.planned} sessions completed")

    def check_bytes(self, got, what):
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            self.problem(f"{what}report bytes differ from the first sweep")

    def check_store(self, store):
        """The store validates clean and reduces to the in-memory report."""
        merged = self.work / "merged"
        merged_json = self.work / "merged.json"
        proc = subprocess.run(
            [str(self.plain), "merge", f"--into={merged}",
             f"--from={store}", f"--out={merged_json}", "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            self.problem(f"store does not validate (merge exit "
                         f"{proc.returncode}): {proc.stderr[:400]}")
        elif merged_json.read_bytes() != self.reference[0]:
            self.problem("store re-reduced by merge differs from the "
                         "sweep's report")
        shutil.rmtree(merged, ignore_errors=True)
        memory = self.sweep(check=False)
        if memory and memory["bytes"] != self.reference:
            self.problem("store-backed report differs from the same sweep "
                         "run in memory")

    def repeat(self, seconds, step):
        """Call step() until about `seconds` have been spent (at least
        once): another step starts while it would end at most half a
        step past the deadline."""
        start = time.perf_counter()
        done = 0
        while True:
            step()
            done += 1
            spent = time.perf_counter() - start
            if spent + spent / done / 2 > seconds:
                return

    def store_dir(self):
        return self.work / "store" if self.spec["store"] else None


def end_to_end(runner, seconds):
    """Sweeps with the calibration loop run before the first and after
    each; a sweep's times are scaled by the mean of the two loops beside
    it (see CAL_REF_S)."""
    samples, loops = [], [runner.calibrate()]

    def step():
        samples.append(runner.sweep(store=runner.store_dir()))
        loops.append(runner.calibrate())

    runner.repeat(seconds, step)
    for sample, before, after in zip(samples, loops, loops[1:]):
        if sample:
            sample["scale"] = CAL_REF_S / ((before + after) / 2)
    samples = [s for s in samples if s]
    if runner.spec["store"] and samples:
        runner.check_store(runner.store_dir())
    if not samples:
        return {}
    log(f"{runner.name}: {len(samples)} sweeps; unscaled medians: "
        f"{median([runner.planned / s['sweep_s'] for s in samples]):.6g} "
        f"sessions/s, "
        f"{median([s['cpu_s'] * 1e3 / runner.planned for s in samples]):.6g}"
        f" cpu ms/session, "
        f"{median([s['wall_s'] - s['sweep_s'] for s in samples]):.6g} s "
        f"setup; calibration loop median {median(loops):.6g} s "
        f"(reference {CAL_REF_S} s)")
    cells = samples[0]["report"]["cells"]
    sessions = sum(c["sessions"] for c in cells)
    events = sum(c["events"] for c in cells)
    violations = sum(c["violations"] for c in cells)
    return {
        "sessions_per_s": median([runner.planned / s["sweep_s"] / s["scale"]
                                  for s in samples]),
        "cpu_ms_per_session": median([s["cpu_s"] * 1e3 / runner.planned *
                                      s["scale"] for s in samples]),
        "setup_s": median([(s["wall_s"] - s["sweep_s"]) * s["scale"]
                           for s in samples]),
        "peak_rss_mb": median([s["rss_mb"] for s in samples]),
        "sim_energy_mj": sum(c["sessions"] * c["mean_energy_mj"]
                             for c in cells) / max(sessions, 1),
        "sim_qos_met_pct": 100.0 * (1.0 - violations / max(events, 1)),
    }


def per_layer(runner, seconds):
    """Alternate plain and traced sweeps; traced reports must match."""
    plain, traced = [], []

    def step():
        plain.append(runner.sweep(store=runner.store_dir()))
        traced.append(runner.sweep(traced=True, store=runner.store_dir()))

    runner.repeat(seconds, step)
    plain = [s for s in plain if s]
    traced = [s for s in traced if s]
    if runner.spec["store"] and plain:
        runner.check_store(runner.store_dir())
    if not plain or not traced:
        return {}
    first = traced[0]["layers"]
    for s in traced[1:]:
        counts = {k: v["calls"] for k, v in s["layers"]["layers"].items()}
        if counts != {k: v["calls"] for k, v in first["layers"].items()}:
            runner.problem("layer call counts differ between traced sweeps")
    check_layer_design(runner, first)

    def med(fn):
        return median([fn(s["layers"], s) for s in traced])

    def total_ms(layer):
        return med(lambda l, s: l["layers"][layer]["total_ms"])

    def self_ms(layer):
        return med(lambda l, s: l["layers"][layer]["self_ms"])

    def calls(layer):
        return first["layers"][layer]["calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls("solve")
    return {
        "core.train_ms": total_ms("train"),
        "trace.generate_calls": calls("generate"),
        "trace.generate_ms": total_ms("generate"),
        "web.likely_next_calls": calls("likely_next"),
        "web.likely_next_ms": total_ms("likely_next"),
        "core.predict_calls": calls("predict"),
        "core.predict_self_ms": self_ms("predict"),
        "core.plan_calls": calls("plan"),
        "core.plan_self_ms": self_ms("plan"),
        "solver.solve_calls": solves,
        "solver.solve_ms": total_ms("solve"),
        "solver.solve_p50_us": med(lambda l, s: l["solve_p50_us"]),
        "solver.solve_p99_us": med(lambda l, s: l["solve_p99_us"]),
        "solver.solve_max_ms": med(lambda l, s: l["solve_max_ms"]),
        "solver.events_per_solve": ratio(first["solve_events"], solves),
        "solver.infeasible_ratio": ratio(first["solve_infeasible"], solves),
        "solver.sweep_share_pct": med(
            lambda l, s: 100.0 * l["layers"]["solve"]["total_ms"] /
            (s["sweep_s"] * 1e3)),
        "sim.run_calls": calls("sim"),
        "sim.self_ms": self_ms("sim"),
        "sim.us_per_event": med(
            lambda l, s: 1e3 * ratio(l["layers"]["sim"]["self_ms"],
                                     l["sim_events"])),
        "results.append_calls": calls("append"),
        "results.append_ms": total_ms("append"),
        "results.bytes_written": first["append_bytes"],
        "results.reduce_ms": total_ms("reduce"),
        "runner.cache_lookups": calls("cache"),
        "runner.cache_hits": first["cache_hits"],
        "runner.cache_hit_ratio": ratio(first["cache_hits"], calls("cache")),
        "runner.session_p50_ms": med(lambda l, s: l["session_p50_ms"]),
        "runner.session_p99_ms": med(lambda l, s: l["session_p99_ms"]),
        "trace.overhead_pct": 100.0 * (
            median([s["sweep_s"] for s in traced]) /
            median([s["sweep_s"] for s in plain]) - 1.0),
    }


def check_layer_design(runner, layers):
    """Fail when call counts contradict what the workload is built for."""
    wanted = dict(COMMON_CALLS, **EXPECTED_CALLS[runner.name])
    sizes = {"sessions": runner.planned, "traces": runner.traces}
    for layer, info in layers["layers"].items():
        if info["missing"]:
            log(f"note {runner.name}: layer '{layer}' is missing (its "
                f"entry point was renamed or removed)")
    for layer, want in wanted.items():
        got = layers["layers"][layer]["calls"]
        ok = got > 0 if want == "+" else got == sizes.get(want, want)
        if not ok:
            runner.problem(f"traced {layer} calls = {got}, workload design "
                           f"expects {want}")
    if layers["sessions"] != runner.planned:
        runner.problem(f"traced run timed {layers['sessions']} sessions of "
                       f"{runner.planned}")


def run_workload(workload, seed, seconds, trace, binaries, build_dir):
    """Run one workload and return its result object."""
    work = build_dir / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, binaries, work)
    try:
        metrics = (per_layer if trace else end_to_end)(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    if set(metrics) != set(units):
        runner.problem("no metrics: every sweep failed")
    result = {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    return result


def print_table(workload, result):
    print(f"== {workload}  (correct={result['correct']}, sessions "
          f"attempted={result['attempted']}, failed={result['failed']})")
    for name, m in result["metrics"].items():
        print(f"  {name:26s} {m['value']:>16.6g} {m['unit']}")


# ------------------------------------------------------------------ repeat

def parallelism_probe():
    """Wall time of 1, 2 and 4 concurrent spin loops (annotation only)."""
    spin = "s = 0\nfor i in range(3000000): s += i\n"
    times = {}
    for n in (1, 2, 4):
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", spin])
                 for _ in range(n)]
        for p in procs:
            p.wait()
        times[n] = time.perf_counter() - start
    cpus = 4 * times[1] / times[4]
    return (f"parallelism probe: 1/2/4 spinners took "
            f"{times[1]:.2f}/{times[2]:.2f}/{times[4]:.2f} s, "
            f"about {cpus:.2f} CPUs usable in parallel")


def load_bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def repeat_mode(args):
    """Run the benchmark once per seed and summarise each metric."""
    seeds = [args.seed + i for i in range(args.repeat)]
    workloads = [args.workload] if args.workload != "all" else \
        list(WORKLOADS)
    bounds = load_bounds()
    summary = {"probe": [parallelism_probe()], "workloads": {}}
    print(summary["probe"][0])
    ok = True
    for wl in workloads:
        values, rows = {}, []
        for seed in seeds:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if proc.returncode == 0 else {}
            if not result.get("correct"):
                ok = False
                log(f"{wl} seed {seed}: run failed or incorrect")
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl}: {len(seeds)} seeds from {args.seed}, "
              f"{args.seconds} s each")
        print(f"  {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'min':>12s} {'max':>12s} {'spread':>8s} {'bound':>6s}")
        stats = {}
        for name, vals in values.items():
            med = median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "over" if spread > bound else \
                    "wide" if spread > bound / 3 else "ok"
                ok &= spread <= bound
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "min": min(vals), "max": max(vals),
                           "spread": spread, "values": vals}
            rows.append(f"  {name:26s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                        f"{min(vals):12.6g} {max(vals):12.6g} "
                        f"{spread:8.4f} {bound if bound else '':>6} {flag}")
        print("\n".join(rows))
        summary["workloads"][wl] = stats
    summary["probe"].append(parallelism_probe())
    print(summary["probe"][1])
    if args.compare:
        ok &= compare_sets(json.loads(Path(args.compare).read_text()),
                           summary, bounds)
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


def compare_sets(first, second, bounds):
    """Second set's medians may be worse than the first's by <= bound."""
    ok = True
    for wl, stats in second["workloads"].items():
        for name, s in stats.items():
            base = first["workloads"].get(wl, {}).get(name)
            spec = bounds.get(name)
            if not base or not spec or "bound" not in spec or \
                    not base["median"]:
                continue
            change = s["median"] / base["median"] - 1.0
            worse = -change if spec["better"] == "higher" else change
            verdict = "ok" if worse <= spec["bound"] else "WORSE"
            ok &= verdict == "ok"
            print(f"  compare {wl} {name}: {base['median']:.6g} -> "
                  f"{s['median']:.6g} ({100 * change:+.2f}%, bound "
                  f"{100 * spec['bound']:.0f}%) {verdict}")
    return ok


def run_all(args, binaries, build_dir):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS:
        result = run_workload(wl, args.seed, args.seconds, args.trace,
                              binaries, build_dir)
        print_table(wl, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{wl}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"population seed passed to pes_fleet --seed "
                             f"[{DEFAULT_SEED}; confirm claims with "
                             f"{CONFIRM_SEED}]")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced build")
    parser.add_argument("--repeat", type=int, default=0,
                        help="run once per seed (seed, seed+1, ...) and "
                             "print each metric's median and quartiles")
    parser.add_argument("--save", help="repeat mode: write the summary")
    parser.add_argument("--compare",
                        help="repeat mode: check medians against a saved "
                             "summary within the BENCHMARK.json bounds")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        build_dir, binaries = build()
        if args.repeat:
            return repeat_mode(args)
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, binaries, build_dir)
            print_table(args.workload, result)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        return run_all(args, binaries, build_dir)
    except BenchError as err:
        log(f"e2ebench: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
