#!/usr/bin/env python3
"""The repository benchmark: committed experiment specs run end to end
through the `experiment` binary, plus a traced per-layer run.

    python3 perfbench/run.py --workload attack-grid --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the `experiment` binary and
the tracer (`perfbench/tracer`) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), writes seeded copies of
the workload's specs under `.perfbench_work/`, and measures in a closed
loop: one `experiment` process at a time, each spec at `--jobs N`
(N = CPUs available) and at `--jobs 1`, until `--seconds` have passed.
Every output is checked: exit status, well-formed JSON, byte-identical
results at both widths and, at the default seed 0, the per-cell digests
recorded in `perfbench/digests.json`.

With `--trace 0` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics of the
tracer, whose results JSON must equal the untraced binary's
byte for byte. See perfbench/NOTES.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SPECS = ROOT / "examples" / "specs"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
HOST = HERE / "host.json"

# Committed specs, in the order the committed-specs workload runs them.
COMMITTED = [
    "adaptive_stopping",
    "attack_sweep",
    "attack_window",
    "compose_sweep",
    "markov_exact",
    "rare_event",
    "scenario_sweep",
    "theorem1_check",
]

# workload -> (specs, trials override or None for the committed budget)
WORKLOADS = {
    "attack-grid": (["attack_sweep"], 10),
    "scenario-grid": (["scenario_sweep"], 10),
    "committed-specs": (COMMITTED, None),
}

DEFAULT_SEED = 0
PROCESS_TIMEOUT_S = 120
SETUP_REPS = 9
# The set-up probe runs every spec at this budget: cells so small that
# the process is all start-up, parse, expand, pool spawn and emission.
SETUP_BUDGET = ["--rounds", "1", "--trials", "1"]

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_s.jobs1": "s",
    "rounds_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


# --------------------------------------------------------------------
# Build and inputs
# --------------------------------------------------------------------


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "consistency_bench", "--bin", "experiment"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "tracer" / "Cargo.toml")],
    ]
    for cmd in commands:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            log(done.stderr[-4000:])
            fail(f"build failed: {' '.join(cmd)}", 1)
    release = target_dir() if target_dir().is_absolute() else ROOT / target_dir()
    return release / "release" / "experiment", release / "release" / "perfbench_tracer"


def spec_seed(seed, name):
    """The master seed a spec copy runs at: the committed seed at the
    default seed, otherwise one derived from (seed, spec name)."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:5], "big")


def spec_copy(name, seed, trials, inject_error):
    """Writes the workload's copy of a committed spec: the seed of its
    sweep stream (or its base seed when it has no sweep) replaced, and
    the trial budget raised when the workload asks for it."""
    text = (SPECS / f"{name}.toml").read_text()
    seed_section = "sweep" if re.search(r"^\[sweep\]", text, re.M) else "base"
    out, section = [], None
    for line in text.splitlines():
        header = re.match(r"^\[+([a-z_.]+)\]+", line)
        if header:
            section = header.group(1)
        if seed != DEFAULT_SEED and section == seed_section and re.match(r"^seed\s*=", line):
            line = f"seed = {spec_seed(seed, name)}"
        if trials is not None and section == "experiment" and re.match(r"^trials\s*=", line):
            line = f"trials = {trials}"
        out.append(line)
    if inject_error:
        # One more cell on the last sweep axis, with an adversary
        # fraction the model rejects: every cell it spawns errors.
        out += ["", "[[sweep.axis.cell]]", 'label = "injected"', 'patch = { "base.adversary_fraction" = 0.75 }']
    path = WORK / "specs" / f"{name}.toml"
    path.write_text("\n".join(out) + "\n")
    return path


# --------------------------------------------------------------------
# Processes and checks
# --------------------------------------------------------------------


def poll_peak_rss(pid, name, stop, peak):
    """Follows the process's VmHWM (its resident high-water mark) until
    `stop` is set. wait4's ru_maxrss cannot serve: it also counts the
    forked copy of this Python process the child ran before exec."""
    path = f"/proc/{pid}/status"
    while not stop.is_set():
        try:
            text = Path(path).read_text()
        except OSError:
            return
        hwm = re.search(r"^VmHWM:\s+(\d+) kB", text, re.M)
        if hwm and re.search(rf"^Name:\s+{re.escape(name[:15])}$", text, re.M):
            peak[0] = max(peak[0], int(hwm.group(1)))
        stop.wait(0.005)


def run_process(args, timeout=PROCESS_TIMEOUT_S, rss=False):
    """Runs one process to completion; returns wall s, user+sys s,
    peak RSS MB (with `rss`, else 0) and whether it exited 0 in time."""
    err = open(WORK / "stderr.txt", "w")
    start = time.perf_counter()
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    stop, peak = threading.Event(), [0]
    poller = threading.Thread(target=poll_peak_rss, args=(proc.pid, Path(args[0]).name, stop, peak))
    if rss:
        poller.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    timer.cancel()
    stop.set()
    if poller.is_alive():
        poller.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    err.close()
    ok = proc.returncode == 0
    if not ok:
        log(f"perfbench: {' '.join(map(str, args))} exited {proc.returncode}: "
            f"{(WORK / 'stderr.txt').read_text()[-500:]}")
    return wall, usage.ru_utime + usage.ru_stime, peak[0] / 1024.0, ok


def cell_digest(cell):
    canonical = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def read_cells(path, ok):
    """The cells of an output document, or None if the process failed
    or the document is malformed."""
    if not ok:
        return None
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if doc.get("schema") != "experiment-v2" or not isinstance(doc.get("cells"), list):
        return None
    return doc["cells"]


def cell_rounds(cell):
    rounds = 0
    if cell.get("montecarlo"):
        rounds += cell["montecarlo"]["trials"] * cell["rounds_per_trial"]
    if cell.get("splitting"):
        rounds += cell["splitting"]["total_rounds"]
    return rounds


class Checker:
    """Counts cell executions attempted and failed."""

    def __init__(self, expected, check_digests):
        self.expected = expected  # spec -> list of cell digests
        self.check_digests = check_digests
        self.attempted = 0
        self.failed = 0

    def check_pair(self, name, wide, narrow):
        """Checks one spec's outputs at --jobs N and --jobs 1 (each a
        (path, ok) pair) and returns the simulated rounds."""
        n = len(self.expected[name])
        cells = [read_cells(*wide), read_cells(*narrow)]
        self.attempted += 2 * n
        for i, c in enumerate(cells):
            if c is None or len(c) != n:
                log(f"perfbench: {name}: run {i} failed or emitted malformed JSON")
                self.failed += n
                cells[i] = None
        if None not in cells:
            wide_bytes, narrow_bytes = Path(wide[0]).read_bytes(), Path(narrow[0]).read_bytes()
            differ = [a != b for a, b in zip(*cells)]
            if wide_bytes != narrow_bytes and not any(differ):
                differ[0] = True
            self.failed += sum(differ)
            if any(differ):
                log(f"perfbench: {name}: {sum(differ)} cell(s) differ between the two runs")
        if self.check_digests:
            for c in cells:
                if c is not None:
                    bad = sum(cell_digest(cell) != d for cell, d in zip(c, self.expected[name]))
                    if bad:
                        log(f"perfbench: {name}: {bad} cell(s) differ from the recorded digest")
                    self.failed += bad
        good = next((c for c in cells if c is not None), [])
        return sum(cell_rounds(cell) for cell in good)


# --------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it, or
    the max when there are too few samples: (label, value)."""
    values, n = sorted(values), len(values)
    if n <= 10:
        return "max", values[-1]
    return f"p{100 * (n - 10) // n}", values[n - 11]


def summarize(name, unit, values, raw):
    """Prints one metric as median, high percentile and sample count,
    scaled to the recorded host speed and raw."""
    label, high = tail(values)
    _, raw_high = tail(raw)
    print(f"# {name:<14} median {statistics.median(values):<11.6g} {label} {high:<11.6g} "
          f"(raw median {statistics.median(raw):<11.6g} {label} {raw_high:<11.6g}) {unit}, n={len(values)}")


def probe(tracer, width):
    """Seconds the fixed host-speed probe takes right now on `width`
    threads at once."""
    done = subprocess.run([tracer, "probe", str(width)], capture_output=True, text=True, timeout=60)
    try:
        return float(done.stdout.strip())
    except ValueError:
        fail(f"the host-speed probe failed: {done.stderr[-500:]}", 1)


class HostClock:
    """Scales timings to the host speed recorded in host.json.

    The host is shared and its speed drifts by tens of percent over
    tens of seconds. A probe loop that shares no code with the program
    runs right before and after every timed block, on as many threads
    as the block's --jobs width; the block's times are multiplied by
    probe_s[width] / mean(probe before, probe after), so they read as
    if the host ran at its recorded speed. Raw times are printed
    alongside. A width host.json has no record for is scaled to the
    first probe of the run."""

    def __init__(self, tracer, probe_s):
        self.tracer = tracer
        self.probe_s = dict(probe_s)

    def timed(self, width, block):
        """Runs `block()` between two probes; returns its result and
        the scaling factor for it. A width-1 block and its probes are
        pinned to one CPU, so the probe sees the contention the block
        saw (a single-threaded process loses nothing by it)."""
        cpus = os.sched_getaffinity(0)
        if width == 1:
            os.sched_setaffinity(0, {min(cpus)})
        try:
            before = probe(self.tracer, width)
            self.probe_s.setdefault(str(width), before)
            result = block()
            after = probe(self.tracer, width)
        finally:
            os.sched_setaffinity(0, cpus)
        return result, self.probe_s[str(width)] / ((before + after) / 2)


def measure(binary, tracer, specs, jobs, seconds, checker, probe_s):
    """Set-up probe, then the closed loop; returns scaled and raw
    metric samples."""
    out = WORK / "out"
    clock = HostClock(tracer, probe_s)
    scaled = {k: [] for k in END_TO_END_UNITS if k != "ok_frac"}
    raw = {k: [] for k in scaled}
    def setup_block():
        total = 0.0
        for name, path in specs:
            wall, _, _, ok = run_process([binary, path, "--jobs", str(jobs), *SETUP_BUDGET, "--out", out / "setup.json"])
            total += wall
            if not ok:
                checker.attempted += len(checker.expected[name])
                checker.failed += len(checker.expected[name])
        return total

    for _ in range(SETUP_REPS):
        total, f = clock.timed(jobs, setup_block)
        raw["setup_s"].append(total)
        scaled["setup_s"].append(total * f)

    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        widths = [jobs, 1] if passes % 2 == 0 else [1, jobs]
        per = {}
        status = {}

        def block(w):
            wall = cpu = rss = 0.0
            for name, path in specs:
                target = out / f"{name}.{w}.json"
                if target.exists():
                    target.unlink()
                t, c, r, ok = run_process([binary, path, "--jobs", str(w), "--out", target], rss=True)
                wall, cpu, rss = wall + t, cpu + c, max(rss, r)
                status[(name, w)] = (target, ok)
            return wall, cpu, rss

        for w in widths:
            (wall, cpu, rss), f = clock.timed(w, lambda: block(w))
            per[w] = (wall, cpu, rss, f)
        rounds = sum(checker.check_pair(n, status[(n, jobs)], status[(n, 1)]) for n, _ in specs)
        wall, cpu, rss, f = per[jobs]
        for key, value, factor in (("wall_s", wall, f), ("wall_s.jobs1", per[1][0], per[1][3]),
                                   ("rounds_per_s", rounds / wall, 1 / f), ("cpu_s", cpu, f),
                                   ("peak_rss_mb", rss, 1.0)):
            raw[key].append(value)
            scaled[key].append(value * factor)
        passes += 1
    return scaled, raw


def trace(binary, tracer, specs, jobs, seconds, checker):
    """Traced runs until `seconds` pass; returns per-layer samples."""
    out = WORK / "trace"
    samples = {}
    start = time.perf_counter()
    runs = 0
    while runs == 0 or time.perf_counter() - start < seconds:
        status = {}
        for name, path in specs:
            target = out / f"{name}.json"
            *_, ok = run_process([binary, path, "--jobs", str(jobs), "--out", target])
            status[name] = (target, ok)
        for name, _ in specs:
            stale = out / f"{name}.traced.json"
            if stale.exists():
                stale.unlink()
        done = subprocess.run([tracer, str(jobs), out, *[p for _, p in specs]], cwd=ROOT,
                              capture_output=True, text=True, timeout=170)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            log(done.stderr[-2000:])
            fail("the tracer printed no result", 1)
        if runs == 0:
            log(done.stderr.rstrip())
        for e in result["errors"]:
            log(f"perfbench: traced run: {e}")
        for name, _ in specs:
            # Results guard: the traced JSON must equal the untraced
            # binary's byte for byte.
            checker.check_pair(name, status[name], (out / f"{name}.traced.json", True))
        if result["errors"]:
            checker.failed += 1
        for key, m in result["metrics"].items():
            samples.setdefault(key, (m["unit"], []))[1].append(m["value"])
        runs += 1
    return samples


def host_fingerprint():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "rustc": rustc}


def write_digests(binary):
    """Records the per-cell digests of every workload at the default
    seed (run at --jobs 1)."""
    table = {}
    for workload, (names, trials) in WORKLOADS.items():
        table[workload] = {}
        for name in names:
            path = spec_copy(name, DEFAULT_SEED, trials, False)
            target = WORK / "out" / f"{name}.digest.json"
            *_, ok = run_process([binary, path, "--jobs", "1", "--out", target])
            cells = read_cells(target, ok)
            if cells is None:
                fail(f"{name}: no output to record", 1)
            table[workload][name] = [cell_digest(c) for c in cells]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    log(f"perfbench: wrote {DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject", choices=["digest", "error"],
                        help="self-test only: corrupt one recorded digest, or add erroring cells")
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default-seed cell digests and exit")
    args = parser.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not SPECS.is_dir() or not (ROOT / "crates").is_dir():
        fail("run from the repository root: Cargo.toml, crates/ and examples/specs/ are needed")
    for d in ("specs", "out", "trace"):
        (WORK / d).mkdir(parents=True, exist_ok=True)
    binary, tracer = build()
    if args.write_digests:
        write_digests(binary)
        return
    if args.workload is None:
        fail("--workload is required")

    host = host_fingerprint()
    recorded = json.loads(HOST.read_text())
    if any(recorded.get(k) != v for k, v in host.items()):
        log(f"perfbench: host {host} differs from the recorded {recorded}; "
            "compare figures only with runs on the same host")

    names, trials = WORKLOADS[args.workload]
    expected = json.loads(DIGESTS.read_text())[args.workload]
    if args.inject == "digest":
        first = names[0]
        expected = dict(expected, **{first: ["0" * 16] + expected[first][1:]})
    checker = Checker(expected, args.seed == DEFAULT_SEED)
    specs = [(n, spec_copy(n, args.seed, trials, args.inject == "error" and i == 0)) for i, n in enumerate(names)]
    jobs = len(os.sched_getaffinity(0))
    print(f"# workload {args.workload}, seed {args.seed}, --jobs {jobs} and 1, host {host}")

    metrics = {}
    if args.trace == 0:
        scaled, raw = measure(binary, tracer, specs, jobs, args.seconds, checker, recorded["probe_s"])
        for key, values in scaled.items():
            summarize(key, END_TO_END_UNITS[key], values, raw[key])
            metrics[key] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[key]}
        ok_frac = 1.0 - checker.failed / max(1, checker.attempted)
        print(f"# fail_frac        {1.0 - ok_frac:.6g} ({checker.failed} of {checker.attempted} cell runs)")
        metrics["ok_frac"] = {"value": ok_frac, "unit": "frac"}
        metrics = {k: metrics[k] for k in END_TO_END_UNITS}
    else:
        for key, (unit, values) in trace(binary, tracer, specs, jobs, args.seconds, checker).items():
            metrics[key] = {"value": statistics.median(values), "unit": unit}
            print(f"# {key:<48} {metrics[key]['value']:.6g} {unit} (n={len(values)})")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
