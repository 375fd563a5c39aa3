#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  * every workload prints exactly the end-to-end metrics (trace 0) and
    per-layer metrics (trace 1) BENCHMARK.json names, with their units,
    and passes its correctness checks;
  * an injected digest mismatch and injected erroring cells each count
    as failed cells (ok_frac below 1, `correct` false);
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def run(*extra, cwd=ROOT):
    cmd = [*BENCH["command"], *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stderr


def check(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def main():
    for workload in [w["name"] for w in BENCH["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, err = run("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace))
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {} if result is None else {k: v["unit"] for k, v in result["metrics"].items()}
            check(f"{workload} trace {trace} prints the {key} metrics", code == 0 and got == want,
                  f"exit {code}, missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                  f"units differ {sorted(k for k in want if k in got and got[k] != want[k])}")
            check(f"{workload} trace {trace} is correct", result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0, err[-500:])

    for inject in ("digest", "error"):
        code, result, err = run("--workload", "attack-grid", "--seed", "0", "--seconds", "1", "--trace", "0",
                                "--inject", inject)
        ok = (code == 0 and result is not None and not result["correct"] and result["failed"] > 0
              and result["metrics"]["ok_frac"]["value"] < 1.0)
        check(f"injected {inject} fault raises fail_frac", ok, str(result))

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("target"))
    code, result, _ = run("--workload", "attack-grid", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    check("bare directory exits non-zero without a result", code != 0 and result is None, f"exit {code}")
    shutil.rmtree(bare)

    print(f"{len(FAILURES)} failure(s)")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
