#!/usr/bin/env python3
"""Build and run the GoAT end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|detect|apps|isolated \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N] [--workloads a,b]

The first form builds the `perfbench` package (release, offline) into
`$CARGO_TARGET_DIR` (default `.bench_build`), clears every `GOAT_*`
variable, runs one workload and relays its output. The last stdout line
is the result object: `{"correct", "attempted", "failed", "metrics"}`.
The metric names and units are checked against BENCHMARK.json.

`--selftest` runs every workload twice in both modes at one seed and
checks that the deterministic metrics agree exactly and that every
metric BENCHMARK.json lists is printed with its unit.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
WORKLOADS = ["sweep", "detect", "apps", "isolated"]
# Metrics that must repeat exactly for a seed, by mode.
DETERMINISTIC = {
    "0": ["detected", "coverage_pct", "oracle_pass_share"],
    "1": [
        "runtime.picks_per_iter",
        "runtime.goroutines_per_iter",
        "runtime.yields_per_iter",
        "trace.events_per_iter",
        "model.universe_size",
        "runner.memo_hit_ratio",
        "runner.memo_lookups",
        "wire.result_bytes_per_iter",
    ],
}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_identity():
    """The commit measured: git HEAD of this checkout, else a hash of the
    source tree."""
    if os.path.exists(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(root)
            if "target" not in d.split(os.sep) for f in files)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build():
    """Build the benchmark binary; returns its path."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the repository root: the GoAT sources (Cargo.toml, crates/) are missing")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    res = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if res.returncode != 0:
        fail(f"cargo build failed with exit code {res.returncode}")
    exe = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def declared_metrics():
    """name -> unit for each mode, from BENCHMARK.json when present."""
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_once(exe, commit, workload, seed, seconds, trace, relay=True):
    """Run the binary once; returns the parsed result object."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GOAT_")}
    env["PERFBENCH_COMMIT"] = commit
    proc = subprocess.Popen(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        if relay:
            sys.stdout.write(out)
        fail(f"{workload} exited with code {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload}: last output line is not JSON: {lines[-1][:200]}", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}", 1)
    declared = declared_metrics()
    if declared is not None:
        want = declared[str(trace)]
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != want:
            fail(f"{workload}: metrics {got} do not match BENCHMARK.json {want}", 1)
    if relay:
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
        sys.stdout.flush()
    return result


def selftest(exe, commit, seed, workloads):
    problems = []
    for w in workloads:
        for trace in ("0", "1"):
            a = run_once(exe, commit, w, seed, 1, trace, relay=False)
            b = run_once(exe, commit, w, seed, 1, trace, relay=False)
            for r in (a, b):
                if not r["correct"] or r["failed"]:
                    problems.append(f"{w} trace={trace}: {r['failed']}/{r['attempted']} failed")
            for name in DETERMINISTIC[trace]:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                status = "ok" if va == vb else "DIFFERS"
                if va != vb:
                    problems.append(f"{w} {name}: {va} vs {vb}")
                print(f"{w:9s} trace={trace} {name:30s} {va!r:>22} {vb!r:>22} {status}")
    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv):
    selftest_mode = "--selftest" in argv
    rest = [a for a in argv if a != "--selftest"]
    opts = dict(zip(rest[0::2], rest[1::2]))
    if selftest_mode:
        workloads = opts.get("--workloads", ",".join(WORKLOADS)).split(",")
        exe = build()
        return selftest(exe, source_identity(), int(opts.get("--seed", "1")), workloads)
    need = ["--workload", "--seed", "--seconds", "--trace"]
    if len(rest) != 2 * len(need) or sorted(opts) != sorted(need):
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in WORKLOADS or opts["--trace"] not in ("0", "1"):
        fail(f"unknown workload or trace mode: {opts}")
    exe = build()
    run_once(exe, source_identity(), opts["--workload"], opts["--seed"], opts["--seconds"],
             opts["--trace"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
