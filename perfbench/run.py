#!/usr/bin/env python3
"""The fewstate benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The script builds perfbench/ (which links
the checkout's own fewstate library) into .bench_build/perfbench, generates
the workload's seeded inputs once per seed, runs the workload and prints
the result JSON as the last line of standard output. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones and
writes the run's spans to .bench_build/perfbench/traces/. Every result is
also appended, with its provenance line, to .bench_build/perfbench/results.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid_nvm_ckpt", "frugal_nvm", "tcp_serve_cached")
KEEP_INPUTS = 4  # cached seeds per workload
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def out_dir():
    base = (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    if ROOT.resolve() not in base.parents:
        base = ROOT / ".bench_build"
    path = base / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def build(out):
    cmake_dir = out / "cmake"
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", str(cmake_dir), "--target", "fsbench",
                "-j", jobs]
    with open(log_path, "w") as log:
        for attempt in range(2):
            steps = [compile_]
            if attempt > 0 or not (cmake_dir / "CMakeCache.txt").exists():
                shutil.rmtree(cmake_dir, ignore_errors=True)
                steps = [configure, compile_]
            ok = True
            for step in steps:
                try:
                    rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except (OSError, subprocess.TimeoutExpired) as err:
                    log.write(f"\n{err}\n")
                    rc = 1
                if rc != 0:
                    ok = False
                    break
            if ok:
                return cmake_dir / "fsbench"
    tail = log_path.read_text(errors="replace").splitlines()[-25:]
    fail("build failed:\n" + "\n".join(tail))


def inputs(binary, out, workload, seed, small):
    tag = f"{workload}-seed{seed}" + ("-small" if small else "")
    root = out / "inputs"
    path = root / tag
    if (path / "oracle.txt").exists():
        os.utime(path)
        return path
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    cmd = [str(binary), "gen", "--workload", workload, "--seed", str(seed),
           "--dir", str(path)] + (["--small"] if small else [])
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        rc = 1
    if rc != 0:
        shutil.rmtree(path, ignore_errors=True)
        fail(f"input generation failed for {tag}")
    cached = sorted((p for p in root.iterdir()
                     if p.is_dir() and p.name.startswith(workload + "-seed")),
                    key=lambda p: p.stat().st_mtime, reverse=True)
    for old in cached[KEEP_INPUTS:]:
        shutil.rmtree(old, ignore_errors=True)
    return path


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(result, trace):
    """Every declared metric is printed with its unit; nothing else is."""
    expected = declared_metrics(trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are " + ", ".join(sorted(result))
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing or extra:
        return f"missing metrics {missing}, undeclared metrics {extra}"
    for name, unit in expected.items():
        entry = metrics[name]
        if entry.get("unit") != unit:
            return f"{name} printed with unit {entry.get('unit')!r}, declared {unit!r}"
        if not isinstance(entry.get("value"), (int, float)):
            return f"{name} has no numeric value"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    return None


def run_workload(binary, out, workload, seed, seconds, trace, small=False,
                 data=None):
    """Runs one workload; returns (exit code, result dict or None)."""
    data = data or inputs(binary, out, workload, seed, small)
    cmd = [str(binary), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", str(data)]
    if trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    result = json.loads(lines[-1])
    with open(out / "results.jsonl", "a") as log:
        provenance = next((l[len("provenance "):] for l in lines
                           if l.startswith("provenance ")), "{}")
        log.write(json.dumps({"provenance": json.loads(provenance),
                              "result": result}) + "\n")
    return 0, result


def self_test(binary, out):
    """Short inputs: every declared metric is printed, and the gate fires
    on a corrupted trace."""
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, result = run_workload(binary, out, workload, 7, 1, trace,
                                      small=True)
            if rc != 0 or result is None:
                fail(f"self-test: {workload} --trace {trace} exited {rc}")
            problem = check_result(result, trace)
            if problem or not result["correct"]:
                fail(f"self-test: {workload} --trace {trace}: {problem}")
            print(f"self-test: {workload} --trace {trace} ok")

    clean = inputs(binary, out, "grid_nvm_ckpt", 7, True)
    corrupt = out / "inputs" / "self-test-corrupt"
    for damage in ("flip", "truncate"):
        shutil.rmtree(corrupt, ignore_errors=True)
        shutil.copytree(clean, corrupt)
        trace_file = corrupt / "trace.u64"
        raw = bytearray(trace_file.read_bytes())
        if damage == "flip":
            raw[len(raw) // 2] ^= 0x5A
        else:
            raw = raw[:-3]
        trace_file.write_bytes(bytes(raw))
        rc, result = run_workload(binary, out, "grid_nvm_ckpt", 7, 1, 0,
                                  small=True, data=corrupt)
        if rc == 0 or result is not None:
            fail(f"self-test: the correctness gate let a trace with {damage} damage pass")
        print(f"self-test: {damage} damage rejected (exit {rc})")
    shutil.rmtree(corrupt, ignore_errors=True)
    print("self-test: OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    out = out_dir()
    binary = build(out)
    if args.self_test:
        self_test(binary, out)
        return
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc, result = run_workload(binary, out, workload, args.seed,
                                  args.seconds, args.trace)
        if rc != 0 or result is None:
            fail(f"{workload} failed (exit {rc})", rc or 1)
        problem = check_result(result, args.trace)
        if problem:
            fail(f"{workload}: {problem}")
        results[workload] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            print(f"{workload:18s} {name:42s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(results))


if __name__ == "__main__":
    main()
