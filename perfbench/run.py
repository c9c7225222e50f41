#!/usr/bin/env python3
"""Seeded benchmark for jointmeas.

    python3 perfbench/run.py --workload qubit-pairs --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

The program under test is ``src/jointmeas`` next to this directory,
imported from source.  One invocation:

1. builds the workload's inputs from ``--seed`` (see workloads.py);
2. measures set-up: several cold ``import jointmeas`` in fresh interpreters
   (their median is ``setup_s``) and one ``-X importtime`` breakdown;
3. warms up, then runs a fixed number of whole rounds of operations, one
   at a time: as many as take ``--seconds`` on the reference machine;
4. times imports and operations in CPU seconds, and a calibration kernel
   between them, and reports the timed end-to-end metrics at the reference
   speed (speed.py);
5. checks every operation's output against its reference, outside the
   timed region;
6. prints every metric by name with its unit, writes the full record to
   ``perfbench/out/``, and prints one JSON line last:
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` they are the per-layer metrics: the run records spans
around the calls into each layer (spans.py), and adds the tracing overhead,
the traced time of the first round over its untraced time.
"""
import os

# OpenBLAS reads its thread count when numpy loads, so the pin comes before
# anything imports numpy; children inherit it through the environment.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from speed import Speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COLD_IMPORTS = 3
LOAD_MODEL = "closed loop, one caller: one process, one operation at a time, no worker threads"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# set-up layer
# ---------------------------------------------------------------------------

_COLD_IMPORT = (
    "import time; t = time.process_time(); import jointmeas; print(time.process_time() - t)"
)


def parse_importtime(stderr: str) -> dict:
    """Import-time breakdown from ``python -X importtime -c 'import jointmeas'``.

    Each line gives self and cumulative microseconds and the module name,
    indented by nesting depth; a module is listed after the modules it
    imported.  ``import.scipy_s`` adds up every scipy module that no other
    scipy module imported."""
    rows = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        rows.append((len(parts[2]) - len(parts[2].lstrip()), name, self_us, cum_us))
    stack, total, numpy_us, scipy_us, own_us = [], 0, 0, 0, 0
    for depth, name, self_us, cum_us in reversed(rows):  # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        in_scipy = any(n == "scipy" or n.startswith("scipy.") for _, n in stack)
        if name == "jointmeas" and not stack:
            total = cum_us
        if name == "jointmeas" or name.startswith("jointmeas."):
            own_us += self_us
        if name == "numpy" and not numpy_us:
            numpy_us = cum_us
        if (name == "scipy" or name.startswith("scipy.")) and not in_scipy:
            scipy_us += cum_us
        stack.append((depth, name))
    return {
        "import.total_s": total / 1e6,
        "import.numpy_s": numpy_us / 1e6,
        "import.scipy_s": scipy_us / 1e6,
        "import.jointmeas_self_s": own_us / 1e6,
    }


def measure_setup(env: dict, speed: Speed) -> dict:
    """Cold imports, each timed in CPU seconds inside its interpreter, with
    a calibration before each and after the last.  Their median, at the
    reference speed of the whole run, is ``setup_s``."""
    samples = []
    for _ in range(COLD_IMPORTS):
        speed.sample(force=True)
        proc = subprocess.run(
            [sys.executable, "-c", _COLD_IMPORT], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout))
    speed.sample(force=True)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import jointmeas"], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return {"cold_import_s": samples, "importtime": parse_importtime(proc.stderr)}


# ---------------------------------------------------------------------------
# machine and run metadata
# ---------------------------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    maps = _read("/proc/self/maps") or ""
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(args, workload) -> dict:
    cpuinfo = (_read("/proc/cpuinfo") or "").splitlines()
    cpu = next((l.split(":", 1)[1].strip() for l in cpuinfo if l.startswith("model name")), None)
    llc = None
    for index in range(8, -1, -1):
        size = _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        level = _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/level")
        if size and level:
            llc = f"L{level} {size}"
            break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cpu_model": cpu or platform.processor() or None,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": BLAS_ENV,
        "git_commit": commit,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": LOAD_MODEL,
        "rounds": len(workload.rounds),
        "ops_per_round": len(workload.rounds[0]),
        "op_count_note": workload.op_count_note,
        "tail_percentile": workload.tail_percentile,
    }


# ---------------------------------------------------------------------------
# the timed loop and what is computed from it
# ---------------------------------------------------------------------------

def cpu_seconds() -> float:
    """CPU time used so far by this process and the children it has waited
    for (the CLI runs of cli-scenarios)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def run_rounds(rounds, recorder=None, speed=None):
    """Run every round, one operation at a time, with a calibration before
    the first operation, after the last, and between operations at most every
    ``speed.INTERVAL_S`` when ``speed`` is given.

    Returns the records (op, CPU seconds, result, error) and the elapsed
    wall time.  An operation that raises is recorded with its error and the
    run goes on."""
    records = []
    if speed is not None:
        speed.sample(force=True)
    start = perf_counter()
    for rnd in rounds:
        for op in rnd:
            if recorder is not None:
                recorder.op = len(records)
            t0 = cpu_seconds()
            try:
                result, error = op.call(), None
            except Exception as exc:
                result, error = None, "".join(traceback.format_exception_only(exc)).strip()
            records.append((op, cpu_seconds() - t0, result, error))
            if speed is not None:
                speed.sample()
    elapsed = perf_counter() - start
    if speed is not None:
        speed.sample(force=True)
    return records, elapsed


def percentile(sorted_values, p: float) -> float:
    """Linearly interpolated percentile of an ascending list."""
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def latency_stats(durations, tail_percentile: float) -> dict:
    """Median latency and latency at the workload's tail percentile."""
    xs = sorted(durations)
    tail = percentile(xs, tail_percentile)
    return {
        "samples": len(xs),
        "p50_ms": percentile(xs, 50.0) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": tail_percentile,
        "tail_beyond": sum(1 for x in xs if x > tail),
        "max_ms": xs[-1] * 1e3,
    }


def check_records(records) -> list:
    """Reference checks, outside the timed region: (index, kind, reasons)."""
    failures = []
    for i, (op, _dt, result, error) in enumerate(records):
        reasons = [error] if error else op.check(result)
        if reasons:
            failures.append((i, op.kind, reasons))
    return failures


def tally(records) -> dict:
    total = {}
    for op, _dt, result, error in records:
        wl.add_tallies(total, {"questions": 1, "errors": 1} if error else op.tally(result))
    return dict(sorted(total.items()))


def round_counts(records, n: int, digest: str) -> dict:
    """Deterministic counts over the first round, which every run holds,
    with the input digest and a digest of the outputs."""
    summaries = [err if err else op.summary(res) for op, _dt, res, err in records[:n]]
    out_digest = hashlib.sha256(
        json.dumps(summaries, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return {"round0": tally(records[:n]), "input_digest": digest, "output_digest": out_digest}


def input_digest(workload) -> str:
    h = wl.digest_arrays(m for rnd in workload.rounds for op in rnd for m in op.arrays)
    h.update(json.dumps([[op.kind for op in rnd] for rnd in workload.rounds]).encode())
    return h.hexdigest()


def by_kind(records) -> dict:
    groups = {}
    for op, dt, _res, _err in records:
        groups.setdefault(op.kind, []).append(dt)
    return {
        k: {"count": len(v), "median_ms": statistics.median(v) * 1e3, "max_ms": max(v) * 1e3}
        for k, v in sorted(groups.items())
    }


def load_child_spans(records) -> list:
    """Merge the spans the traced CLI children wrote, one file per op."""
    merged = []
    for op_index, (_op, _dt, result, _err) in enumerate(records):
        if result is None or not os.path.exists(result.spans_path or ""):
            continue
        with open(result.spans_path) as fh:
            child = json.load(fh)
        base = len(merged)
        for name, t0, t1, parent, _op, note in child:
            merged.append([name, t0, t1, parent + base if parent >= 0 else -1, op_index, note])
    return merged


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(args, work_dir: Path) -> dict:
    env = child_env()
    # one calibration series per run: the imports and then the rounds
    speed = Speed()
    setup = measure_setup(env, speed)
    runner, jm = None, None
    if args.workload == "cli-scenarios":
        runner = wl.CliRunner(str(work_dir), env, str(ROOT), str(HERE / "trace_cli.py"))
    else:
        sys.path.insert(0, str(SRC))
        import jointmeas as jm

        if Path(jm.__file__).resolve().parent != (SRC / "jointmeas").resolve():
            raise RuntimeError(f"imported jointmeas from {jm.__file__}, not from {SRC}")
    workload = wl.build(args.workload, jm, args.seed, wl.rounds_for(args.workload, args.seconds),
                        runner)
    digest = input_digest(workload)
    n0 = len(workload.rounds[0])
    record = {"metadata": run_metadata(args, workload), "setup": setup}

    for op in workload.warmup:
        op.call()

    problems = []  # failures that belong to no single op
    if not args.trace:
        records, elapsed = run_rounds(workload.rounds, speed=speed)
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
        cpu = [r[1] for r in records]
        lat = latency_stats(cpu, workload.tail_percentile)
        totals = tally(records)
        factor = speed.factor()
        metrics = {
            "setup_s": statistics.median(setup["cold_import_s"]) * factor,
            "ops_per_s": len(records) / (sum(cpu) * factor),
            "op_p50_ms": lat["p50_ms"] * factor,
            "op_tail_ms": lat["tail_ms"] * factor,
            "decided_ratio": totals.get("answered", 0) / max(totals.get("questions", 0), 1),
            "peak_rss_mb": peak_mb,
        }
        record["latency"] = lat  # raw CPU times
        record["speed"] = {
            "factor": factor, "calibrations": len(speed.samples),
            "kernel_mean_s": statistics.fmean(speed.samples),
        }
        counts = round_counts(records, n0, digest)
    else:
        base, _ = run_rounds(workload.rounds[:1])
        recorder = spans.SpanRecorder()
        if workload.in_process:
            recorder.install()
        else:
            runner.spans_dir = str(work_dir)
        try:
            records, elapsed = run_rounds(workload.rounds, recorder)
        finally:
            recorder.uninstall()
            if runner is not None:
                runner.spans_dir = None
        trace = recorder.spans if workload.in_process else load_child_spans(records)
        totals = tally(records)
        metrics = dict(setup["importtime"])
        metrics.update(spans.layer_metrics(
            trace, wl.SCENARIOS, totals.get("emit_bytes", 0), len(workload.rounds)
        ))
        untraced0 = sum(r[1] for r in base)
        traced0 = sum(r[1] for r in records[:n0])
        metrics["trace.overhead_ratio"] = traced0 / untraced0 - 1.0
        metrics["trace.spans"] = len(trace) / len(workload.rounds)
        record["tracing"] = {"untraced_round0_cpu_s": untraced0, "traced_round0_cpu_s": traced0}
        # the first round ran untraced and traced; it must repeat exactly
        counts = round_counts(records, n0, digest)
        untraced_counts = round_counts(base, n0, digest)
        for key in ("round0", "output_digest"):
            if untraced_counts[key] != counts[key]:
                problems.append(("determinism", [f"{key} differs between untraced and traced round 0"]))
        counts["hermitian_constructions"] = sum(
            1 for s in trace if s[0] == "operators.hermitian" and s[4] < n0
        )
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump(trace, fh)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        records = base + records

    failed_ops = check_records(records)
    decisions = totals.get("decisions")
    record.update(
        elapsed_s=elapsed,
        attempted=len(records),
        failed=len(failed_ops) + len(problems),
        failed_ratio=(len(failed_ops) + len(problems)) / len(records),
        undetermined_ratio=totals.get("undetermined", 0) / decisions if decisions else None,
        totals=totals,
        counts=counts,
        failures=[{"op": i, "kind": k, "reasons": r} for i, k, r in failed_ops[:50]]
        + [{"op": None, "kind": k, "reasons": r} for k, r in problems],
        by_kind=by_kind(records),
        metrics=metrics,
    )
    return record


def print_report(record: dict, units: dict):
    meta = record["metadata"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"commit {meta['git_commit']}")
    print(f"machine  {meta['cpu_model']}  nproc {meta['nproc']}  LLC {meta['last_level_cache']}  "
          f"python {meta['python']}  numpy {meta['numpy']}  scipy {meta['scipy']}")
    print(f"blas     {meta['blas']}  threads {meta['blas_threads']}")
    print(f"load     {meta['load_model']}; {meta['op_count_note']}")
    print(f"ops      {record['attempted']} in {meta['rounds']} rounds, "
          f"{record['elapsed_s']:.3f} s wall")
    lat = record.get("latency")
    if lat:
        print(f"latency  {lat['samples']} samples in CPU time; op_tail_ms is "
              f"p{lat['tail_percentile']:g} with {lat['tail_beyond']} ops beyond it")
        sp = record["speed"]
        print(f"speed    factor {sp['factor']:.4f} to the reference speed, from {sp['calibrations']} "
              f"kernel timings (mean {sp['kernel_mean_s'] * 1e3:.3f} ms)")
    for name, value in record["metrics"].items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'failed_ratio':44s} {record['failed_ratio']:14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    if record["undetermined_ratio"] is not None:
        print(f"  {'undetermined_ratio':44s} {record['undetermined_ratio']:14.6g} ratio")
    print(f"counts   {json.dumps(record['counts'], sort_keys=True)}")
    for f in record["failures"][:10]:
        print(f"FAILED op {f['op']} ({f['kind']}): {'; '.join(f['reasons'])[:400]}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process, then one table."""
    results = {}
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print(f"{'metric':44s}" + "".join(f"{w:>16s}" for w in results))
    for m, unit in declared_units(args.trace).items():
        cells = "".join(f"{r['metrics'][m]['value']:16.6g}" for r in results.values())
        print(f"{m + ' (' + unit + ')':44s}{cells}")
    print(f"{'failed/attempted':44s}" + "".join(
        f"{r['failed']}/{r['attempted']}".rjust(16) for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "jointmeas" / "__init__.py").is_file():
        print(f"jointmeas sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    units = declared_units(args.trace)
    work_dir = OUT / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        record = run_workload(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(record["metrics"]) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(record['metrics']) ^ set(units))}"
        )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n], "unit": u} for n, u in units.items()},
    }
    record["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=repr)
    print_report(record, units)
    print(f"record   {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
