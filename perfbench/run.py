"""Benchmark of the graphdsp CLI: seeded workloads run as a closed loop.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sensor_detect --seed 1 --seconds 32 --trace 0

One client runs each workload's commands as ``python -m graphdsp.cli``
subprocesses (``PYTHONPATH=src``), each starting after the previous one
exits, and repeats the pipeline until ``--seconds`` is used up.  Every
output is checked against a reference computed here.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced pipelines alternate and it
carries the per-layer metrics.  The lines before it are a readable report,
the environment and the inputs.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from pathlib import Path

import numpy
import scipy

import spans
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 9
# a run must end within 180 s; leave room for the report after a stall
HARD_LIMIT_S = 165.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = BLAS_VARS + ("BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                           "NUMEXPR_NUM_THREADS")

Proc = namedtuple("Proc", "wall cpu rss_mb code timed_out")


def child_env():
    """The environment of every command: the sources on the path, and one
    BLAS thread.  On a shared 2-core machine a second BLAS thread waits on a
    busy core: paired runs of sensor_detect spread 0.14 (IQR over median)
    with 2 threads and 0.05 with 1, for an 11% higher median."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in BLAS_VARS})
    return env


def spawn(argv, env, log: Path, timeout):
    """Run a process to its end; wall time, max RSS from wait4, exit code."""
    fired = []

    def kill():
        fired.append(True)
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, bool(fired))


def run_pipeline(workload, out: Path, env, traced, deadline):
    """Run every command of one pipeline, then check the outputs.

    Returns the pipeline's wall time (first spawn to last exit) and one
    record per command.
    """
    out.mkdir(parents=True)
    records = []
    for cmd in workload.commands:
        args = [str(a) for a in cmd.argv(out)]
        span_file = out / f"{cmd.name}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(span_file),
                    cmd.name, "--", *args]
        else:
            argv = [sys.executable, "-m", "graphdsp.cli", *args]
        t0 = time.perf_counter()
        proc = spawn(argv, env, out / f"{cmd.name}.log",
                     max(1.0, deadline - time.perf_counter()))
        records.append({"name": cmd.name, "start": t0, "wall": proc.wall,
                        "cpu": proc.cpu, "rss_mb": proc.rss_mb, "code": proc.code,
                        "timed_out": proc.timed_out, "error": None})
        if proc.timed_out:
            records[-1]["error"] = "timed out"
            break
    pipeline_s = records[-1]["start"] + records[-1]["wall"] - records[0]["start"]
    for cmd, rec in zip(workload.commands, records):
        if rec["error"]:
            continue
        if rec["code"] != 0:
            log = (out / f"{cmd.name}.log").read_text(errors="replace").strip()
            rec["error"] = f"exit {rec['code']}: {log[-300:]}"
            continue
        try:
            cmd.check(out)
        except CheckFailed as e:
            rec["error"] = str(e)
        except (KeyError, IndexError, TypeError, ValueError) as e:
            rec["error"] = f"malformed output: {e!r}"
        if traced:
            metrics, called, gap = spans.command_metrics(
                json.loads((out / f"{cmd.name}.spans.json").read_text()))
            rec.update(layers=metrics, called=sorted(called))
            if gap > 1e-6 and not rec["error"]:
                rec["error"] = f"layer self times miss the traced wall time by {gap:.3e} s"
    return pipeline_s, records


def summary(samples):
    """Median, plus the highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "n": n}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out[f"p{p:g}"] = s[math.ceil(p / 100.0 * n) - 1]
            break
    return out


def fmt_summary(name, summ):
    tail = [f"{k} {v:.4f} s" for k, v in summ.items() if k.startswith("p")]
    tail = tail[0] if tail else "no tail percentile (needs >= 20 samples)"
    return f"  {name:<22} median {summ['median']:.4f} s  n={summ['n']:<3} {tail}"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(env):
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                 for k, v in deps.items()},
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def time_setup(env, work: Path):
    """Fresh interpreters that import graphdsp.cli and exit; one warm-up."""
    argv = [sys.executable, "-c", "import graphdsp.cli"]
    times = []
    for i in range(SETUP_REPS + 1):
        proc = spawn(argv, env, work / "setup.log", 60.0)
        if proc.code != 0:
            raise RuntimeError("importing graphdsp.cli failed: "
                               + (work / "setup.log").read_text(errors="replace"))
        if i:
            times.append(proc.wall)
    return times


def measure(name, seed, seconds, trace, work: Path, sizes=None, t_start=None):
    """Run one workload for ``seconds``; returns (result line, full record)."""
    t_start = time.perf_counter() if t_start is None else t_start
    deadline = t_start + HARD_LIMIT_S
    env = child_env()
    inp = work / "inputs"
    inp.mkdir(parents=True)
    t0 = time.perf_counter()
    workload = WORKLOADS[name](seed, inp, **(sizes or {}))
    reference_s = time.perf_counter() - t0
    setup = [] if trace else time_setup(env, work)

    pipelines = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(pipelines) % 2 == 1
        wall, records = run_pipeline(workload, work / f"p{len(pipelines)}", env,
                                     traced, deadline)
        pipelines.append({"traced": traced, "wall": wall, "commands": records})
        if any(r["timed_out"] for r in records):
            break
        predicted = statistics.median(p["wall"] for p in pipelines)
        now = time.perf_counter()
        both = not trace or len(pipelines) >= 2
        if now + predicted > deadline or (both and now - loop_start + predicted > seconds):
            break

    graph_dir = work / "p0"
    for rec in workload.inputs:
        path = rec.pop("graph_tsv")
        path = path if path.is_absolute() else graph_dir / path
        rec["graph_tsv_bytes"] = path.stat().st_size if path.exists() else None

    commands = [r for p in pipelines for r in p["commands"]]
    failed = [r for r in commands if r["error"]]
    plain = [p for p in pipelines if not p["traced"]]
    per_command = {}
    for p in plain:
        for r in p["commands"]:
            if not r["timed_out"]:
                per_command.setdefault(f"{r['name']}_s", []).append(r["wall"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    if not trace:
        values["setup_s"] = statistics.median(setup)
        values["pipeline_s"] = statistics.median(p["wall"] for p in plain)
        values["peak_rss_mb"] = max(r["rss_mb"] for p in plain for r in p["commands"])
        wanted = spec["end_to_end"]
    else:
        traced_p = [p for p in pipelines if p["traced"]]
        layer_values = [spans.pipeline_metrics([r.get("layers", {}) for r in p["commands"]])
                        for p in traced_p]
        for key in {k for lv in layer_values for k in lv}:
            values[key] = statistics.median(lv.get(key, 0.0) for lv in layer_values)
        values.update({k: statistics.median(v) for k, v in per_command.items()})
        if traced_p:
            values["tracing.overhead_s"] = (statistics.median(p["wall"] for p in traced_p)
                                            - statistics.median(p["wall"] for p in plain))
        wanted = spec["per_layer"]
    called = {c for p in pipelines if p["traced"] for r in p["commands"]
              for c in r.get("called", ())}
    missing = sorted(workload.expected_calls - called) if trace else []

    result = {
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(env), "inputs": workload.inputs,
        "reference_s": reference_s, "setup_samples": setup,
        "summaries": {"pipeline_s": summary([p["wall"] for p in plain]),
                      **({"setup_s": summary(setup)} if setup else {}),
                      **{k: summary(v) for k, v in per_command.items()}},
        "error_rate": len(failed) / len(commands),
        "errors": [f"{r['name']}: {r['error']}" for r in failed],
        "missing_calls": missing,
        "pipelines": [{"traced": p["traced"], "wall": p["wall"],
                       "cpu": sum(r["cpu"] for r in p["commands"]),
                       "commands": {r["name"]: r["wall"] for r in p["commands"]}}
                      for p in pipelines],
        "result": result,
    }
    return result, record


def report(record):
    r = record["result"]
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{len(record['pipelines'])} pipelines, {r['attempted']} commands, "
             f"error_rate {record['error_rate']:.4f}"]
    for name, summ in record["summaries"].items():
        lines.append(fmt_summary(name, summ))
    for name, m in r["metrics"].items():
        lines.append(f"  {name:<38} {m['value']:.6g} {m['unit']}")
    lines += [f"  error: {e}" for e in record["errors"]]
    if record["missing_calls"]:
        lines.append(f"  missing (expected but never called): {record['missing_calls']}")
    lines.append("environment " + json.dumps(record["environment"]))
    lines.append("inputs " + json.dumps(record["inputs"]))
    return "\n".join(lines)


def main(argv=None):
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphdsp" / "cli.py").is_file():
        print(f"error: no graphdsp sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result, record = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), work, t_start=t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / f"last_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(report(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
