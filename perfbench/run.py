"""fracstorm benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload white-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, in turn

A run repeats one workload, each repetition in a fresh process started from
``worker.py``, for ``--seconds`` seconds (at least one repetition), then checks
every repetition's output and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0``: the end-to-end metrics ``wall_s``, ``setup_s`` and
  ``peak_rss_mb``, each the median over the run's repetitions.
* ``--trace 1``: the per-layer metrics of ``tracer.METRICS``, medians over the
  traced repetitions; untraced and traced repetitions alternate, and
  ``trace.overhead_s`` is the difference of their median wall times.

Every repetition runs with the BLAS/OpenMP pools pinned to one thread.  The
run environment (git sha, nproc, thread settings, library versions, seed and
input sizes) is printed on the line before the result and written with the
per-repetition records to ``.perfbench-out/<workload>/result.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")

WORKLOADS = ("white-sweep", "colored-sweep", "mc-white", "history-ops")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Every workload thread pool below the program is pinned to one thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
#: setup_s is the median of at least this many process starts per run.
MIN_SETUP_SAMPLES = 8
#: A run must end within 180 s: no worker outlives this many seconds from
#: the start of the run (the checks still follow).
RUN_LIMIT_S = 150.0


def _child_env():
    env = {k: v for k, v in os.environ.items() if k != "FRACSTORM_THREADS"}
    env.update(BLAS_ENV)
    return env


def _spawn(workload, seed, rep, outdir, trace, setup_only=False, timeout=RUN_LIMIT_S):
    """Run one worker process to completion; returns its result record."""
    os.makedirs(outdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--outdir", outdir,
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(outdir, "stdout.txt"), "wb") as out, \
            open(os.path.join(outdir, "stderr.txt"), "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(started)], cwd=ROOT,
                                env=_child_env(), stdout=out, stderr=err)
        try:
            status = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            status = "timeout"
    elapsed = time.monotonic() - started
    record = {"rep": rep, "trace": trace, "status": status, "elapsed_s": elapsed}
    if status == 0:
        with open(os.path.join(outdir, "result.json"), encoding="utf-8") as fh:
            record.update(json.load(fh))
    return record


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(workload, seed, seconds, trace):
    """Repetitions of one workload for ``seconds``; returns the run record.

    Until there are MIN_SETUP_SAMPLES ``setup_s`` samples, each repetition is
    followed by a setup-only start, so the samples are spread over the run
    rather than bunched at its end.
    """
    base = os.path.join(OUT, workload)
    shutil.rmtree(base, ignore_errors=True)
    started = time.monotonic()
    hard_stop = started + RUN_LIMIT_S

    def spawn(name, rep, traced=0, setup_only=False):
        timeout = max(1.0, hard_stop - time.monotonic())
        return _spawn(workload, seed, rep, os.path.join(base, name), traced,
                      setup_only, timeout)

    # Untimed warm-up start: fills the page cache and the bytecode cache so
    # the first measured start does not pay for them alone.
    spawn("warmup", -1, setup_only=True)
    reps, setups = [], []
    start = time.monotonic()
    deadline = start + seconds
    longest = 0.0
    while True:
        have_both = trace == 0 or any(r["trace"] for r in reps)
        if reps and have_both and time.monotonic() + longest > deadline:
            break
        k = len(reps)
        rec = spawn(f"rep{k}", k, traced=int(trace == 1 and k % 2 == 1))
        reps.append(rec)
        cycle = [rec]
        if len(setups) + 1 < MIN_SETUP_SAMPLES:
            cycle.append(spawn(f"setup{k}", 1000 + k, setup_only=True))
        setups += [r["setup_s"] for r in cycle if "setup_s" in r]
        longest = max(longest, sum(r["elapsed_s"] for r in cycle))
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < hard_stop:
        k = len(setups)
        probe = spawn(f"setup-extra{k}", 2000 + k, setup_only=True)
        if probe["status"] != 0:
            break
        setups.append(probe["setup_s"])
    return {"reps": reps, "setup_samples": setups, "measured_s": time.monotonic() - start}


def check(workload, reps):
    """Run the correctness checks on every repetition; returns failed count."""
    import checks
    import worker

    sizes = worker.input_sizes(workload)
    reference = checks.mc_reference() if workload == "mc-white" else None
    failed = 0
    for rec in reps:
        outdir = os.path.join(OUT, workload, f"rep{rec['rep']}")
        if rec["status"] != 0:
            fails, diag = [f"worker exited with status {rec['status']}"], {}
        else:
            fails, diag = checks.check_rep(workload, outdir, rec["exit_code"], sizes,
                                           reference)
        rec["failures"], rec["check"] = fails, diag
        failed += bool(fails)
    return failed


def summarize(run, trace):
    """Metrics of one run: end-to-end (trace 0) or per-layer (trace 1)."""
    import tracer

    ok = [r for r in run["reps"] if r["status"] == 0 and not r["failures"]]
    plain = [r for r in ok if not r["trace"]]
    metrics = {}
    if trace == 0:
        values = {"wall_s": [r["wall_s"] for r in plain],
                  "setup_s": run["setup_samples"],
                  "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        for name, unit in END_TO_END.items():
            if values[name]:
                metrics[name] = {"value": statistics.median(values[name]),
                                 "unit": unit}
        return metrics
    traced = [r for r in ok if r["trace"]]
    for name in tracer.METRICS:
        vals = [r["layers"][name] for r in traced if name in r.get("layers", {})]
        if vals:
            metrics[name] = {"value": statistics.median(vals), "unit": tracer.unit_of(name)}
    if plain and traced:
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def environment(workload, seed, run):
    import worker

    first = next((r for r in run["reps"] if r["status"] == 0), {})
    sizes = worker.input_sizes(workload)
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(), "blas_env": BLAS_ENV,
            "program_threads": sizes.get("run.threads", 1),
            "os_threads_after_setup": first.get("os_threads_after_setup"),
            "versions": first.get("versions"), "seed": seed, "workload": workload,
            "sizes": sizes}


def run_workload(workload, seed, seconds, trace):
    run = measure(workload, seed, seconds, trace)
    failed = check(workload, run["reps"])
    metrics = summarize(run, trace)
    env = environment(workload, seed, run)
    result = {"correct": failed == 0 and len(metrics) > 0,
              "attempted": len(run["reps"]), "failed": failed, "metrics": metrics}
    record = {"environment": env, "result": result, **run}
    with open(os.path.join(OUT, workload, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return env, run, result


def _report(workload, env, run, result):
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for rec in run["reps"]:
        bits = [f"rep {rec['rep']}", f"trace {rec['trace']}", f"status {rec['status']}"]
        for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "vm_hwm_mb"):
            if key in rec:
                bits.append(f"{key} {rec[key]:.4f}")
        bits += [f"{k} {v}" for k, v in rec.get("check", {}).items()]
        if rec.get("failures"):
            bits.append("FAILED: " + "; ".join(rec["failures"]))
        print(f"{workload}: " + ", ".join(bits))
    for name, m in result["metrics"].items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")


def run_all(seed, seconds, trace):
    """Each workload through its own ``run.py`` process, then one combined line.

    The checks import numpy and fracstorm and grow the checking process;
    Linux carries a parent's peak RSS into the ``ru_maxrss`` of the children
    it starts, so no process that has run checks may start a measured worker.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="fracstorm benchmark")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fracstorm", "__init__.py")):
        print(f"perfbench: no fracstorm sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env, run, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _report(args.workload, env, run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
