"""One repetition of one benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition, so every repetition pays
the interpreter start and the numpy/scipy import that a user of the
``fracstorm`` command pays, and its peak RSS is its own.  The script

1. sets up: imports, writes and parses the workload's configuration, and
   builds any input arrays (``setup_s`` runs from the moment ``run.py``
   started the process to here);
2. runs the timed region (``wall_s``), in a traced run with the layer
   wrappers of ``tracer.py`` installed only around it;
3. saves what the checks need next to the CLI's artifacts and writes
   ``result.json`` into its output directory.

The correctness checks run later, in ``run.py``, outside every timed region.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fracstorm  # noqa: E402
from fracstorm import charts, cli, excitation, fracfun, kernels, moments, simulate  # noqa: E402,F401

# Criterion 2's evaluation grid: the union of a cubic-graded and a uniform
# grid on [0, 2] (12,273 nodes), and 512 uniform evaluation times.
HISTORY_T = 2.0
HISTORY_ORDER = 0.5
RENEWAL = {"rho": 0.5, "kappa": 1.0, "c1": 1.0, "T": 1.0, "nt": 16384}


def _history_grid():
    aux = np.unique(np.concatenate([
        HISTORY_T * (np.arange(4097) / 4096.0) ** 3,
        np.linspace(0.0, HISTORY_T, 8193),
    ]))
    return aux, np.linspace(0.0, HISTORY_T, 513)[1:]


def mc_seed(seed, rep):
    """Program seed of one mc-white repetition: distinct per (seed, rep)."""
    return (int(seed) * 1000003 + int(rep)) % 2 ** 63


def program_threads():
    """Thread-pool size given to the program: 2, but never more than nproc."""
    return min(2, os.cpu_count() or 1)


#: workload -> (fracstorm command, configuration entries).
CONFIGS = {
    "white-sweep": ("excite", {
        "noise.kind": "white", "model.alpha": 2.0, "model.beta": 0.5,
        "grid.nx": 64, "excite.nt": 192, "excite.t": 0.1,
        "excite.lam_min": 1e2, "excite.lam_max": 1e6, "excite.count": 13,
        "excite.functional": "energy", "run.threads": 1}),
    "colored-sweep": ("excite", {
        "noise.kind": "riesz", "noise.gamma": 0.5, "model.alpha": 2.0,
        "model.beta": 0.5, "grid.nx": 32, "excite.nt": 192, "excite.t": 0.1,
        "excite.lam_min": 1e2, "excite.lam_max": 1e5, "excite.count": 10,
        "excite.functional": "energy", "run.threads": 1}),
    "mc-white": ("simulate", {
        "noise.kind": "white", "model.alpha": 2.0, "model.beta": 0.5,
        "model.lam": 1.0, "grid.nx": 64, "grid.nt": 256, "grid.t": 0.1,
        "simulate.replicates": 2000, "run.threads": program_threads()}),
    "history-ops": ("moments", {}),
}


def input_sizes(workload):
    """The sizes of a workload's inputs, as recorded with every result."""
    if workload == "history-ops":
        aux, eval_ts = _history_grid()
        return {"renewal": dict(RENEWAL), "fractional_integral_nodes": int(aux.size),
                "fractional_integral_order": HISTORY_ORDER,
                "caputo_points": int(eval_ts.size)}
    return dict(CONFIGS[workload][1])


def _config_text(entries, seed, outdir):
    lines = [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
             for k, v in sorted(entries.items())]
    lines += [f"run.seed = {seed}", f"run.outdir = {outdir}"]
    return "\n".join(lines) + "\n"


def setup(workload, seed, rep, outdir):
    """Prepare the inputs; returns the timed callable and a saver of outputs."""
    if workload == "history-ops":
        aux, eval_ts = _history_grid()
        g = fracfun.SampledFunction(aux, aux.copy())
        renewal_csv = os.path.join(outdir, "renewal.csv")
        argv = ["moments", "renewal", "--rho", repr(RENEWAL["rho"]),
                "--kappa", repr(RENEWAL["kappa"]), "--c1", repr(RENEWAL["c1"]),
                "--T", repr(RENEWAL["T"]), "--nt", str(RENEWAL["nt"]),
                "--out", renewal_csv]
        cli.build_parser().parse_args(argv)
        got = {}

        def run():
            code = cli.main(argv)
            integ = fracfun.fractional_integral(g, HISTORY_ORDER, aux[1:])
            lifted = fracfun.SampledFunction(np.concatenate([[0.0], aux[1:]]),
                                             np.concatenate([[0.0], integ]))
            got["integral"] = integ
            got["caputo"] = fracfun.caputo_derivative(lifted, HISTORY_ORDER, eval_ts)
            return code

        def save():
            np.save(os.path.join(outdir, "integral.npy"),
                    np.stack([aux[1:], got["integral"]]))
            np.save(os.path.join(outdir, "caputo.npy"),
                    np.stack([eval_ts, got["caputo"]]))

        return run, save

    command, entries = CONFIGS[workload]
    if workload == "mc-white":
        seed = mc_seed(seed, rep)
    text = _config_text(entries, seed, outdir)
    cli.parse_config_text(text)
    path = os.path.join(outdir, "workload.conf")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return (lambda: cli.main([command, "--config", path])), (lambda: None)


def vm_hwm_mb():
    """Peak RSS of this process's own address space (VmHWM), in MB.

    Unlike ``ru_maxrss`` it is not inherited from the starting process, so it
    cross-checks that the parent's memory did not leak into the metric.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def os_threads():
    """Threads of this process as the OS counts them (BLAS pools included)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rep", type=int, required=True)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--spawned", type=float, default=_STARTED,
                    help="time.monotonic() when run.py started this process")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)

    run, save = setup(args.workload, args.seed, args.rep, args.outdir)
    setup_s = time.monotonic() - args.spawned
    result = {"workload": args.workload, "seed": args.seed, "rep": args.rep,
              "trace": args.trace, "setup_s": setup_s,
              "os_threads_after_setup": os_threads()}
    if not args.setup_only:
        tr = None
        if args.trace:
            import tracer

            tr = tracer.Tracer().install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            code = run()
        finally:
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            if tr is not None:
                tr.restore()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        save()
        result.update(exit_code=code, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_mb,
                      vm_hwm_mb=vm_hwm_mb(), os_threads_at_end=os_threads())
        if tr is not None:
            layers = tracer.layer_metrics(tr.spans, tr.missing)
            layers["process.cpu_s"] = cpu
            result.update(layers=layers, absent=[f"{m}.{a}" for m, a in tr.missing],
                          wrappers_left=len(tracer.installed_wrappers()))
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": scipy.__version__, "fracstorm": fracstorm.__version__}
    result["fracstorm_path"] = os.path.dirname(fracstorm.__file__)
    with open(os.path.join(args.outdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
