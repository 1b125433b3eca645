"""Command-line surface: configuration, artifact emission, validation runner.

Commands and their options
--------------------------
specfun           evaluate the special functions at given points (CSV on
                  stdout; fet writes a row per --t and --x pair):
                  --beta --order --x --u --t --g --grid-n
kernel            Dirichlet kernel slice at one --t, or L2-decay table over
                  every --t (CSV artifact): --config --set --mode --t --y --out
moments renewal   renewal benchmark (CSV artifact):
                  --config --set --rho --kappa --c1 --T --nt --out
moments field     second-moment energy trace on [0, grid.t] with grid.nt
                  steps, sigma(u) = sigma.slope u (CSV artifact):
                  --config --set --out
simulate          Monte Carlo mild-solution run (CSV + JSON artifacts):
                  --config --set --out
excite            lambda sweep of the Volterra second moment of sigma(u) =
                  sigma.slope u, with growth-index fit (CSV + JSON + SVG
                  artifacts): --config --set --out-prefix
validate          run the self-check suite and print the report:
                  --only --seed --threads --out

Every run setting that has a config key is set only through the config.
Configuration files are flat ``key = value`` text with dotted section
prefixes (``model.alpha = 2.0``); '#' starts a comment and blank lines are
ignored.  ``KNOWN_KEYS`` lists the vocabulary with each key's caster and
default, the only place a default is stated, and every key is read by some
command.  Model invariants, run.threads >= 1 and a lambda grid that
np.geomspace can build (ends finite and > 0, excite.count >= 0) are enforced
at parse time with messages quoting the violated condition.  A setting takes
its default from ``KNOWN_KEYS``, then the value in the ``--config`` file,
then each ``--set key=value`` in command-line order, the last one winning.
No environment variable is read.  ``validate`` reads no config; its seed and
thread count are its own flags.

Artifacts, the simulate.ensemble stream among them, are written atomically
(temporary file beside the target, then rename; removed if the run fails)
by this module alone: the library writes no file.  Each records
the run that made it: the command, the flags that change its numbers, and the
config entries except ``run.outdir``, ``run.threads`` and ``simulate.ensemble``,
which change none.  A CSV's one '#' line is ``# fracstorm <version> <JSON>``,
a JSON summary holds the same record under ``"run"``; fields use '.' as the
decimal separator and 17 significant digits.

Exit codes: 0 success, 1 numerical failure, 2 invalid input or domain error.
A refused argument's DomainError message starts with the argument's name, as
in ``T must be a finite number in (0, inf), got T=inf``.  A config value
refused by its key's own rule (not a number or an integer, run.threads < 1,
excite.count < 0, a lambda-grid end not finite and > 0, a string key's
choices or characters, a simulate.ensemble that names no file in an existing
directory) gets a message that starts with ``config key`` and the key.  A
value the library refuses gets the library's message, which names the
library's argument, not the key: ``--set grid.nx=2`` gives ``n must be an
integer in [4, inf), got n=2``, and ``excite --set excite.nt=1`` gives ``nt
must be ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DomainError, NumericsError, integer, number
from .fracfun import (
    SampledFunction,
    caputo_derivative,
    fractional_integral,
    inverse_subordinator_density,
    mittag_leffler,
    stable_subordinator_density,
)
from .params import ModelParams, NoiseModel, SpaceGrid

__all__ = [
    "RunConfig",
    "parse_config_text",
    "serialize_config",
    "csv_text",
    "write_atomic",
    "main",
]


# --------------------------------------------------------------------------
# configuration


def _choice(*options):
    def cast(raw, key):
        if raw not in options:
            raise DomainError(
                f"config key {key} must be one of {', '.join(options)}; got {raw!r}")
        return raw
    return cast


def _int(raw, key):
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"config key {key} expects an integer, got {raw!r}") from None


def _float(raw, key):
    try:
        return float(raw)
    except ValueError:
        raise DomainError(f"config key {key} expects a number, got {raw!r}") from None


def _int_from(low):
    def cast(raw, key):
        value = _int(raw, key)
        if value < low:
            raise DomainError(f"config key {key} must be >= {low}, got {value}")
        return value
    return cast


def _positive(raw, key):
    # a lambda-grid end: np.geomspace takes neither a zero nor an infinite end
    value = _float(raw, key)
    if not 0.0 < value < np.inf:
        raise DomainError(f"config key {key} must be a finite number > 0, got {raw!r}")
    return value


def _str(raw, key):
    # the config text cannot carry a '#' (it starts a comment) or a line break
    if "#" in raw or len(raw.splitlines()) > 1:
        raise DomainError(f"config key {key} cannot hold '#' or a line break, got {raw!r}")
    return raw


#: key -> (caster, default); the whole config vocabulary and the one place
#: a setting's default is stated.  None is no default: the key is unset.
KNOWN_KEYS = {
    "model.alpha": (_float, 2.0),
    "model.beta": (_float, 0.5),
    "model.nu": (_float, 1.0),
    "model.radius": (_float, 1.0),
    "model.lam": (_float, 1.0),
    "noise.kind": (_choice("white", "riesz"), "white"),
    "noise.gamma": (_float, None),
    "grid.nx": (_int, 64),
    "grid.nt": (_int, 128),
    "grid.t": (_float, 0.1),
    "run.seed": (_int, 0),
    "run.outdir": (_str, "."),
    "run.threads": (_int_from(1), 1),
    "sigma.slope": (_float, 1.0),
    "initial.kind": (_choice("bump", "constant", "zero"), "bump"),
    "initial.value": (_float, 1.0),
    "simulate.replicates": (_int, 200),
    "simulate.ensemble": (_str, None),
    "excite.lam_min": (_positive, 1e2),
    "excite.lam_max": (_positive, 1e6),
    "excite.count": (_int_from(0), 13),
    "excite.t": (_float, 0.1),
    "excite.nt": (_int, 192),
    "excite.functional": (_choice("energy", "sup"), "energy"),
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: a sorted tuple of (key, value) pairs.

    Model invariants are checked when the config is parsed; the typed
    accessors below materialize the domain objects on demand.
    """

    entries: tuple

    def get(self, key):
        """The value of ``key``: its entry, else its default in KNOWN_KEYS."""
        for k, v in self.entries:
            if k == key:
                return v
        return KNOWN_KEYS[key][1]

    def params(self):
        noise = NoiseModel(kind=self.get("noise.kind"), gamma=self.get("noise.gamma"))
        return ModelParams(
            alpha=self.get("model.alpha"),
            beta=self.get("model.beta"),
            nu=self.get("model.nu"),
            R=self.get("model.radius"),
            lam=self.get("model.lam"),
            noise=noise,
        )

    def grid(self):
        return SpaceGrid(R=self.params().R, n=self.get("grid.nx"))

    def initial_profile(self, grid):
        kind = self.get("initial.kind")
        amp = self.get("initial.value")
        if kind == "bump":
            return amp * np.cos(0.5 * np.pi * grid.nodes / grid.R)
        if kind == "constant":
            return amp * np.ones(grid.n)
        return np.zeros(grid.n)


def _parse_line(line, where):
    if "=" not in line:
        raise DomainError(f"config entry {where} is not 'key = value': {line!r}")
    key, raw = line.split("=", 1)
    key, raw = key.strip(), raw.strip()
    if key not in KNOWN_KEYS:
        raise DomainError(
            f"unknown config key {key!r} {where}; known keys: " + ", ".join(sorted(KNOWN_KEYS)))
    return key, KNOWN_KEYS[key][0](raw, key)


def parse_config_text(text):
    """Parse flat ``key = value`` configuration text into a RunConfig.

    Duplicate keys are an error; every model invariant is enforced here so
    a bad parameter set fails at parse time with an actionable message.
    """
    pairs = {}
    for lineno, line in enumerate(str(text).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _parse_line(line, f"on line {lineno}")
        if key in pairs:
            raise DomainError(f"duplicate config key {key!r} on line {lineno}")
        pairs[key] = value
    cfg = RunConfig(entries=tuple(sorted(pairs.items())))
    cfg.params()  # enforce model invariants now
    return cfg


def serialize_config(cfg):
    """Canonical text form: sorted ``key = value`` lines; reparses equal."""
    lines = [f"{k} = {v}" for k, v in cfg.entries]  # str of a float is its repr
    return "\n".join(lines) + "\n"


def _apply_overrides(cfg, sets):
    pairs = dict(cfg.entries)
    for item in sets or ():
        key, value = _parse_line(item, f"in --set {item}")
        pairs[key] = value
    cfg = RunConfig(entries=tuple(sorted(pairs.items())))
    cfg.params()
    return cfg


def _load_config(args):
    cfg = RunConfig(entries=())
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            raise DomainError(f"config file not found: {args.config}") from None
        cfg = parse_config_text(text)
    return _apply_overrides(cfg, getattr(args, "set", None))


# --------------------------------------------------------------------------
# artifact emission


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    s = str(v)
    if any(c in s for c in ",\"\r\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_text(columns, rows, record):
    """RFC-4180-style CSV: comment line, header row, CRLF line endings.

    The comment line is ``# fracstorm <version> <record>``, the run record
    as compact JSON with sorted keys: one line whatever its strings hold,
    floats written exactly, so ``json.loads`` of the rest gives it back.
    """
    record = json.dumps(record, sort_keys=True, separators=(",", ":"))
    lines = [f"# fracstorm {__version__} {record}", ",".join(columns)]
    # one %-format per row: a column of floats only is written by %.17g
    # (the bytes of _csv_cell), any other column is formatted cell by cell
    cells = list(zip(*rows, strict=True))
    floats = [all(issubclass(t, (float, np.floating)) for t in set(map(type, col)))
              for col in cells]
    fmt = ",".join("%.17g" if f else "%s" for f in floats)
    cells = [col if f else [_csv_cell(v) for v in col] for col, f in zip(cells, floats)]
    lines += map(fmt.__mod__, zip(*cells))
    return "\r\n".join(lines) + "\r\n"


@contextmanager
def _replacing(path):
    """A binary file that becomes ``path`` when the block ends and is removed
    when it raises: written as a temporary file beside it, then renamed."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".{os.path.basename(path)}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_atomic(path, text):
    """Write text to ``path`` as UTF-8 via a temporary file and an atomic
    rename, making its directory if it is missing."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def _run_record(args, cfg=None):
    """The run that makes an artifact: command, number-changing flags, config."""
    skip_flags = ("func", "command", "what", "config", "set", "out", "out_prefix")
    skip_keys = ("run.outdir", "run.threads", "simulate.ensemble")
    return {"command": " ".join(filter(None, (args.command, getattr(args, "what", None)))),
            "flags": {k: v for k, v in vars(args).items()
                      if k not in skip_flags and v is not None},
            "config": {k: v for k, v in (cfg.entries if cfg else ()) if k not in skip_keys}}


def _json_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# specfun


def _float_list(raw):
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {raw!r}")


_TEST_FUNCTIONS = {
    "one": lambda t: np.ones_like(t),
    "t": lambda t: t,
    "t2": lambda t: t ** 2,
    "sin": np.sin,
}


def _require(args, names, command):
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise DomainError(f"{command} requires {', '.join(missing)}")


def _sampled_test_function(name, horizon, n):
    times = np.linspace(0.0, horizon, integer("--grid-n", n, 1) + 1)
    return SampledFunction(times=times, values=_TEST_FUNCTIONS[name](times))


def cmd_specfun(args):
    what = args.what
    if what == "ml":
        _require(args, ["beta", "x"], "specfun ml")
        rows = [[args.beta, x, mittag_leffler(args.beta, x)] for x in args.x]
        cols = ["beta", "x", "value"]
    elif what == "gsub":
        _require(args, ["beta", "u"], "specfun gsub")
        rows = [[args.beta, u, stable_subordinator_density(args.beta, u)]
                for u in args.u]
        cols = ["beta", "u", "value"]
    elif what == "fet":
        _require(args, ["beta", "t", "x"], "specfun fet")
        rows = [[args.beta, t, x, inverse_subordinator_density(args.beta, t, x)]
                for t in args.t for x in args.x]
        cols = ["beta", "t", "x", "value"]
    elif what == "caputo":
        _require(args, ["beta", "t"], "specfun caputo")
        g = _sampled_test_function(args.g, max(args.t), args.grid_n)
        rows = [[args.beta, args.g, t, caputo_derivative(g, args.beta, t)]
                for t in args.t]
        cols = ["beta", "g", "t", "value"]
    else:  # fracint
        _require(args, ["order", "t"], "specfun fracint")
        g = _sampled_test_function(args.g, max(args.t), args.grid_n)
        rows = [[args.order, args.g, t, fractional_integral(g, args.order, t)]
                for t in args.t]
        cols = ["order", "g", "t", "value"]
    sys.stdout.write(csv_text(cols, rows, _run_record(args)))
    return 0


# --------------------------------------------------------------------------
# kernel


def _eigen_from(cfg):
    from .kernels import build_discrete_generator, eigen_system

    p = cfg.params()
    grid = cfg.grid()
    return p, grid, eigen_system(build_discrete_generator(p, grid), grid)


def cmd_kernel(args):
    from .kernels import dirichlet_fractional_kernel, free_kernel_l2, green_l2_constant

    cfg = _load_config(args)
    p, grid, es = _eigen_from(cfg)
    times = args.t if args.t else [cfg.get("grid.t")]
    out = args.out or os.path.join(cfg.get("run.outdir"), "kernel.csv")
    record = _run_record(args, cfg)
    if args.mode == "slice":
        if len(times) != 1:
            raise DomainError(f"kernel --mode slice takes one --t, got {len(times)}")
        t, y = times[0], number("--y", args.y, -p.R, p.R)
        G = dirichlet_fractional_kernel(es, p.beta, t)
        j = int(np.argmin(np.abs(grid.nodes - y)))
        rows = [[x, G[i, j]] for i, x in enumerate(grid.nodes)]
        write_atomic(out, csv_text(["x", "kernel"], rows, record))
        print(f"kernel slice at t={t:g}, y={grid.nodes[j]:g}: "
              f"peak {float(G[:, j].max()):.6g} -> {out}")
    else:
        const = green_l2_constant(p)
        expo = -p.beta / p.alpha
        rows, worst = [], 0.0
        for t in times:
            integral = free_kernel_l2(p, t)
            law = const * t ** expo
            worst = max(worst, abs(integral / law - 1.0))
            rows.append([t, integral, law])
        write_atomic(out, csv_text(["t", "integral", "law"], rows, record))
        print(f"kernel L2 decay over {len(times)} times: "
              f"max deviation from the power law {worst:.3e} -> {out}")
    return 0


# --------------------------------------------------------------------------
# moments


def cmd_renewal(args):
    from .moments import renewal_growth_exponent, renewal_volterra_solve

    cfg = _load_config(args)
    _require(args, ["rho", "kappa", "c1", "T"], "moments renewal")
    f = renewal_volterra_solve(args.c1, args.kappa, args.rho, args.T, args.nt)
    out = args.out or os.path.join(cfg.get("run.outdir"), "renewal.csv")
    rate = renewal_growth_exponent(args.kappa, args.rho)
    rows = list(zip(f.times.tolist(), f.values.tolist()))
    write_atomic(out, csv_text(["t", "f"], rows, _run_record(args, cfg)))
    print(f"renewal f({args.T:g}) = {float(f.values[-1]):.10g} "
          f"(growth-rate scale {rate:.6g}) -> {out}")
    return 0


def cmd_field(args):
    from .moments import second_moment_colored, second_moment_white

    cfg = _load_config(args)
    p, grid, es = _eigen_from(cfg)
    u0 = cfg.initial_profile(grid)
    T, nt = cfg.get("grid.t"), cfg.get("grid.nt")
    solve = second_moment_white if p.noise.kind == "white" else second_moment_colored
    field = solve(p, es, u0, cfg.get("sigma.slope"), T, nt)
    logs = [field.energy_log(j) for j in range(len(field.times))]
    out = args.out or os.path.join(cfg.get("run.outdir"), "moments.csv")
    rows = list(zip(field.times.tolist(), logs))
    write_atomic(out, csv_text(["t", "log_energy"], rows, _run_record(args, cfg)))
    print(f"second-moment energy trace on [0, {T:g}], nt={nt}: "
          f"log E_t(T) = {logs[-1]:.6g} -> {out}")
    return 0


# --------------------------------------------------------------------------
# simulate


def cmd_simulate(args):
    from .simulate import SigmaSpec, SimConfig, simulate_mild

    cfg = _load_config(args)
    ensemble = cfg.get("simulate.ensemble")
    if ensemble is not None:
        folder = os.path.dirname(ensemble) or "."
        if not os.path.isdir(folder):
            raise DomainError(f"config key simulate.ensemble names a file in the missing "
                              f"directory {folder!r}")
        if not os.path.basename(ensemble) or os.path.isdir(ensemble):
            raise DomainError(f"config key simulate.ensemble must name a file, got {ensemble!r}")
    p, grid, es = _eigen_from(cfg)
    u0 = cfg.initial_profile(grid)
    threads = cfg.get("run.threads")
    sim = SimConfig(
        nt=cfg.get("grid.nt"),
        T=cfg.get("grid.t"),
        replicates=cfg.get("simulate.replicates"),
        seed=cfg.get("run.seed"),
        sigma=SigmaSpec(slope=cfg.get("sigma.slope")),
    )
    with nullcontext() if ensemble is None else _replacing(ensemble) as stream:
        est = simulate_mild(p, es, u0, sim, threads=threads, ensemble=stream)
    energy = float(est.mean[-1].sum() * grid.h)
    out = args.out or os.path.join(cfg.get("run.outdir"), "simulate.csv")
    rows = [[x, m, s] for x, m, s in zip(grid.nodes, est.mean[-1], est.stderr[-1])]
    record = _run_record(args, cfg)
    write_atomic(out, csv_text(["x", "second_moment", "stderr"], rows, record))
    summary = {
        "command": "simulate",
        "version": __version__,
        "seed": sim.seed,
        "threads": threads,
        "grid": {"nx": grid.n, "nt": sim.nt, "T": sim.T},
        "replicates_requested": sim.replicates,
        "replicates_used": est.replicates_used,
        "blowups": est.blowups,
        "final_time_energy": energy,
        "run": record,
        "artifacts": {"csv": out},
    }
    jout = os.path.splitext(out)[0] + ".json"
    write_atomic(jout, _json_text(summary))
    print(f"simulate: {est.replicates_used} replicates ({est.blowups} blowups), "
          f"final-time energy {energy:.6g} -> {out}, {jout}")
    return 0


# --------------------------------------------------------------------------
# excite


def cmd_excite(args):
    from .charts import render_excitation_svg
    from .excitation import excitation_sweep

    cfg = _load_config(args)
    p, grid, es = _eigen_from(cfg)
    u0 = cfg.initial_profile(grid)
    lambdas = np.geomspace(cfg.get("excite.lam_min"), cfg.get("excite.lam_max"),
                           cfg.get("excite.count"))
    fit = excitation_sweep(p, es, u0, cfg.get("excite.t"), lambdas,
                           functional=cfg.get("excite.functional"),
                           nt=cfg.get("excite.nt"), l_sigma=cfg.get("sigma.slope"))
    dev = fit.slope / fit.theory - 1.0
    verdict = ("PASS" if abs(dev) <= 0.10 else "FAIL") + " ±10%"
    prefix = args.out_prefix or os.path.join(cfg.get("run.outdir"), "excite")
    csv_path, json_path, svg_path = (prefix + ext for ext in (".csv", ".json", ".svg"))
    rows = [[lam, lv, int(m)]
            for lam, lv, m in zip(fit.lambdas, fit.log_values, fit.fit_mask)]
    record = _run_record(args, cfg)
    write_atomic(csv_path, csv_text(["lam", "log_value", "fitted"], rows, record))
    summary = {
        "command": "excite",
        "version": __version__,
        "seed": cfg.get("run.seed"),
        "method": "volterra",
        "functional": fit.functional,
        "t": fit.t,
        "slope": fit.slope,
        "theory": fit.theory,
        "relative_deviation": dev,
        "verdict": verdict,
        "lambda": [float(v) for v in fit.lambdas],
        "log_value": [float(v) for v in fit.log_values],
        "fit_mask": [bool(v) for v in fit.fit_mask],
        "residuals": [float(v) for v in fit.residuals],
        "run": record,
        "artifacts": {"csv": csv_path, "svg": svg_path},
    }
    write_atomic(json_path, _json_text(summary))
    write_atomic(svg_path, render_excitation_svg(fit))
    print(f"excite: slope {fit.slope:.7g} vs theory {fit.theory:.7g} "
          f"({dev:+.2%}) {verdict} -> {csv_path}, {json_path}, {svg_path}")
    return 0


# --------------------------------------------------------------------------
# validate


def cmd_validate(args):
    from .validate import format_report, run_validation

    try:
        results = run_validation(only=args.only, seed=args.seed, threads=args.threads)
    except DomainError as exc:    # it names the argument first, and its flag has that name
        raise DomainError(f"--{exc}") from exc
    report = format_report(results, seed=args.seed, only=args.only)
    print(report)
    if args.out:
        write_atomic(args.out, report + "\n")
    return 0 if all(r.passed for r in results) else 1


# --------------------------------------------------------------------------
# parser


def _add_config_flags(sp):
    sp.add_argument("--config", help="path to a key = value configuration file")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override one config entry; repeatable, applied after the "
                         "file in order, the last one winning")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracstorm",
        description="Fractional stochastic heat equation toolkit: special "
                    "functions, Dirichlet kernels, moment solvers, Monte "
                    "Carlo simulation, and noise-excitation sweeps.")
    parser.add_argument("--version", action="version",
                        version=f"fracstorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("specfun", help="evaluate special functions (CSV on stdout)")
    sp.add_argument("what", choices=["ml", "gsub", "fet", "caputo", "fracint"])
    sp.add_argument("--beta", type=float, help="fractional order in (0, 1)")
    sp.add_argument("--order", type=float, help="integral order in (0, 1]")
    sp.add_argument("--x", type=_float_list, help="evaluation point(s), comma-separated")
    sp.add_argument("--u", type=_float_list, help="density argument(s), comma-separated")
    sp.add_argument("--t", type=_float_list, help="time point(s), comma-separated")
    sp.add_argument("--g", choices=sorted(_TEST_FUNCTIONS), default="t",
                    help="named test function for caputo/fracint")
    sp.add_argument("--grid-n", type=int, default=512,
                    help="sample count for the test function")
    sp.set_defaults(func=cmd_specfun)

    kp = sub.add_parser("kernel", help="Dirichlet kernel artifacts")
    _add_config_flags(kp)
    kp.add_argument("--mode", choices=["slice", "l2"], default="slice")
    kp.add_argument("--t", type=_float_list, help="time(s), comma-separated")
    kp.add_argument("--y", type=float, default=0.0, help="source point for slice mode")
    kp.add_argument("--out", help="output CSV path")
    kp.set_defaults(func=cmd_kernel)

    mp = sub.add_parser("moments", help="moment solvers")
    msub = mp.add_subparsers(dest="what", required=True)
    rp = msub.add_parser("renewal", help="renewal benchmark (CSV artifact)")
    _add_config_flags(rp)
    rp.add_argument("--rho", type=float, help="renewal kernel exponent, in (0, 1]")
    rp.add_argument("--kappa", type=float, help="renewal kernel weight")
    rp.add_argument("--c1", type=float, help="renewal forcing constant")
    rp.add_argument("--T", type=float, help="time horizon")
    rp.add_argument("--nt", type=int, default=16384, help="time steps (default 16384)")
    rp.add_argument("--out", help="output CSV path")
    rp.set_defaults(func=cmd_renewal)
    text = ("second-moment energy trace on [0, grid.t] with grid.nt steps; "
            "sigma.slope sets sigma(u) = sigma.slope u")
    fp = msub.add_parser("field", help=text, description=text)
    _add_config_flags(fp)
    fp.add_argument("--out", help="output CSV path")
    fp.set_defaults(func=cmd_field)

    text = ("Monte Carlo mild-solution run; grid.nt, grid.t, run.seed, run.threads "
            "and simulate.* come from the config")
    xp = sub.add_parser("simulate", help=text, description=text)
    _add_config_flags(xp)
    xp.add_argument("--out", help="output CSV path")
    xp.set_defaults(func=cmd_simulate)

    text = ("lambda sweep of the Volterra second moment and growth-index fit; excite.* "
            "and sigma.slope come from the config")
    ep = sub.add_parser("excite", help=text, description=text)
    _add_config_flags(ep)
    ep.add_argument("--out-prefix", help="artifact path prefix (.csv/.json/.svg)")
    ep.set_defaults(func=cmd_excite)

    vp = sub.add_parser("validate", help="run the self-check suite")
    vp.add_argument("--only", help="restrict to one check group")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--threads", type=int, default=1, help="worker threads (>= 1)")
    vp.add_argument("--out", help="also write the report to this path")
    vp.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"fracstorm: error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"fracstorm: numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
