"""Command-line interface: config parsing, artifact contracts, exit codes."""

import argparse
import ast
import csv
import glob
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fracstorm import __version__, cli
from fracstorm.errors import DomainError

CONFIG_TEXT = """\
# sample configuration
model.alpha = 2.0
model.beta = 0.5        # trailing comment
noise.kind = riesz
noise.gamma = 0.5

grid.nx = 16
grid.nt = 8
grid.t = 0.05
run.seed = 11
"""


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# config parsing


def test_config_round_trip():
    cfg = cli.parse_config_text(CONFIG_TEXT)
    text = cli.serialize_config(cfg)
    again = cli.parse_config_text(text)
    assert cfg == again
    assert cli.serialize_config(again) == text
    p = cfg.params()
    assert p.alpha == 2.0 and p.beta == 0.5 and p.noise.kind == "riesz"
    assert cfg.grid().n == 16
    assert cfg.get("run.seed") == 11


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
_FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_PLAIN_TEXT = st.text(st.sampled_from("abc/_.-0189"), min_size=1, max_size=12)


@st.composite
def _valid_config_entries(draw):
    """A key -> value dict that satisfies every model invariant."""
    alpha = draw(st.floats(min_value=0.05, max_value=2.0))
    beta = draw(st.floats(min_value=0.05, max_value=1.0))
    entries = {"model.alpha": alpha, "model.beta": beta}
    if draw(st.booleans()):
        gamma = draw(st.floats(min_value=0.0, max_value=min(alpha, 1.0),
                               exclude_min=True, exclude_max=True))
        entries.update({"noise.kind": "riesz", "noise.gamma": gamma})
    else:
        assume(1.0 < min(2.0, 1.0 / beta) * alpha)
        if draw(st.booleans()):
            entries["noise.kind"] = "white"
    optional = {
        "model.nu": _POSITIVE, "model.radius": _POSITIVE,
        "model.lam": st.floats(min_value=0.0, max_value=1e6),
        "grid.nx": st.integers(4, 4096), "grid.nt": st.integers(-10, 10 ** 6),
        "grid.t": _FINITE, "run.seed": st.integers(0, 2 ** 63),
        "run.outdir": _PLAIN_TEXT, "run.threads": st.integers(1, 64),
        "sigma.slope": _FINITE,
        "initial.kind": st.sampled_from(["bump", "constant", "zero"]),
        "initial.value": _FINITE, "simulate.replicates": st.integers(2, 10 ** 6),
        "simulate.ensemble": _PLAIN_TEXT, "excite.lam_min": _FINITE_POSITIVE,
        "excite.lam_max": _FINITE_POSITIVE, "excite.count": st.integers(0, 100),
        "excite.t": _FINITE, "excite.nt": st.integers(2, 4096),
        "excite.functional": st.sampled_from(["energy", "sup"]),
    }
    for key in draw(st.sets(st.sampled_from(sorted(optional)))):
        entries[key] = draw(optional[key])
    return entries


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(entries=_valid_config_entries(), data=st.data())
def test_config_round_trip_over_generated_configs(entries, data):
    # Any key order, spacing and trailing comments parse to the same sorted
    # entries with the same types and values (floats exactly, through repr),
    # and the canonical text reparses equal and is a fixed point.
    keys = data.draw(st.permutations(sorted(entries)))
    pad = data.draw(st.sampled_from(["", " ", "  "]))
    lines = ["# generated"]
    for i, k in enumerate(keys):
        v = entries[k]
        lines.append(f"{pad}{k}{pad}={pad}{repr(v) if isinstance(v, float) else v}"
                     + ("  # note" if i % 2 else ""))
    text = "\n".join(lines) + "\n"
    cfg = cli.parse_config_text(text)
    assert cfg.entries == tuple(sorted(entries.items()))
    assert all(type(v) is type(entries[k]) for k, v in cfg.entries)
    canonical = cli.serialize_config(cfg)
    again = cli.parse_config_text(canonical)
    assert again == cfg and cli.serialize_config(again) == canonical


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(["run.outdir", "simulate.ensemble"]), value=st.text(max_size=12))
def test_text_overrides_reparse_equal_or_are_refused(key, value):
    # A --set text value survives the canonical config text unchanged, or is
    # refused by name: a '#' or a line break has no spelling in that text.
    try:
        cfg = cli._apply_overrides(cli.RunConfig(entries=()), [f"{key}={value}"])
    except DomainError as exc:
        assert key in str(exc)
        assert "#" in value or len(value.strip().splitlines()) > 1
        return
    assert cli.parse_config_text(cli.serialize_config(cfg)) == cfg


def test_override_with_a_hash_exits_2(tmp_path, monkeypatch, capsys):
    # runs#2 would be written back as runs, so the override is refused
    monkeypatch.chdir(tmp_path)
    code, _, err = run_main(["excite", "--set", "run.outdir=runs#2"], capsys)
    assert code == 2 and "run.outdir" in err
    assert os.listdir(tmp_path) == []


#: model key -> values that break its invariant (base: alpha 2, beta 0.5,
#: white noise; gamma with riesz noise)
_BROKEN_MODEL_VALUES = {
    "model.alpha": st.one_of(st.floats(max_value=0.0), st.floats(min_value=2.0, exclude_min=True),
                             st.sampled_from([math.nan, math.inf])),
    "model.beta": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True),
                            st.sampled_from([math.nan, math.inf])),
    "model.nu": st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])),
    "model.radius": st.one_of(st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])),
    "model.lam": st.one_of(st.floats(max_value=0.0, exclude_max=True),
                           st.sampled_from([math.nan, math.inf])),
    "noise.gamma": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0),
                             st.sampled_from([math.nan, math.inf])),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_config_rejects_each_broken_model_field(data):
    key = data.draw(st.sampled_from(sorted(_BROKEN_MODEL_VALUES)))
    value = data.draw(_BROKEN_MODEL_VALUES[key])
    base = "noise.kind = riesz\n" if key == "noise.gamma" else ""
    with pytest.raises(DomainError):
        cli.parse_config_text(f"{base}{key} = {value!r}\n")


def test_config_rejects_unknown_key():
    with pytest.raises(DomainError, match="^unknown config key 'model.omega' on line 1;"):
        cli.parse_config_text("model.omega = 3\n")


def test_config_rejects_duplicate_key():
    with pytest.raises(DomainError, match="duplicate"):
        cli.parse_config_text("model.alpha = 2\nmodel.alpha = 1.5\n")


def test_config_rejects_malformed_line():
    with pytest.raises(DomainError, match="^config entry on line 2 is not 'key = value'"):
        cli.parse_config_text("# a comment\nmodel.alpha 2.0\n")


def test_malformed_override_exits_2_naming_it(tmp_path, capsys):
    # an override has no line: its error quotes the --set item
    code, _, err = run_main(["excite", "--set", f"run.outdir={tmp_path}",
                             "--set", "model.alpha"], capsys)
    assert code == 2 and "config entry in --set model.alpha is not 'key = value'" in err
    assert os.listdir(tmp_path) == []


def test_config_rejects_bad_value():
    with pytest.raises(DomainError):
        cli.parse_config_text("model.alpha = fast\n")
    with pytest.raises(DomainError):
        cli.parse_config_text("noise.kind = pink\n")


def test_config_enforces_model_invariants_at_parse_time():
    # alpha=0.5 with gamma=0.8 violates 0 < gamma < min(alpha, d = 1).
    with pytest.raises(DomainError, match="min"):
        cli.parse_config_text(
            "model.alpha = 0.5\nnoise.kind = riesz\nnoise.gamma = 0.8\n")


@pytest.mark.parametrize("key", ["model.d", "sigma.kind"])
def test_config_refuses_deleted_keys(key, tmp_path, capsys):
    # d is fixed at 1 (the interval) and sigma is linear: neither is a setting
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = {'1' if key == 'model.d' else 'linear'}\n")
    code, _, err = run_main(["simulate", "--config", str(cfg)], capsys)
    assert code == 2 and "unknown config key" in err and key in err


@pytest.mark.parametrize("argv, start", [
    (["simulate", "--set", "run.threads=0"], "config key run.threads must be >= 1, got 0"),
    (["simulate", "--set", "grid.nx=2"], "n must be an integer in [4, inf), got n=2"),
    (["excite", "--set", "excite.nt=1"], "nt must be an integer in [2, inf), got nt=1"),
], ids=["key-rule", "library-grid", "library-sweep"])
def test_refused_config_value_names_its_key_or_the_library_argument(argv, start, tmp_path,
                                                                     capsys):
    # a key's own rule names the key; a value the library refuses gets the
    # library's message, which names the library's argument
    code, _, err = run_main(argv + ["--set", f"run.outdir={tmp_path}"], capsys)
    assert code == 2 and err.startswith(f"fracstorm: error: {start}")
    assert os.listdir(tmp_path) == []


# --------------------------------------------------------------------------
# CSV / atomic writes


def _header_record(line):
    """The run record on a CSV's comment line, ``# fracstorm <version> <JSON>``."""
    head = f"# fracstorm {__version__} "
    assert line.startswith(head)
    return json.loads(line[len(head):])


def test_csv_text_contract():
    record = {"command": "excite", "flags": {}, "config": {"model.lam": 1.23456789}}
    text = cli.csv_text(["lam", "value"], [[1.0, 2.0 / 3.0]], record)
    lines = text.split("\r\n")
    assert text.endswith("\r\n") and "\n" not in text.replace("\r\n", "")
    assert lines[0] == (f"# fracstorm {__version__} "
                        '{"command":"excite","config":{"model.lam":1.23456789},"flags":{}}')
    assert lines[1] == "lam,value"
    assert lines[2] == "1," + format(2.0 / 3.0, ".17g")


def test_csv_text_quotes_special_strings():
    tricky = 'comma, quote " and\nnewline'
    record = {"command": "specfun ml", "flags": {"g": tricky}, "config": {}}
    head, body = cli.csv_text(["name", "n"], [[tricky, 3]], record).split("\r\n", 1)
    assert _header_record(head) == record  # the record stays on its one line
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0] == ["name", "n"]
    assert rows[1] == [tricky, "3"]


_SPECIAL_FLOATS = st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                                   -2.5e-310, 1e308, 0.1])
_CSV_FLOATS = st.one_of(
    _SPECIAL_FLOATS, st.floats(),
    st.one_of(_SPECIAL_FLOATS, st.floats()).map(np.float64),
    st.floats(width=32).map(np.float32))
_CSV_OTHERS = st.one_of(
    st.integers(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.sampled_from([10 ** 17 + 1, -2 ** 70, np.int64(2 ** 63 - 1)]),
    st.booleans(), st.booleans().map(np.bool_),
    st.text(max_size=8), st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\r", "%s %d"]))
_CSV_COLUMN = st.sampled_from([_CSV_FLOATS, _CSV_OTHERS, st.one_of(_CSV_FLOATS, _CSV_OTHERS)])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_text_is_the_per_cell_join(data):
    # a column of floats only takes the one-%-format route, any other column
    # goes cell by cell; both must give the bytes of _csv_cell
    kinds = data.draw(st.lists(_CSV_COLUMN, min_size=1, max_size=4))
    rows = data.draw(st.lists(st.tuples(*kinds).map(list), max_size=6))
    columns = [f"c{i}" for i in range(len(kinds))]
    record = {"command": "test", "flags": {}, "config": {}}
    expect = cli.csv_text(columns, [], record) + "".join(
        ",".join(cli._csv_cell(v) for v in row) + "\r\n" for row in rows)
    assert cli.csv_text(columns, rows, record) == expect


def test_write_atomic_leaves_only_the_target(tmp_path):
    target = tmp_path / "a" / "out.csv"
    cli.write_atomic(str(target), "x\r\n1\r\n")
    assert target.read_bytes() == b"x\r\n1\r\n"  # CRLF preserved on disk
    assert os.listdir(tmp_path / "a") == ["out.csv"]


# --------------------------------------------------------------------------
# exit codes and literal outputs


def test_specfun_ml_literal_row(capsys):
    code, out, _ = run_main(["specfun", "ml", "--beta", "1", "--x", "1"], capsys)
    assert code == 0
    lines = out.split("\r\n")
    assert lines[1] == "beta,x,value"
    assert lines[2] == "1,1,2.7182818284590451"


def test_specfun_rejects_out_of_range_order(capsys):
    code, _, err = run_main(["specfun", "ml", "--beta", "1.5", "--x", "0"], capsys)
    assert code == 2
    assert err.startswith("fracstorm: error:")


def test_specfun_missing_flag_is_domain_error(capsys):
    for argv, flag in ((["ml", "--beta", "1"], "--x"), (["gsub", "--beta", "0.5"], "--u"),
                       (["caputo", "--beta", "0.5"], "--t"), (["fracint", "--t", "1"], "--order")):
        code, _, err = run_main(["specfun"] + argv, capsys)
        assert code == 2 and f"specfun {argv[0]} requires {flag}" in err, argv


def test_specfun_fet_writes_a_row_per_t_and_x(capsys):
    # at beta = 1/2, E_t is half-normal: density e^(-x^2/(4t)) / sqrt(pi t)
    code, out, _ = run_main(["specfun", "fet", "--beta", "0.5", "--t", "1,2",
                             "--x", "0.5,1.5"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.split("\r\n")[2:-1]]
    assert [(float(t), float(x)) for _, t, x, _ in rows] == [
        (1.0, 0.5), (1.0, 1.5), (2.0, 0.5), (2.0, 1.5)]
    for _, t, x, value in rows:
        exact = math.exp(-float(x) ** 2 / (4.0 * float(t))) / math.sqrt(math.pi * float(t))
        assert float(value) == pytest.approx(exact, rel=1e-12)


def test_specfun_fet_at_tiny_x_writes_the_limit(capsys):
    # (t/beta) x^(-1-1/beta) overflows at x = 1e-120: the row was nan
    code, out, _ = run_main(["specfun", "fet", "--beta", "0.5", "--t", "1", "--x", "1e-120"],
                            capsys)
    assert code == 0
    value = float(out.split("\r\n")[2].split(",")[-1])
    assert value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("argv, exact", [
    # L1 is exact on linear data: D^(1/2) t = t^(1/2) / Gamma(3/2)
    (["caputo", "--g", "t", "--beta", "0.5", "--t", "1"], 1.0 / math.gamma(1.5)),
    # I^(1/2) 1 = t^(1/2) / Gamma(3/2)
    (["fracint", "--g", "one", "--order", "0.5", "--t", "1"], 1.0 / math.gamma(1.5)),
    # the Levy density at beta = 1/2: u^(-3/2) e^(-1/(4u)) / (2 sqrt(pi))
    (["gsub", "--beta", "0.5", "--u", "1"], math.exp(-0.25) / (2.0 * math.sqrt(math.pi)))],
    ids=["caputo", "fracint", "gsub"])
def test_specfun_history_and_density_rows_match_closed_forms(argv, exact, capsys):
    code, out, _ = run_main(["specfun"] + argv, capsys)
    assert code == 0
    rows = out.split("\r\n")[2:-1]
    assert len(rows) == 1
    assert float(rows[0].split(",")[-1]) == pytest.approx(exact, rel=1e-12)


def test_kernel_slice_refuses_more_than_one_time(tmp_path, capsys):
    out = tmp_path / "k.csv"
    code, _, err = run_main(["kernel", "--mode", "slice", "--t", "0.1,0.5",
                             "--set", "grid.nx=8", "--out", str(out)], capsys)
    assert code == 2 and "one --t, got 2" in err
    assert not out.exists()


@pytest.mark.parametrize("y", ["5", "nan"])
def test_kernel_slice_refuses_a_source_point_outside_the_domain(y, tmp_path, capsys):
    # the slice would be the nearest node's, which for a y outside (-R, R) is not y's
    out = tmp_path / "k.csv"
    code, _, err = run_main(["kernel", "--mode", "slice", "--y", y,
                             "--set", "grid.nx=8", "--out", str(out)], capsys)
    assert code == 2 and f"error: --y must be a finite number in (-1, 1), got --y={float(y)}" in err
    assert not out.exists()


@pytest.mark.parametrize("what", [["caputo", "--beta", "0.5"], ["fracint", "--order", "0.5"]],
                         ids=["caputo", "fracint"])
@pytest.mark.parametrize("n", ["0", "-5"])
def test_specfun_grid_n_below_one_exits_2_naming_it(what, n, capsys):
    code, out, err = run_main(["specfun"] + what + ["--t", "1", "--grid-n", n], capsys)
    assert code == 2 and out == ""
    assert f"error: --grid-n must be an integer in [1, inf), got --grid-n={n}" in err


def test_missing_config_file(tmp_path, capsys):
    code, _, err = run_main(
        ["simulate", "--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 2 and "not found" in err


def test_moments_renewal_matches_exponential(tmp_path, capsys):
    out = tmp_path / "renewal.csv"
    code, stdout, _ = run_main(
        ["moments", "renewal", "--rho", "1", "--kappa", "2", "--c1", "1",
         "--T", "3", "--out", str(out)], capsys)
    assert code == 0 and "renewal f(3)" in stdout
    text = out.read_bytes().decode()
    rows = list(csv.reader(io.StringIO(text.split("\r\n", 1)[1])))
    assert rows[0] == ["t", "f"]
    final = float(rows[-1][1])
    # rho=1, kappa=2, c1=1 integrates to exp(2t); f(3) = e^6.
    assert final == pytest.approx(math.exp(6.0), rel=1e-6)


def test_moments_renewal_rejects_nan_rho(tmp_path, capsys):
    code, _, err = run_main(
        ["moments", "renewal", "--rho", "nan", "--kappa", "1", "--c1", "1",
         "--T", "1", "--nt", "64", "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 2 and "rho" in err
    assert not (tmp_path / "r.csv").exists()


def test_validate_only_group_and_byte_determinism(tmp_path, capsys):
    args = ["validate", "--only", "quadrature", "--seed", "0",
            "--out", str(tmp_path / "r1.txt")]
    code1, out1, _ = run_main(args, capsys)
    assert code1 == 0 and "0 failed" in out1
    args[-1] = str(tmp_path / "r2.txt")
    code2, _, _ = run_main(args, capsys)
    assert code2 == 0
    assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()


def test_validate_unknown_group(capsys):
    code, _, err = run_main(["validate", "--only", "astrology"], capsys)
    assert code == 2 and "astrology" in err


# --------------------------------------------------------------------------
# simulate / excite artifact smoke


@pytest.fixture
def sim_config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "model.alpha = 2.0\nmodel.beta = 0.5\n"
        "grid.nx = 16\ngrid.nt = 8\ngrid.t = 0.05\n"
        "run.seed = 1\nrun.outdir = %s\n"
        "simulate.replicates = 8\n" % tmp_path
    )
    return path


def test_simulate_artifacts(sim_config_path, tmp_path, capsys):
    code, out, _ = run_main(
        ["simulate", "--config", str(sim_config_path),
         "--set", "run.seed=5", "--out", str(tmp_path / "sim.csv")], capsys)
    assert code == 0 and "simulate:" in out

    body = (tmp_path / "sim.csv").read_bytes().decode().split("\r\n")
    assert body[1] == "x,second_moment,stderr"
    assert len(body) == 2 + 16 + 1  # comment, header, nx rows, trailing ""

    summary = json.loads((tmp_path / "sim.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["seed"] == 5  # --set override beat the config file
    assert summary["grid"] == {"nx": 16, "nt": 8, "T": 0.05}
    assert summary["replicates_requested"] == 8
    assert summary["replicates_used"] + summary["blowups"] == 8
    assert summary["final_time_energy"] > 0
    assert summary["artifacts"]["csv"] == str(tmp_path / "sim.csv")


def test_excite_artifacts_and_verdict(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "model.alpha = 2.0\nmodel.beta = 0.5\n"
        "grid.nx = 24\ngrid.t = 0.1\nrun.seed = 0\n"
        "excite.lam_min = 1e2\nexcite.lam_max = 1e6\nexcite.count = 13\n"
    )
    prefix = tmp_path / "sweep"
    code, out, _ = run_main(
        ["excite", "--config", str(cfg), "--set", "excite.nt=48",
         "--out-prefix", str(prefix)], capsys)
    assert code == 0 and "slope" in out

    summary = json.loads((prefix.with_suffix(".json")).read_text())
    assert summary["command"] == "excite"
    assert summary["method"] == "volterra"
    assert summary["verdict"] == "PASS ±10%"
    assert abs(summary["relative_deviation"]) <= 0.10
    assert summary["slope"] == pytest.approx(summary["theory"], rel=0.05)
    assert len(summary["lambda"]) == 13 == len(summary["log_value"])

    body = (prefix.with_suffix(".csv")).read_bytes().decode().split("\r\n")
    assert body[1] == "lam,log_value,fitted"
    assert len(body) == 2 + 13 + 1

    svg = (prefix.with_suffix(".svg")).read_text()
    doc = xml.dom.minidom.parseString(svg)
    assert doc.documentElement.tagName == "svg"


@pytest.mark.parametrize("command", ["simulate", "excite"])
def test_csv_header_records_a_sigma_slope_other_than_1(command, sim_config_path, tmp_path,
                                                      capsys):
    records = {}
    for slope in ("1", "3"):
        out = tmp_path / f"slope{slope}"
        dest = (["--out", f"{out}.csv"] if command == "simulate"
                else ["--out-prefix", str(out)])
        code, _, _ = run_main(
            [command, "--config", str(sim_config_path), "--set", f"sigma.slope={slope}",
             "--set", "initial.value=10", "--set", "excite.nt=8"] + dest, capsys)
        assert code == 0
        head = out.with_suffix(".csv").read_bytes().decode().split("\r\n", 1)[0]
        records[slope] = json.loads(out.with_suffix(".json").read_text())["run"]
        assert _header_record(head) == records[slope]
    assert records["1"]["config"].pop("sigma.slope") == 1.0
    assert records["3"]["config"].pop("sigma.slope") == 3.0
    assert records["1"] == records["3"]


def test_simulate_reads_every_run_setting_from_set(sim_config_path, tmp_path, capsys):
    ensemble = tmp_path / "ens.bin"
    code, _, _ = run_main(
        ["simulate", "--config", str(sim_config_path),
         "--set", "simulate.replicates=4", "--set", "grid.nt=6", "--set", "grid.t=0.04",
         "--set", "run.seed=9", "--set", "run.threads=2",
         "--set", f"simulate.ensemble={ensemble}",
         "--out", str(tmp_path / "set.csv")], capsys)
    assert code == 0
    summary = json.loads((tmp_path / "set.json").read_text())
    assert summary["replicates_requested"] == 4
    assert summary["grid"] == {"nx": 16, "nt": 6, "T": 0.04}
    assert summary["seed"] == 9 and summary["threads"] == 2
    assert ensemble.read_bytes().startswith(b"fracstorm-ensemble v1 seed=9 replicates=4 nt=6")


@pytest.mark.parametrize("where, message", [
    ("missing/e.bin", "config key simulate.ensemble names a file in the missing directory"),
    (".", "config key simulate.ensemble must name a file"),
    ("sub/", "config key simulate.ensemble must name a file")])
def test_ensemble_nowhere_to_write_exits_2_before_any_replicate(tmp_path, monkeypatch, capsys,
                                                                where, message):
    (tmp_path / "sub").mkdir()

    def no_replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(sys.modules["fracstorm.simulate"], "_run_chunk", no_replicate)
    code, _, err = run_main(
        ["simulate", "--set", "grid.nx=8", "--set", "grid.nt=8", "--set", "simulate.replicates=4",
         "--set", f"simulate.ensemble={tmp_path}/{where}", "--out", str(tmp_path / "s.csv")],
        capsys)
    assert code == 2
    assert err.startswith(f"fracstorm: error: {message}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_failed_simulate_leaves_no_ensemble(tmp_path, capsys):
    # every replicate blows up at lam = 1e300, so the run fails after the
    # ensemble stream has had its header and records written
    code, _, err = run_main(
        ["simulate", "--set", "model.lam=1e300", "--set", "simulate.replicates=4",
         "--set", "grid.nt=8", "--set", "grid.nx=8",
         "--set", f"simulate.ensemble={tmp_path / 'e.bin'}", "--out", str(tmp_path / "s.csv")],
        capsys)
    assert code == 1 and "only 0 remain" in err
    assert list(tmp_path.iterdir()) == []


def test_excite_reads_t_and_nt_from_set(tmp_path, capsys):
    from fracstorm.excitation import excitation_sweep

    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("grid.nx = 8\ninitial.value = 10\nsigma.slope = 1.5\n")
    prefix = tmp_path / "sweep"
    code, _, _ = run_main(
        ["excite", "--config", str(cfg_path), "--set", "excite.t=0.05", "--set", "excite.nt=12",
         "--out-prefix", str(prefix)], capsys)
    assert code == 0
    summary = json.loads(prefix.with_suffix(".json").read_text())
    assert summary["method"] == "volterra" and summary["t"] == 0.05

    # the logged values are those of a 12-step sweep of the config's sigma
    cfg = cli.parse_config_text(cfg_path.read_text())
    p, grid, es = cli._eigen_from(cfg)
    fit = excitation_sweep(p, es, cfg.initial_profile(grid), 0.05, summary["lambda"],
                           nt=12, l_sigma=cfg.get("sigma.slope"))
    assert summary["log_value"] == fit.log_values.tolist()


# --------------------------------------------------------------------------
# one route per setting


def test_threads_from_set(sim_config_path, tmp_path, capsys):
    for n in (2, 1):
        code, _, _ = run_main(
            ["simulate", "--config", str(sim_config_path), "--set", f"run.threads={n}",
             "--out", str(tmp_path / f"t{n}.csv")], capsys)
        assert code == 0
        assert json.loads((tmp_path / f"t{n}.json").read_text())["threads"] == n


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command", ["simulate", "excite"])
def test_non_finite_initial_value_exits_2(command, value, sim_config_path, tmp_path, capsys):
    code, _, err = run_main(
        [command, "--config", str(sim_config_path), "--set", f"initial.value={value}"], capsys)
    assert code == 2 and "u0 must be finite" in err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("command, key, argument", [
    (["moments", "field"], "grid.t", "T"), (["excite"], "excite.t", "t")],
    ids=["moments-field", "excite"])
def test_non_finite_horizon_exits_2_naming_it(command, key, argument, value, sim_config_path,
                                              tmp_path, capsys):
    code, _, err = run_main(
        command + ["--config", str(sim_config_path), "--set", f"{key}={value}"], capsys)
    assert code == 2 and f"{argument}={value}" in err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("command", ["simulate", "excite"])
def test_threads_zero_exits_2_naming_the_key(command, sim_config_path, tmp_path, capsys):
    code, _, err = run_main(
        [command, "--config", str(sim_config_path), "--set", "run.threads=0"], capsys)
    assert code == 2 and "run.threads" in err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("key, value", [
    ("excite.count", "-1"), ("excite.lam_min", "0"), ("excite.lam_min", "-5"),
    ("excite.lam_min", "-inf"), ("excite.lam_max", "inf"), ("excite.lam_max", "nan")])
def test_lambda_grid_setting_that_geomspace_cannot_take_exits_2(key, value, sim_config_path,
                                                               tmp_path, capsys):
    # refused by name when the config is read, before a grid is built: no
    # traceback, no numpy warning (every warning is an error here), no artifact
    code, _, err = run_main(
        ["excite", "--config", str(sim_config_path), "--set", f"{key}={value}"], capsys)
    assert code == 2 and err.startswith(f"fracstorm: error: config key {key} ")
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("route", ["--set", "--config"])
def test_excite_method_is_an_unknown_key(route, tmp_path, capsys):
    # the sweep's route comes from sigma; there is no setting for it
    path = tmp_path / "method.cfg"
    path.write_text("excite.method = montecarlo\n")
    flags = (["--set", "excite.method=montecarlo"] if route == "--set"
             else ["--config", str(path)])
    code, _, err = run_main(["excite", "--set", f"run.outdir={tmp_path}"] + flags, capsys)
    where = "in --set excite.method=montecarlo" if route == "--set" else "on line 1"
    assert code == 2 and f"unknown config key 'excite.method' {where};" in err
    assert sorted(os.listdir(tmp_path)) == ["method.cfg"]


def test_excite_past_the_closure_range_exits_1_naming_its_lam(tmp_path, capsys):
    # the default grid's top lams pass log E_eta's double range in the
    # newest-cell closure: a numerical failure that names the first of them
    code, _, err = run_main(["excite", "--set", f"run.outdir={tmp_path}",
                             "--set", "excite.lam_max=1e130"], capsys)
    assert code == 1
    assert re.search(r"moment solver at lam=\S+ overflowed: log E_eta of its newest-cell "
                     r"closure is past the double range", err), err
    assert os.listdir(tmp_path) == []


def test_excite_of_a_zero_initial_profile_exits_2_naming_u0(tmp_path, capsys):
    # E_t = 0 at every lambda has no index: a domain error, not the fit's
    # numerical failure; moments field still writes a zero profile's trace
    code, _, err = run_main(["excite", "--set", f"run.outdir={tmp_path}",
                             "--set", "initial.kind=zero"], capsys)
    assert code == 2 and "error: u0 is zero everywhere" in err
    assert os.listdir(tmp_path) == []
    code, _, _ = run_main(["moments", "field", "--set", f"run.outdir={tmp_path}",
                           "--set", "initial.kind=zero", "--set", "grid.nx=8"], capsys)
    assert code == 0 and os.listdir(tmp_path) == ["moments.csv"]


def test_validate_threads_zero_exits_2(capsys):
    code, _, err = run_main(["validate", "--only", "cli", "--threads", "0"], capsys)
    assert code == 2 and "--threads" in err


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_validate_bad_seed_exits_2_before_any_check(seed, capsys):
    # invalid input, not a failed suite: no check runs and no report prints
    code, out, err = run_main(["validate", "--seed", seed], capsys)
    assert code == 2 and out == ""
    assert err.startswith("fracstorm: error: --seed ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--replicates", "4"], ["simulate", "--nt", "4"],
    ["simulate", "--T", "0.1"], ["simulate", "--seed", "1"],
    ["simulate", "--threads", "1"], ["simulate", "--ensemble", "e.bin"],
    ["excite", "--method", "volterra"], ["excite", "--t", "0.1"],
    ["excite", "--nt", "48"], ["excite", "--threads", "1"],
    ["moments", "field", "--T", "1"], ["moments", "field", "--nt", "8"],
    ["moments", "field", "--l-sigma", "3"],
])
def test_removed_flag_exits_2(argv, capsys):
    # each of these settings has a config key, which is its only route
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_moments_field_reads_grid_t_and_nt(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code, stdout, _ = run_main(
        ["moments", "field", "--set", "grid.nx=8", "--set", "grid.t=0.02",
         "--set", "grid.nt=5", "--out", str(out)], capsys)
    assert code == 0 and "[0, 0.02], nt=5" in stdout
    rows = list(csv.reader(io.StringIO(out.read_text().split("\n", 1)[1])))
    assert rows[0] == ["t", "log_energy"] and len(rows) == 1 + 6
    assert float(rows[-1][0]) == pytest.approx(0.02)


def test_moments_field_reads_the_sigma_slope(tmp_path, capsys):
    # sigma(u) = l u couples the noise as lam l, so slope 3 is lam 3
    logs = {}
    for key in ("sigma.slope", "model.lam"):
        out = tmp_path / f"{key}.csv"
        code, stdout, _ = run_main(
            ["moments", "field", "--set", "grid.nx=8", "--set", "grid.nt=5",
             "--set", f"{key}=3", "--out", str(out)], capsys)
        assert code == 0
        logs[key] = stdout.split("log E_t(T) = ")[1].split()[0]
        assert _header_record(out.read_bytes().decode().split("\r\n", 1)[0]) == {
            "command": "moments field", "flags": {},
            "config": {"grid.nt": 5, "grid.nx": 8, key: 3.0}}
    assert logs["sigma.slope"] == logs["model.lam"] == "-0.438538"


#: one small run of each command that writes a CSV (argv, CSV name); each also
#: sets model.lam and sigma.slope to values that 6 significant digits would round
_RERUNS = {
    "kernel-slice": (["kernel", "--mode", "slice", "--t", "0.03", "--y", "0.25",
                      "--set", "grid.nx=12", "--set", "model.beta=0.7"], "kernel.csv"),
    "renewal": (["moments", "renewal", "--rho", "0.6", "--kappa", "1.23456789",
                 "--c1", "2", "--T", "0.5", "--nt", "64"], "renewal.csv"),
    "field-white": (["moments", "field", "--set", "grid.nx=8", "--set", "grid.nt=6",
                     "--set", "grid.t=0.03"], "moments.csv"),
    "field-riesz": (["moments", "field", "--set", "grid.nx=8", "--set", "grid.nt=6",
                     "--set", "noise.kind=riesz", "--set", "noise.gamma=0.4"], "moments.csv"),
    "simulate": (["simulate", "--set", "grid.nx=8", "--set", "grid.nt=6",
                  "--set", "simulate.replicates=4", "--set", "run.seed=7",
                  "--set", "initial.kind=constant"], "simulate.csv"),
    "excite": (["excite", "--set", "grid.nx=8", "--set", "excite.nt=12",
                "--set", "excite.count=10", "--set", "excite.lam_max=1e5",
                "--set", "excite.t=0.05", "--set", "initial.value=2.5"], "excite.csv"),
}


@pytest.mark.parametrize("name", sorted(_RERUNS))
def test_every_csv_reruns_from_its_own_header(name, tmp_path, capsys):
    argv, csv_name = _RERUNS[name]
    first = tmp_path / "first"
    code, _, _ = run_main(argv + ["--set", "model.lam=1.23456789",
                                  "--set", "sigma.slope=1.00000001",
                                  "--set", f"run.outdir={first}"], capsys)
    assert code == 0
    path = first / csv_name
    lines = path.read_bytes().decode().split("\r\n")
    assert [line for line in lines if line.startswith("#")] == [lines[0]]
    # the benchmark's reader sees every data row (comment, header, rows, "")
    assert np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2).shape[0] == len(lines) - 3

    # rebuild the run from line 1 alone; threads and the output place are free
    record = _header_record(lines[0])
    config = tmp_path / "rerun.cfg"
    config.write_text(cli.serialize_config(
        cli.RunConfig(entries=tuple(sorted(record["config"].items())))))
    again = tmp_path / "again"
    rerun = record["command"].split()
    for dest, value in record["flags"].items():
        rerun += [f"--{dest.replace('_', '-')}",
                  ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    code, _, _ = run_main(rerun + ["--config", str(config), "--set", f"run.outdir={again}",
                                   "--set", "run.threads=2"], capsys)
    assert code == 0
    assert (again / csv_name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("noise", [[], ["--set", "noise.kind=riesz", "--set", "noise.gamma=0.5"]])
def test_volterra_excite_bytes_do_not_depend_on_threads(noise, tmp_path, capsys):
    # excite reads no run.threads: its Volterra sweep batches its lambdas on
    # one thread, so its artifacts are the same bytes
    csvs = []
    for threads in (2, 1):
        out = tmp_path / f"t{threads}"
        code, _, _ = run_main(["excite", "--set", "grid.nx=8", "--set", "excite.nt=12",
                               "--set", "excite.count=10", "--set", "excite.lam_max=1e5",
                               "--set", "excite.t=0.05", "--set", "initial.value=2.5",
                               "--set", f"run.threads={threads}", "--set", f"run.outdir={out}"]
                              + noise, capsys)
        assert code == 0
        csvs.append((out / "excite.csv").read_bytes())
    assert csvs[0] == csvs[1]


def _options(parser, path=()):
    """sub-command path -> its option strings (long form), --help left out."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_options(sub, path + (name,)))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            out.setdefault(" ".join(path), []).append(action.option_strings[-1])
    return out


def test_option_inventory_is_pinned():
    # A setting with a config key is reached through --config/--set only;
    # a new flag that duplicates one has to change this list on purpose.
    assert _options(cli.build_parser()) == {
        "": ["--version"],
        "specfun": ["--beta", "--order", "--x", "--u", "--t", "--g", "--grid-n"],
        "kernel": ["--config", "--set", "--mode", "--t", "--y", "--out"],
        "moments renewal": ["--config", "--set", "--rho", "--kappa", "--c1", "--T",
                            "--nt", "--out"],
        "moments field": ["--config", "--set", "--out"],
        "simulate": ["--config", "--set", "--out"],
        "excite": ["--config", "--set", "--out-prefix"],
        "validate": ["--only", "--seed", "--threads", "--out"],
    }
    assert sum(map(len, _options(cli.build_parser()).values())) == 35
    assert len(cli.KNOWN_KEYS) == 24


@pytest.mark.parametrize("key", sorted(cli.KNOWN_KEYS))
def test_every_default_passes_its_own_caster(key):
    cast, default = cli.KNOWN_KEYS[key]
    if default is not None:
        value = cast(str(default), key)    # str of a float is its repr
        assert type(value) is type(default) and value == default


@pytest.mark.parametrize("argv, csv_name", [
    (["moments", "field"], "moments.csv"), (["kernel"], "kernel.csv"),
    (["simulate"], "simulate.csv"), (["excite"], "excite.csv")],
    ids=["field", "kernel", "simulate", "excite"])
def test_a_bare_run_is_the_run_of_every_default_spelled_out(argv, csv_name, tmp_path,
                                                             monkeypatch, capsys):
    # no command restates a default: the KNOWN_KEYS table is the run that
    # takes none from the config
    spelled = [f"--set={key}={default}"
               for key, (_, default) in sorted(cli.KNOWN_KEYS.items()) if default is not None]
    rows = []
    for name, extra in (("bare", []), ("spelled", spelled)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code, _, _ = run_main(argv + extra, capsys)
        assert code == 0
        lines = (tmp_path / name / csv_name).read_bytes().split(b"\r\n")
        rows.append(lines[1:])
    assert len(rows[0]) > 3 and rows[0] == rows[1]


def test_every_config_key_is_read():
    # a key that no command reads is a dead knob: each one is the literal
    # first argument of some .get(...) call in cli.py
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    read = {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and node.args
            and isinstance(node.args[0], ast.Constant)}
    assert sorted(set(cli.KNOWN_KEYS) - read) == []


def test_python_dash_m_runs_the_command_line(tmp_path):
    # `python -m fracstorm` from a checkout, with only its src/ on the path
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "fracstorm", "kernel", "--help"],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fracstorm kernel ")


# One fresh interpreter runs a small version of each benchmarked command,
# validate's quadrature group (the Fresnel oracle, once scipy's), the kernel
# command's L2 mode and the free-space density (once quad, j0 and a spline),
# then prints the scipy modules it holds: none may load scipy.  The full
# validate run (about 18 s) is left to the source scan below.
_SOLVER_RUNS = """\
import json, sys
from fracstorm import charts, cli, excitation, fracfun, kernels, moments, simulate
import numpy as np

small = ["--set", "grid.nx=24", "--set", "excite.nt=48", "--set", "grid.nt=8",
         "--set", "simulate.replicates=4"]
runs = [
    ["excite", *small, "--out-prefix", "white"],
    ["excite", *small, "--set", "noise.kind=riesz", "--set", "noise.gamma=0.5",
     "--out-prefix", "riesz"],
    ["simulate", *small, "--out", "simulate.csv"],
    ["moments", "renewal", "--rho", "0.5", "--kappa", "1", "--c1", "1", "--T", "1",
     "--out", "renewal.csv"],
    ["validate", "--only", "quadrature"],
    ["kernel", "--mode", "l2", "--set", "model.alpha=1.5", "--t", "0.5,1", "--out", "l2.csv"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
t = np.linspace(0.0, 1.0, 65)
g = fracfun.SampledFunction(times=t, values=t * t)
fracfun.fractional_integral(g, 0.5, t[1:])
fracfun.caputo_derivative(g, 0.5, t[1:])
kernels.stable_density(1.8, 1.0, 1.0, [0.0, 1.0])
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")))
"""


def test_solver_commands_import_no_scipy(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", _SOLVER_RUNS],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    # and no source file names scipy in an import
    for path in glob.glob(os.path.join(src, "fracstorm", "*.py")):
        with open(path) as fh:
            assert not re.search(r"^\s*(import|from)\s+scipy", fh.read(), re.M), path
