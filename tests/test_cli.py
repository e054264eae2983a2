import dataclasses
import json
import math
import os
import subprocess
import sys
import typing

import pytest
from hypothesis import given, settings, strategies as st

import homsim
from homsim.cli import (
    DEFAULT_GRIDS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
    RunConfig,
    _ALL_KEYS,
    _COMMANDS,
    main,
    parse_config,
)
from homsim.model import ParamError, SystemParams

# the CLI key of every SystemParams field but g, the unit
CLI_KEY = {
    "omega": "omega", "delta": "delta", "kappa": "kappa", "gamma_ca": "gamma_ca",
    "gamma_cb": "gamma_cb", "eta": "eta", "lam": "lambda", "phi": "phi", "dt": "dt",
    "t_wait": "T", "t_wait2": "T2", "n_max": "n_max", "adiabatic": "adiabatic",
}
NON_NEGATIVE = ("g", "omega", "kappa", "gamma_ca", "gamma_cb", "t_wait", "t_wait2")
NEGATIVE = st.floats(max_value=-5e-324)
FLOAT_FIELDS = tuple(f for f, t in typing.get_type_hints(SystemParams).items() if t is float)


def _flag(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value).lower()


@st.composite
def non_finite(draw):
    """A NaN or infinite float field; a range check that already rejects the
    value keeps its message."""
    field = draw(st.sampled_from(FLOAT_FIELDS))
    value = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    if field == "eta":
        return field, {field: value}, "eta must lie in [0, 1]"
    if value < 0 and field in NON_NEGATIVE:
        return field, {field: value}, f"{field} must be >= 0"
    if value < 0 and field in ("lam", "dt"):
        return field, {field: value}, f"{field} must be > 0"
    return field, {field: value}, f"{field} must be finite"


@st.composite
def out_of_range(draw):
    """One setting SystemParams rejects: (field, constructor kwargs, message)."""
    if draw(st.booleans()):
        return draw(non_finite())
    field = draw(st.sampled_from(NON_NEGATIVE + ("eta", "lam", "dt", "n_max", "adiabatic",
                                                 "delta")))
    if field in NON_NEGATIVE:
        return field, {field: draw(NEGATIVE)}, f"{field} must be >= 0"
    if field == "eta":
        value = draw(NEGATIVE | st.floats(min_value=1.0, exclude_min=True))
        return field, {field: value}, "eta must lie in [0, 1]"
    if field in ("lam", "dt"):
        return field, {field: draw(st.floats(max_value=0.0))}, f"{field} must be > 0"
    if field == "n_max":
        value = draw(st.integers().filter(lambda n: n not in (1, 2)))
        return field, {field: value}, "n_max must be 1 or 2"
    if field == "adiabatic":
        rate = draw(st.sampled_from(("gamma_ca", "gamma_cb")))
        return field, {"adiabatic": True, rate: draw(st.floats(min_value=5e-324))}, (
            "adiabatic Hamiltonian has no |c> level; spontaneous decay requires adiabatic=False"
        )
    return field, {"adiabatic": True, "delta": draw(st.sampled_from((0.0, -0.0)))}, (
        "delta must be nonzero: the adiabatic Hamiltonian divides by it"
    )


@settings(max_examples=300, deadline=None)
@given(out_of_range())
def test_out_of_range_value_names_its_field(case):
    field, kwargs, message = case
    with pytest.raises(ParamError) as err:
        SystemParams(**kwargs)
    assert err.value.field == field
    assert str(err.value) == message
    if field == "g":
        return
    overrides = {CLI_KEY[f]: _flag(v) for f, v in kwargs.items()}
    with pytest.raises(ConfigError) as err:
        parse_config("entangle-sweep", overrides=overrides)
    assert str(err.value) == f"value out of range for key '{CLI_KEY[field]}': {message}"


# a valid value for every CLI physics key, none of them the key's default
GIVEN = {
    "omega": 2.5, "delta": 7.0, "kappa": 3.5, "gamma_ca": 0.25, "gamma_cb": 0.125,
    "eta": 0.5, "lambda": 2.0, "phi": 1.25, "dt": 0.02, "T": 40.0, "T2": 300.0,
    "n_max": 2, "adiabatic": False,
}


@pytest.mark.parametrize("field", sorted(CLI_KEY))
def test_physics_key_lands_in_its_field(field):
    assert set(CLI_KEY) == {f.name for f in dataclasses.fields(SystemParams)} - {"g"}
    key = CLI_KEY[field]
    value = GIVEN[key]
    cfg = parse_config("entangle-sweep", overrides={key: _flag(value), **_unswept(key)})
    # every omitted key keeps its SystemParams default, up to the CLI's two
    # derived ones: T2 = 100 T, and adiabatic unless decay is on
    want = dataclasses.replace(SystemParams(), **{field: value})
    if field == "t_wait":
        want = want.with_(t_wait2=100.0 * value)
    if field != "adiabatic":
        want = want.with_(adiabatic=not (want.gamma_ca or want.gamma_cb))
    assert cfg.params == want
    if key != field:
        with pytest.raises(ConfigError, match=f"unknown config key: '{field}'"):
            parse_config("entangle-sweep", overrides={field: _flag(value)})


def _unswept(key: str) -> dict:
    """The param override that keeps an entangle-sweep from sweeping key:
    eta, the default param, is given to a lambda sweep."""
    return {"param": "lambda"} if key == "eta" else {}


# a valid value for every run key, none of them the key's default
RUN_GIVEN = {
    "n_traj": 7, "seed": 3, "threads": 2, "param": "gamma", "grid": (0.25, 0.5),
    "out": "x.dat", "format": "json", "engine": "fixed", "rate": 2.5, "center": -1.5,
    "time": 20.0, "nu_min": -3.0, "nu_max": 4.0, "nu_points": 9,
}


def _main_config(monkeypatch, argv):
    """The RunConfig main builds from argv, the command stubbed out."""
    seen = []
    monkeypatch.setitem(_COMMANDS, argv[0], lambda cfg: seen.append(cfg) or EXIT_OK)
    assert main(argv) == EXIT_OK
    return seen[0]


@pytest.mark.parametrize("key", sorted(RUN_GIVEN))
def test_run_key_lands_in_its_field(key, monkeypatch):
    # the CLI keys: every SystemParams field but g under its CLI name, the
    # gamma shorthand, and every RunConfig field but command and params
    assert set(RUN_GIVEN) == {f.name for f in dataclasses.fields(RunConfig)} - {
        "command", "params"}
    given = {**GIVEN, "gamma": 0.3, **RUN_GIVEN}
    assert set(given) == set(CLI_KEY.values()) | {"gamma"} | set(RUN_GIVEN) == set(_ALL_KEYS)
    # main takes each one as --key v and as --key=v, spelled out in full
    for k, v in given.items():
        want = parse_config("entangle-sweep", overrides={k: _flag(v), **_unswept(k)})
        run = [f"--{a}={b}" for a, b in _unswept(k).items()]
        for argv in ([f"--{k}", _flag(v)], [f"--{k}={_flag(v)}"]):
            assert _main_config(monkeypatch, ["entangle-sweep", *argv, *run]) == want
    value = RUN_GIVEN[key]
    cfg = parse_config("entangle-sweep", overrides={key: _flag(value)})
    assert getattr(cfg, key) == value
    # every omitted key keeps its RunConfig default, up to the three that
    # follow the command: n_traj, the swept parameter's grid and out
    if key != "n_traj":
        assert cfg.n_traj == 100000
    if key != "grid":
        assert cfg.grid == DEFAULT_GRIDS[cfg.param]
    if key != "out":
        assert cfg.out == f"homsim_entangle_sweep.{cfg.format}"
    want = RunConfig("entangle-sweep", SystemParams(adiabatic=True), **{key: value})
    assert cfg == dataclasses.replace(want, n_traj=cfg.n_traj, grid=cfg.grid, out=cfg.out)
    red = parse_config("redistribute")
    assert (red.n_traj, red.grid, red.out) == (10000, DEFAULT_GRIDS["phi"],
                                               "homsim_redistribute.csv")


def test_flags_follow_the_config_grammar(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # a flag is a key spelled out in full, not a prefix of one
    for flag, key in (("--lam", "lam"), ("--n_tr", "n_tr"), ("--adiab", "adiab")):
        assert main(["entangle-sweep", flag, "0.5", "--n_traj", "10"]) == EXIT_CONFIG
        assert f"unknown config key: '{key}'" in capsys.readouterr().err
    # a boolean flag takes what the config file takes
    for value in ("1", "0"):
        (tmp_path / "c.json").write_text(json.dumps({"adiabatic": value}))
        from_file = parse_config("entangle-sweep", "c.json")
        assert from_file.params.adiabatic is (value == "1")
        assert _main_config(monkeypatch, ["entangle-sweep", "--adiabatic", value]) == from_file
    # the token after a bare flag is its value, whatever it looks like
    assert _main_config(monkeypatch, ["spectrum", "--out", "-h", "--center", "-1e3"]) == (
        parse_config("spectrum", overrides={"out": "-h", "center": "-1e3"}))
    # a flag with no value, a stray positional and an unknown command
    for argv, message in ((["spectrum", "--rate"], "flag --rate has no value"),
                          (["spectrum", "--rate", "2", "3"], "expected a --key flag, got '3'"),
                          (["spectrum", "-rate", "2"], "expected a --key flag, got '-rate'"),
                          (["spectra", "--rate", "2"], "unknown command 'spectra'"),
                          ([], "unknown command None")):
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("homsim_*"))


def test_help_lists_every_command_and_key():
    # the argv=None path, as the homsim console script runs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    for flag in ("--help", "-h"):
        done = subprocess.run([sys.executable, "-m", "homsim.cli", flag], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_OK
        assert len(done.stdout.strip().split("\n")) == 1
        words = done.stdout.replace("{", " ").replace("}", " ").split()
        assert set(_COMMANDS) | set(_ALL_KEYS) | {"config"} <= set(words)


def test_defaults():
    cfg = parse_config("entangle-sweep")
    p = cfg.params
    assert (p.omega, p.kappa, p.delta) == (1.0, 10.0, 20.0)
    assert (p.eta, p.lam, p.phi) == (1.0, 1.0, 0.0)
    assert (p.gamma_ca, p.gamma_cb) == (0.0, 0.0)
    assert (p.dt, p.t_wait, p.t_wait2) == (0.01, 100.0, 10000.0)
    assert p.n_max == 1 and p.adiabatic
    assert cfg.seed == 0 and cfg.threads == 1 and cfg.format == "csv"
    assert cfg.n_traj == 100000
    assert parse_config("redistribute").n_traj == 10000


def test_t2_follows_t():
    cfg = parse_config("entangle-sweep", overrides={"T": "50"})
    assert cfg.params.t_wait2 == 5000.0
    cfg = parse_config("entangle-sweep", overrides={"T": "50", "T2": "70"})
    assert cfg.params.t_wait2 == 70.0


def test_range_error_names_key():
    with pytest.raises(ConfigError, match="eta"):
        parse_config("entangle-sweep", overrides={"eta": "1.5"})
    with pytest.raises(ConfigError, match="n_traj"):
        parse_config("entangle-sweep", overrides={"n_traj": "0"})
    with pytest.raises(ConfigError, match="key 'T':"):
        parse_config("entangle-sweep", overrides={"T": "-1"})
    with pytest.raises(ConfigError, match="key 'T2':"):
        parse_config("entangle-sweep", overrides={"T2": "-1"})
    with pytest.raises(ConfigError, match="key 'delta':"):
        parse_config("entangle-sweep", overrides={"delta": "0", "adiabatic": "true"})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"etaa": 0.5}))
    with pytest.raises(ConfigError, match="unknown config key: 'etaa'"):
        parse_config("entangle-sweep", str(path))


def test_malformed_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("entangle-sweep", str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("entangle-sweep", str(tmp_path / "missing.json"))


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"eta": 0.7, "seed": 4, "param": "lambda"}))
    cfg = parse_config("entangle-sweep", str(path), {"eta": "0.9"})
    assert cfg.params.eta == 0.9
    assert cfg.seed == 4


def test_gamma_shorthand():
    cfg = parse_config("entangle-sweep", overrides={"gamma": "0.3"})
    assert cfg.params.gamma_ca == 0.3 and cfg.params.gamma_cb == 0.3
    assert not cfg.params.adiabatic
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("entangle-sweep", overrides={"gamma": "0.3", "gamma_ca": "0.1"})


def test_adiabatic_gamma_conflict():
    with pytest.raises(ConfigError):
        parse_config("entangle-sweep", overrides={"gamma": "0.3", "adiabatic": "true"})


@pytest.mark.parametrize("command, param, key", [
    ("redistribute", None, "phi"),
    ("entangle-sweep", "eta", "eta"),
    ("entangle-sweep", "lambda", "lambda"),
    ("entangle-sweep", "gamma", "gamma"),
    ("entangle-sweep", "gamma", "gamma_ca"),
    ("entangle-sweep", "gamma", "gamma_cb"),
])
def test_a_swept_key_is_a_config_error(command, param, key, tmp_path, capsys):
    # the grid sets the swept parameter: a value given for it, by a flag or
    # by the config file, would be run over and still land in the meta
    out = tmp_path / "out.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 0.5}))
    run = ["--param", param] if param else []
    for given in ([f"--{key}", "0.5"], ["--config", str(cfg)]):
        assert _run([command, *run, *given, "--grid", "0.25", "--n_traj", "10",
                     "--format", "json", "--out", str(out)]) == EXIT_CONFIG
        assert (f"config error: key '{key}' is swept by this command; give its values in 'grid'"
                in capsys.readouterr().err)
    assert not out.exists()
    # a sweep of another parameter takes it
    other = "lambda" if param == "eta" else "eta"
    parse_config("entangle-sweep", str(cfg), {"param": other})


COARSE_DT = ["--engine", "fixed", "--delta", "0.001", "--n_traj", "5", "--T", "1"]


@pytest.mark.parametrize("argv", [
    ["entangle-sweep", *COARSE_DT, "--grid", "1.0"],
    ["entangle-sweep", *COARSE_DT, "--grid", "1.0,0.5", "--threads", "2"],
    ["redistribute", *COARSE_DT, "--grid", "1.0", "--T2", "1"],
    ["redistribute", *COARSE_DT, "--grid", "1.0,2.0", "--T2", "1", "--threads", "2"],
    ["oracle-check", "--kappa", "1", "--delta", "0.001", "--dt", "0.1", "--n_traj", "5",
     "--T", "10"],
], ids=["sweep", "sweep-pool", "redistribute", "redistribute-pool", "oracle-check"])
def test_a_too_coarse_dt_is_a_config_error(argv, tmp_path, capsys):
    # the fixed sampler's first-order guard trips while the command runs, in
    # a pool worker too; it names dt, and nothing is written
    out = tmp_path / "out.csv"
    assert _run(argv + ["--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: value out of range for key 'dt': per-step jump "
                          "probability ")
    assert err.endswith("exceeds 0.05; reduce dt\n")
    assert list(tmp_path.iterdir()) == []


def test_import_leaves_scipy_stats_out():
    # only oracle-check needs the oracle suite's scipy.stats, which takes most
    # of a second to import
    src = os.path.dirname(os.path.dirname(os.path.abspath(homsim.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, homsim.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("check", ["fast_vs_fixed", "waiting_time_ks"])
def test_a_ks_record_without_click_times_fails_with_a_reason(check):
    # a window too short for any click (fast_vs_fixed) or no trajectories at
    # all (waiting_time_ks): no KS test, no warning, no NaN, a failed record
    from homsim import oracles

    if check == "fast_vs_fixed":
        records = [oracles.fast_vs_fixed(SystemParams(adiabatic=True, t_wait=0.01), 5, 1, 2)]
    else:
        records = oracles.waiting_time_ks(SystemParams(), 0, 1, 2)
    for rec in records:
        assert rec["passed"] is False and rec["ks_stat"] is None and rec["p_value"] is None
        assert rec["reason"].startswith("too few click times for the KS test: [0")
        json.dumps(rec, allow_nan=False)


@pytest.mark.parametrize("check", ["fast_vs_fixed", "waiting_time_ks"])
def test_ks_oracles_reject_one_seed_for_both_samplers(check):
    # the two-sample KS test needs independent samples, so the samplers'
    # master seeds must differ
    from homsim import oracles

    with pytest.raises(ValueError, match=r"seed_fixed \(7\) and seed_fast \(7\) must differ"):
        getattr(oracles, check)(SystemParams(adiabatic=True), 5, 7, 7)


def _run(args):
    return main(args)


def test_entangle_sweep_roundtrip(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["entangle-sweep", "--param", "eta", "--grid", "1.0", "--n_traj", "800",
            "--seed", "3", "--out", str(out)]
    assert _run(argv) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "param,value,n_traj,p_hat,p_stderr,F_hat,F_stderr,infidelity"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "eta" and int(row[2]) == 800
    p_hat, f_hat, infid = float(row[3]), float(row[5]), float(row[7])
    assert 0.05 < p_hat < 0.15
    assert infid == pytest.approx(1.0 - f_hat)


def test_determinism_and_threads(tmp_path):
    base = ["entangle-sweep", "--param", "lambda", "--grid", "1.0,1.5",
            "--n_traj", "600", "--seed", "9"]
    outs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--threads", "2"])):
        out = tmp_path / f"{name}.csv"
        assert _run(base + ["--out", str(out)] + extra) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_json_mirror(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["entangle-sweep", "--param", "eta", "--grid", "1.0", "--n_traj", "300",
            "--seed", "2", "--format", "json", "--out", str(out)]
    assert _run(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["seed"] == 2
    assert doc["meta"]["params"]["kappa"] == 10.0
    assert len(doc["data"]) == 1
    assert set(doc["data"][0]) == {
        "param", "value", "n_traj", "p_hat", "p_stderr", "F_hat", "F_stderr", "infidelity"
    }


def test_redistribute_csv(tmp_path):
    out = tmp_path / "red.csv"
    argv = ["redistribute", "--grid", f"0,{math.pi}", "--n_traj", "500",
            "--T2", "2000", "--seed", "1", "--out", str(out)]
    assert _run(argv) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "phi,n_traj,Ps_hat,Ps_stderr,two_click_fraction,Ps_theory"
    row0 = lines[1].split(",")
    row_pi = lines[2].split(",")
    assert float(row0[2]) == 1.0          # all pairs bunch at phi = 0
    assert float(row_pi[2]) == 0.0        # and anti-bunch at phi = pi
    assert float(row0[5]) == pytest.approx(1.0)
    assert float(row_pi[5]) == pytest.approx(0.0, abs=1e-12)


def test_spectrum_zero_time(tmp_path):
    out = tmp_path / "s.csv"
    assert _run(["spectrum", "--time", "0", "--rate", "2.0", "--nu_points", "7",
                 "--out", str(out)]) == EXIT_OK
    lines = [l for l in out.read_text().strip().split("\n") if not l.startswith("#")]
    for line in lines[1:]:
        assert float(line.split(",")[3]) == 0.0


def test_spectrum_peak_and_norm(tmp_path):
    out = tmp_path / "s.csv"
    rate = 2.0
    assert _run(["spectrum", "--time", "200", "--rate", str(rate), "--nu_points", "3",
                 "--nu_min", "-0.0", "--nu_max", "1.0", "--out", str(out)]) == EXIT_OK
    text = out.read_text().strip().split("\n")
    peak = float(text[1].split(",")[3])   # first grid point sits at nu = center
    assert peak == pytest.approx(2.0 / (math.pi * rate), rel=1e-9)
    footer = [l for l in text if l.startswith("#")][0]
    norm = float(footer.split("=")[1])
    assert norm == pytest.approx(1.0, abs=1e-5)


def test_config_error_exit_code(tmp_path, capsys):
    assert _run(["entangle-sweep", "--eta", "2.0"]) == EXIT_CONFIG
    assert "eta" in capsys.readouterr().err
    # the reduced generator divides by delta: a config error, not a traceback
    assert _run(["entangle-sweep", "--delta", "0", "--adiabatic", "true"]) == EXIT_CONFIG
    assert "key 'delta'" in capsys.readouterr().err
    # a bad grid value is caught before any trajectory runs
    out = tmp_path / "x.csv"
    for argv in (["entangle-sweep", "--param", "eta", "--grid", "1.5"],
                 ["entangle-sweep", "--param", "gamma", "--grid", "-0.1"],
                 ["entangle-sweep", "--param", "lambda", "--grid", "1.0,0"],
                 ["entangle-sweep", "--param", "lambda", "--grid", "nan"],
                 ["entangle-sweep", "--grid", ","],
                 ["redistribute", "--grid", "7"],
                 ["redistribute", "--grid", ","]):
        assert _run(argv + ["--n_traj", "10", "--out", str(out)]) == EXIT_CONFIG
        assert "key 'grid'" in capsys.readouterr().err
    # the spectrum keys are checked before anything is written
    for argv, key in ((["--time", "-1"], "time"), (["--rate", "0"], "rate"),
                      (["--nu_points", "0"], "nu_points"), (["--center", "nan"], "center"),
                      (["--nu_min", "nan"], "nu_min"), (["--nu_max", "inf"], "nu_max"),
                      (["--rate", "inf"], "rate"), (["--time", "inf"], "time")):
        assert _run(["spectrum", *argv, "--out", str(out)]) == EXIT_CONFIG
        assert f"value out of range for key '{key}'" in capsys.readouterr().err
    # and the grid they resolve to must run upward: a bound given alone is
    # held against the other's default (center +- 10 rate = +-10)
    for argv, key in ((["--nu_min", "-1e3", "--nu_max", "-5e5"], "nu_max"),
                      (["--nu_min", "1", "--nu_max", "1"], "nu_max"),
                      (["--nu_max", "-20"], "nu_max"), (["--nu_min", "10"], "nu_min")):
        assert _run(["spectrum", *argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"value out of range for key '{key}'" in err and "nu_min < nu_max" in err
    # so is every NaN or infinite physics value
    for argv, key, field in ((["--omega", "nan"], "omega", "omega"),
                             (["--kappa", "nan"], "kappa", "kappa"),
                             (["--lambda", "nan"], "lambda", "lam"),
                             (["--T", "nan"], "T", "t_wait"),
                             (["--delta", "inf"], "delta", "delta")):
        assert _run(["entangle-sweep", *argv, "--n_traj", "10", "--grid", "1.0",
                     "--out", str(out)]) == EXIT_CONFIG
        assert (f"value out of range for key '{key}': {field} must be finite"
                in capsys.readouterr().err)
    assert _run(["redistribute", "--T2", "nan", "--n_traj", "10", "--out", str(out)]) == EXIT_CONFIG
    assert "key 'T2': t_wait2 must be finite" in capsys.readouterr().err
    # the subcommand is the command line's to name, not the config file's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "spectrum"}))
    assert _run(["entangle-sweep", "--config", str(cfg), "--n_traj", "10",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "unknown config key: 'command'" in capsys.readouterr().err
    assert not out.exists()


def test_json_values_match_their_key_types(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    # the JSON numbers 1 and 0 are booleans as the strings "1" and "0" are
    for value in (1, 0, True, False, "1", "0"):
        cfg.write_text(json.dumps({"adiabatic": value}))
        assert parse_config("entangle-sweep", str(cfg)).params.adiabatic is bool(int(value))
    for value in (2, -1, 0.5, 1.0, "yes"):
        cfg.write_text(json.dumps({"adiabatic": value}))
        with pytest.raises(ConfigError, match="invalid value for key 'adiabatic'"):
            parse_config("entangle-sweep", str(cfg))
    # a JSON true or false is no value for any other key
    for key, value in (("eta", True), ("n_traj", True), ("seed", False), ("T", True),
                       ("n_max", True), ("nu_points", True), ("grid", [True, 0.5]),
                       ("grid", True), ("out", True), ("param", False)):
        cfg.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"invalid value for key '{key}'"):
            parse_config("entangle-sweep", str(cfg))
    out = tmp_path / "x.csv"
    for key in ("eta", "n_traj"):
        cfg.write_text(json.dumps({key: True, "grid": [1.0], "out": str(out)}))
        assert _run(["entangle-sweep", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"invalid value for key '{key}': True" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for command in ("entangle-sweep", "redistribute", "oracle-check"):
        argv = [command, "--seed", "-1", "--n_traj", "10", "--grid", "1.0", "--out", str(out)]
        assert _run(argv) == EXIT_CONFIG
        assert "key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_exponent_form_is_a_flag_value(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert _run(["spectrum", "--center", "-1e3", "--nu_points", "3", "--out", str(out)]) == EXIT_OK
    assert out.read_text().split("\n")[1].startswith("-1010,")
    assert _run(["spectrum", "--nu_min", "-1e3", "--nu_max", "-5e2", "--nu_points", "3",
                 "--out", str(out)]) == EXIT_OK
    assert [row.split(",")[0] for row in out.read_text().split("\n")[1:4]] == [
        "-1000", "-750", "-500"]
    # a non-finite one is still a config error that names its key
    out.unlink()
    assert _run(["spectrum", "--center", "-inf", "--out", str(out)]) == EXIT_CONFIG
    assert "value out of range for key 'center'" in capsys.readouterr().err
    assert not out.exists()


def test_fixed_sampler_windows_are_whole_steps(tmp_path, capsys, monkeypatch):
    # at dt = 0.01, a window of 0.004 would run no step at all and one of
    # 0.015 would run two; the fast sampler needs no grid
    import homsim.cli as cli

    out = tmp_path / "x.csv"
    for argv, key in ((["entangle-sweep", "--engine", "fixed", "--T", "0.004"], "T"),
                      (["entangle-sweep", "--engine", "fixed", "--T", "0.015"], "T"),
                      (["redistribute", "--engine", "fixed", "--T2", "0.015"], "T2"),
                      (["oracle-check", "--T", "0.015"], "T")):
        assert _run(argv + ["--n_traj", "10", "--out", str(out)]) == EXIT_CONFIG
        field = {"T": "t_wait", "T2": "t_wait2"}[key]
        assert (f"value out of range for key '{key}': {field} must be a whole number of dt"
                in capsys.readouterr().err)
    assert not out.exists()
    assert _run(["entangle-sweep", "--T", "0.004", "--omega", "20", "--delta", "1",
                 "--grid", "1.0", "--n_traj", "10", "--out", str(out)]) == EXIT_OK
    # T2 sets only redistribute's second window, which the other commands never run
    monkeypatch.setattr(
        cli, "run_suite", lambda params, n_traj, seed: [{"name": "stub", "passed": True}]
    )
    for argv in (["entangle-sweep", "--engine", "fixed", "--grid", "1.0"], ["oracle-check"]):
        assert _run(argv + ["--T2", "0.005", "--n_traj", "10", "--out", str(out)]) == EXIT_OK


def test_io_error_exit_code(tmp_path, monkeypatch, capsys):
    import homsim.cli as cli

    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = _run(["entangle-sweep", "--param", "eta", "--grid", "1.0",
                 "--n_traj", "50", "--out", str(out)])
    assert code == EXIT_IO
    monkeypatch.setattr(
        cli, "run_suite", lambda params, n_traj, seed: [{"name": "stub", "passed": True}]
    )
    assert _run(["oracle-check", "--out", str(out)]) == EXIT_IO
    assert f"cannot write output file {str(out.with_suffix('.json'))!r}" in capsys.readouterr().err


def test_oracle_check_passes(tmp_path):
    out = tmp_path / "oracle.json"
    code = _run(["oracle-check", "--n_traj", "500", "--seed", "12", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert {"channel_consistency", "waiting_time_ks_fixed", "waiting_time_ks_fast",
            "waiting_time_ks_mutual", "fast_vs_fixed_ks", "lindblad_ensemble"} <= names


def test_oracle_check_failure_exit(tmp_path, monkeypatch):
    import homsim.cli as cli

    monkeypatch.setattr(
        cli, "run_suite", lambda params, n_traj, seed: [{"name": "stub", "passed": False}]
    )
    out = tmp_path / "oracle.json"
    assert _run(["oracle-check", "--out", str(out)]) == EXIT_ORACLE
    assert not json.loads(out.read_text())["passed"]


def test_oracle_check_replaces_only_the_file_extension(tmp_path, monkeypatch):
    import homsim.cli as cli

    monkeypatch.setattr(
        cli, "run_suite", lambda params, n_traj, seed: [{"name": "stub", "passed": True}]
    )
    (tmp_path / "runs.v2").mkdir()
    for given, written in (("runs.v2/report", "runs.v2/report.json"),
                           ("runs.v2/report.csv", "runs.v2/report.json"),
                           ("runs.v2/r.json", "runs.v2/r.json")):
        assert _run(["oracle-check", "--out", str(tmp_path / given)]) == EXIT_OK
        assert json.loads((tmp_path / written).read_text())["passed"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["runs.v2"]


def test_corrupted_channel_set_fails_consistency():
    # negative control for the channel/generator identity
    from homsim.hilbert import OperatorMatrix
    from homsim.model import JumpChannel, SystemParams, build_jump_channels
    from homsim.oracles import channel_residual

    p = SystemParams(gamma_ca=0.2, gamma_cb=0.1, eta=0.8, adiabatic=False)
    channels = build_jump_channels(p)
    bad = [JumpChannel(OperatorMatrix(1.01 * channels[0].operator.entries, p.dims),
                       channels[0].tag)] + channels[1:]
    assert channel_residual(p, channels) < 1e-12
    assert channel_residual(p, bad) > 1e-6
