import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from homsim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
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


def _flag(value) -> str:
    return str(value).lower()


@st.composite
def out_of_range(draw):
    """One setting SystemParams rejects: (field, constructor kwargs, message)."""
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
    cfg = parse_config("entangle-sweep", overrides={key: _flag(value)})
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
    path.write_text(json.dumps({"eta": 0.7, "seed": 4}))
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
                 ["entangle-sweep", "--grid", ","],
                 ["redistribute", "--grid", "7"],
                 ["redistribute", "--grid", ","]):
        assert _run(argv + ["--n_traj", "10", "--out", str(out)]) == EXIT_CONFIG
        assert "key 'grid'" in capsys.readouterr().err
    # the subcommand is the command line's to name, not the config file's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "spectrum"}))
    assert _run(["entangle-sweep", "--config", str(cfg), "--n_traj", "10",
                 "--out", str(out)]) == EXIT_CONFIG
    assert "unknown config key: 'command'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for command in ("entangle-sweep", "redistribute", "oracle-check"):
        argv = [command, "--seed", "-1", "--n_traj", "10", "--grid", "1.0", "--out", str(out)]
        assert _run(argv) == EXIT_CONFIG
        assert "key 'seed'" in capsys.readouterr().err
    assert not out.exists()


def test_io_error_exit_code(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = _run(["entangle-sweep", "--param", "eta", "--grid", "1.0",
                 "--n_traj", "50", "--out", str(out)])
    assert code == EXIT_IO


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
