"""Command-line front end: `homsim <command> (--key value | --key=value)...`.

Four commands: `entangle-sweep` (herald probability and fidelity versus
eta, lambda or gamma), `redistribute` (same-detector probability versus the
manipulation phase), `oracle-check` (the self-consistency oracle suite) and
`spectrum` (emission spectral amplitude of the free-space toy model).

Each flag is a config key, or `config` (a flat key/value JSON file), spelled
out in full; the token after a bare flag is its value, whatever it looks
like.  Flags win over the file.  All inputs are dimensionless in units of the
ion-cavity coupling g.  The physics keys are the `SystemParams` fields except
g, read from the dataclass, with `lambda`, `T` and `T2` standing for lam,
t_wait and t_wait2, plus the shorthand `gamma` for gamma_ca = gamma_cb.
SystemParams owns their defaults and ranges.  The run keys are the
`RunConfig` fields after params, which own their types and defaults.  A
config error, a NaN or infinite value included, names the key to fix (exit
code 2).  So does a value for the parameter a command sweeps (phi for
redistribute, the chosen param for entangle-sweep), which grid alone sets,
and a dt too coarse for the fixed sampler's first-order jump probability,
found while the command runs.  Every command is a pure function of (config,
seed): reruns produce byte-identical data files, for any worker-thread
count.  Only oracle-check imports the oracle suite, and with it scipy.stats.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Literal, Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .analytic import (
    EmitterParams, emission_amplitude, emission_norm, same_detector_probability, spectral_density,
)
from .experiments import SWEEPABLE, _apply_sweep_value, run_redistribution, sweep
from .model import ParamError, SystemParams
from .trajectory import StepSizeError, whole_steps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ORACLE = 4

DEFAULT_GRIDS = {
    "eta": (0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "lambda": (0.5, 0.75, 1.0, 1.25, 1.5),
    "gamma": (0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    "phi": tuple(k * math.pi / 6.0 for k in range(13)),
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """A validated run.  Every field after params is a run key, declared here
    once with its type and default; n_traj, grid, out (and spectrum's nu_min,
    nu_max) follow the command, so they are None until parse_config derives them."""

    command: str
    params: SystemParams
    n_traj: Optional[int] = None
    seed: int = 0
    threads: int = 1
    param: str = "eta"
    grid: Optional[tuple[float, ...]] = None
    out: Optional[str] = None
    format: Literal["csv", "json"] = "csv"
    engine: Literal["fast", "fixed"] = "fast"
    # spectrum-only
    rate: float = 1.0
    center: float = 0.0
    time: float = 50.0
    nu_min: Optional[float] = None
    nu_max: Optional[float] = None
    nu_points: int = 201


def _value_type(typ):
    """The type a key's raw value is coerced to: X for Optional[X], str for
    a Literal of strings, tuple for tuple[float, ...]."""
    if get_origin(typ) is Literal:
        return str
    if get_origin(typ) is Union:
        typ = get_args(typ)[0]
    return get_origin(typ) or typ


# SystemParams field -> CLI key, where the two differ; g is the unit
_ALIASES = {"lam": "lambda", "t_wait": "T", "t_wait2": "T2"}
_FIELDS = get_type_hints(SystemParams)
_PARAM_TYPES = {_ALIASES.get(f, f): typ for f, typ in _FIELDS.items() if f != "g"}
_PARAM_TYPES["gamma"] = float   # shorthand: gamma_ca = gamma_cb = gamma
_RUN_TYPES = {k: typ for k, typ in get_type_hints(RunConfig).items()
              if k not in ("command", "params")}
_ALL_KEYS = {**_PARAM_TYPES, **{k: _value_type(typ) for k, typ in _RUN_TYPES.items()}}
_CHOICES = {k: get_args(typ) for k, typ in _RUN_TYPES.items() if get_origin(typ) is Literal}
# what a given run key's value must satisfy beyond its type
_RUN_RANGES = {
    "n_traj": lambda n: n >= 1,
    "seed": lambda n: n >= 0,
    "threads": lambda n: n >= 1,
    "rate": lambda x: math.isfinite(x) and x > 0.0,
    "center": math.isfinite,
    "time": lambda x: math.isfinite(x) and x >= 0.0,
    "nu_min": math.isfinite,
    "nu_max": math.isfinite,
    "nu_points": lambda n: n >= 1,
}


def _coerce(key: str, value):
    want = _ALL_KEYS[key]
    try:
        if want is bool:
            if isinstance(value, int) and value in (0, 1):   # JSON true, false, 1 or 0
                return bool(value)
            if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
                return value.lower() in ("true", "1")
            raise ValueError
        if isinstance(value, bool) or (isinstance(value, list) and bool in map(type, value)):
            raise ValueError   # a JSON true or false fits a boolean key only
        if want is tuple:
            if isinstance(value, (list, tuple)):
                return tuple(float(v) for v in value)
            return tuple(float(v) for v in str(value).split(",") if v.strip() != "")
        if want is int:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError
            return int(value)
        return want(value)
    except (TypeError, ValueError):
        raise ConfigError(f"invalid value for key '{key}': {value!r}") from None


def parse_config(
    command: str, path: Optional[str] = None, overrides: Optional[dict] = None
) -> RunConfig:
    """Merge file values and flag overrides into a validated RunConfig.

    Unknown keys are rejected; flags take precedence over file values.  A
    key left out takes its SystemParams or RunConfig default, except that
    T2 follows a given T as 100 T, adiabatic defaults to "no decay", and
    n_traj, grid, out, nu_min and nu_max (center -/+ 10 rate) follow the
    command.  Every config error names the offending key.
    """
    merged: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file {path!r}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"malformed config file {path!r}: top level must be an object")
        merged.update(raw)
    merged.update(overrides or {})

    for key in merged:
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown config key: '{key}'")
    vals = {k: _coerce(k, v) for k, v in merged.items()}

    if "gamma" in vals and ("gamma_ca" in vals or "gamma_cb" in vals):
        raise ConfigError("key 'gamma' conflicts with explicit 'gamma_ca'/'gamma_cb'")
    if "gamma" in vals:
        vals["gamma_ca"] = vals["gamma_cb"] = vals["gamma"]
    given = {f: vals[key] for f in _FIELDS if (key := _ALIASES.get(f, f)) in vals}
    if "t_wait" in given:
        given.setdefault("t_wait2", 100.0 * given["t_wait"])
    given.setdefault("adiabatic", not (given.get("gamma_ca") or given.get("gamma_cb")))
    run = {key: vals[key] for key in _RUN_TYPES if key in vals}
    run.setdefault("n_traj", 10000 if command == "redistribute" else 100000)
    swept = "phi" if command == "redistribute" else run.get("param", RunConfig.param)
    run.setdefault("grid", DEFAULT_GRIDS.get(swept, ()))
    fmt = run.get("format", RunConfig.format)
    run.setdefault("out", f"homsim_{command.replace('-', '_')}.{fmt}")
    if command == "spectrum":
        center, rate = run.get("center", RunConfig.center), run.get("rate", RunConfig.rate)
        run.setdefault("nu_min", center - 10.0 * rate)
        run.setdefault("nu_max", center + 10.0 * rate)
    try:
        params = SystemParams(**given)
        if run.get("engine") == "fixed" or command == "oracle-check":
            # the fixed sampler's windows: T, and T2 where a second window runs
            for field in ("t_wait", "t_wait2")[: 1 + (command == "redistribute")]:
                whole_steps(getattr(params, field), params.dt, field)
    except ParamError as exc:
        key = _ALIASES.get(exc.field, exc.field)
        raise ConfigError(f"value out of range for key '{key}': {exc}") from None

    for key, value in run.items():
        if key in _CHOICES and value not in _CHOICES[key]:
            want = " or ".join(_CHOICES[key])
            raise ConfigError(f"invalid value for key '{key}': {value!r} (want {want})")
        if key in _RUN_RANGES and not _RUN_RANGES[key](value):
            raise ConfigError(f"value out of range for key '{key}': {value}")
    if command == "spectrum" and not run["nu_min"] < run["nu_max"]:
        key = "nu_min" if "nu_max" not in vals else "nu_max"
        raise ConfigError(f"value out of range for key '{key}': {run[key]} (need nu_min < nu_max)")
    if command == "entangle-sweep" and swept not in SWEEPABLE:
        raise ConfigError(f"invalid value for key 'param': {swept!r}")
    if command in ("entangle-sweep", "redistribute"):
        for key in ("gamma", "gamma_ca", "gamma_cb") if swept == "gamma" else (swept,):
            if key in vals:
                raise ConfigError(f"key '{key}' is swept by this command; "
                                  f"give its values in 'grid'")
        if not run["grid"]:
            raise ConfigError("invalid value for key 'grid': no values")
        for v in run["grid"]:
            try:
                _apply_sweep_value(params, swept, v)
            except ValueError as exc:
                raise ConfigError(f"value out of range for key 'grid' at {v!r}: {exc}") from None
    return RunConfig(command, params, **run)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write(path: str, text: str) -> None:
    """The only writer of an output file: an OSError becomes exit code 3."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write output file {path!r}: {exc}") from None


def _write_table(cfg: RunConfig, header: list[str], rows: list[list], meta: dict) -> None:
    if cfg.format == "csv":
        lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
        if meta.get("footer"):
            lines.append(f"# {meta['footer']}")
        text = "\n".join(lines) + "\n"
    else:
        data = [{k: (None if isinstance(v, float) and math.isnan(v) else v)
                 for k, v in zip(header, row)} for row in rows]
        text = json.dumps({"meta": meta, "data": data}, indent=2) + "\n"
    _write(cfg.out, text)


def _meta(cfg: RunConfig, **extra) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "seed": cfg.seed,
        "n_traj": cfg.n_traj,
        "engine": cfg.engine,
        "params": dataclasses.asdict(cfg.params),
        **extra,
    }


def _cmd_entangle_sweep(cfg: RunConfig) -> int:
    result = sweep(
        cfg.params, cfg.param, cfg.grid, cfg.n_traj, cfg.seed,
        sampler=cfg.engine, threads=cfg.threads,
    )
    header = ["param", "value", "n_traj", "p_hat", "p_stderr", "F_hat", "F_stderr", "infidelity"]
    rows = [
        [pt.param, pt.value, pt.n_traj, pt.p_hat, pt.p_stderr, pt.f_hat, pt.f_stderr,
         1.0 - pt.f_hat]
        for pt in result.points
    ]
    _write_table(cfg, header, rows, _meta(cfg, param=cfg.param, grid=list(cfg.grid)))
    for pt in result.points:
        print(f"{cfg.param}={pt.value:g}: p_hat={pt.p_hat:.4f} F_hat={pt.f_hat:.4f}")
    return EXIT_OK


def _cmd_redistribute(cfg: RunConfig) -> int:
    result = run_redistribution(
        cfg.params, cfg.grid, cfg.n_traj, cfg.seed, sampler=cfg.engine, threads=cfg.threads
    )
    header = ["phi", "n_traj", "Ps_hat", "Ps_stderr", "two_click_fraction", "Ps_theory"]
    rows = [
        [pt.value, pt.n_traj, pt.ps_hat, pt.ps_stderr, pt.two_click_fraction,
         same_detector_probability(pt.value)]
        for pt in result.points
    ]
    _write_table(cfg, header, rows, _meta(cfg, grid=list(cfg.grid)))
    for pt in result.points:
        print(f"phi={pt.value:.4f}: Ps_hat={pt.ps_hat:.4f} two_click={pt.two_click_fraction:.4f}")
    return EXIT_OK


def _cmd_spectrum(cfg: RunConfig) -> int:
    p = EmitterParams(cfg.rate, cfg.center)
    nus = np.linspace(cfg.nu_min, cfg.nu_max, cfg.nu_points)
    rows = []
    for nu in map(float, nus):
        amp = emission_amplitude(nu, cfg.time, p)
        rows.append([nu, amp.real, amp.imag, spectral_density(nu, cfg.time, p)])
    norm = emission_norm(cfg.time, p)
    meta = _meta(cfg, rate=cfg.rate, center=cfg.center, time=cfg.time,
                 emission_norm=norm, footer=f"emission_norm = {norm:.17g}")
    meta.pop("n_traj")
    _write_table(cfg, ["nu", "amp_re", "amp_im", "spectral_density"], rows, meta)
    print(f"spectrum over [{cfg.nu_min:g}, {cfg.nu_max:g}], emission norm {norm:.6f}")
    return EXIT_OK


def run_suite(params: SystemParams, n_traj: int, seed: int) -> list[dict]:
    """oracles.run_suite, imported when oracle-check runs: the oracles' scipy.stats
    takes most of a second to import, and no other command needs it."""
    from .oracles import run_suite as suite

    return suite(params, n_traj, seed)


def _cmd_oracle_check(cfg: RunConfig) -> int:
    checks = run_suite(cfg.params, cfg.n_traj, cfg.seed)
    ok = all(c["passed"] for c in checks)
    report = json.dumps({"passed": ok, "checks": checks}, indent=2) + "\n"
    _write(os.path.splitext(cfg.out)[0] + ".json", report)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    return EXIT_OK if ok else EXIT_ORACLE


_COMMANDS = {
    "entangle-sweep": _cmd_entangle_sweep,
    "redistribute": _cmd_redistribute,
    "oracle-check": _cmd_oracle_check,
    "spectrum": _cmd_spectrum,
}
_USAGE = (f"usage: homsim {{{' | '.join(_COMMANDS)}}} (--key value | --key=value)... "
          f"with key one of: config {' '.join(_ALL_KEYS)}")


def _read_argv(argv: Sequence[str]) -> Optional[tuple[str, dict]]:
    """(command, {key: value}) read from argv, or None when help is asked for."""
    tokens, flags = iter(argv), {}
    command = next(tokens, None)
    if command in ("-h", "--help"):
        return None
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}; {_USAGE}")
    for tok in tokens:
        if tok in ("-h", "--help"):
            return None
        if not tok.startswith("--"):
            raise ConfigError(f"expected a --key flag, got {tok!r}")
        key, eq, value = tok[2:].partition("=")
        if not eq and (value := next(tokens, None)) is None:
            raise ConfigError(f"flag --{key} has no value")
        flags[key] = value
    return command, flags


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        read = _read_argv(sys.argv[1:] if argv is None else argv)
        if read is None:
            print(_USAGE)
            return EXIT_OK
        cfg = parse_config(read[0], read[1].pop("config", None), read[1])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[cfg.command](cfg)
    except StepSizeError as exc:   # raised by the fixed sampler, in a pool worker too
        print(f"config error: value out of range for key 'dt': {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
