"""Command-line front end.

Four subcommands: `entangle-sweep` (herald probability and fidelity versus
eta, lambda or gamma), `redistribute` (same-detector probability versus the
manipulation phase), `oracle-check` (the self-consistency oracle suite) and
`spectrum` (emission spectral amplitude of the free-space toy model).

Configuration is a flat key/value JSON file plus `--key value` flags, flags
winning.  All inputs are dimensionless in units of the ion-cavity coupling g.
The physics keys are the `SystemParams` fields except g, read from the
dataclass, with `lambda`, `T` and `T2` standing for lam, t_wait and t_wait2,
plus the shorthand `gamma` for gamma_ca = gamma_cb.  SystemParams owns their
defaults and ranges; a config error names the key to fix (exit code 2).
Every command is a pure function of (config, seed): reruns produce
byte-identical data files, for any worker-thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import __version__
from .analytic import EmitterParams, emission_amplitude, emission_norm, same_detector_probability
from .experiments import SWEEPABLE, _apply_sweep_value, run_redistribution, sweep
from .model import ParamError, SystemParams
from .oracles import run_suite

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

# SystemParams field -> CLI key, where the two differ; g is the unit
_ALIASES = {"lam": "lambda", "t_wait": "T", "t_wait2": "T2"}
_FIELDS = get_type_hints(SystemParams)
_PARAM_TYPES = {_ALIASES.get(f, f): typ for f, typ in _FIELDS.items() if f != "g"}
_PARAM_TYPES["gamma"] = float   # shorthand: gamma_ca = gamma_cb = gamma
_RUN_KEYS = {
    "n_traj": int,
    "seed": int,
    "threads": int,
    "param": str,
    "grid": tuple,
    "out": str,
    "format": str,
    "engine": str,
    # spectrum-only
    "rate": float,
    "center": float,
    "time": float,
    "nu_min": float,
    "nu_max": float,
    "nu_points": int,
}
_ALL_KEYS = {**_PARAM_TYPES, **_RUN_KEYS}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: SystemParams
    n_traj: int
    seed: int
    threads: int
    param: str
    grid: tuple[float, ...]
    out: str
    format: str
    engine: str
    rate: float
    center: float
    time: float
    nu_min: Optional[float]
    nu_max: Optional[float]
    nu_points: int


def _coerce(key: str, value):
    want = _ALL_KEYS[key]
    try:
        if want is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
                return value.lower() in ("true", "1")
            raise ValueError
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
    physics key left out takes its SystemParams default, except that T2
    follows a given T as 100 T and adiabatic defaults to "no decay".  Every
    config error names the offending key.
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
    for k, v in (overrides or {}).items():
        if v is not None:
            merged[k] = v

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
    try:
        params = SystemParams(**given)
    except ParamError as exc:
        key = _ALIASES.get(exc.field, exc.field)
        raise ConfigError(f"value out of range for key '{key}': {exc}") from None

    fmt = vals.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"invalid value for key 'format': {fmt!r} (want csv or json)")
    engine = vals.get("engine", "fast")
    if engine not in ("fast", "fixed"):
        raise ConfigError(f"invalid value for key 'engine': {engine!r} (want fast or fixed)")
    param = vals.get("param", "eta")
    if command == "entangle-sweep" and param not in SWEEPABLE:
        raise ConfigError(f"invalid value for key 'param': {param!r}")
    threads = vals.get("threads", 1)
    if threads < 1:
        raise ConfigError(f"value out of range for key 'threads': {threads}")
    default_n = 10000 if command == "redistribute" else 100000
    n_traj = vals.get("n_traj", default_n)
    if n_traj < 1:
        raise ConfigError(f"value out of range for key 'n_traj': {n_traj}")
    seed = vals.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"value out of range for key 'seed': {seed}")

    swept = "phi" if command == "redistribute" else param
    grid = vals.get("grid", DEFAULT_GRIDS.get(swept, ()))
    if command in ("entangle-sweep", "redistribute"):
        if not grid:
            raise ConfigError("invalid value for key 'grid': no values")
        for v in grid:
            try:
                _apply_sweep_value(params, swept, v)
            except ValueError as exc:
                raise ConfigError(f"value out of range for key 'grid' at {v!r}: {exc}") from None

    return RunConfig(
        command=command,
        params=params,
        n_traj=n_traj,
        seed=seed,
        threads=threads,
        param=param,
        grid=tuple(grid),
        out=vals.get("out", f"homsim_{command.replace('-', '_')}.{fmt}"),
        format=fmt,
        engine=engine,
        rate=vals.get("rate", 1.0),
        center=vals.get("center", 0.0),
        time=vals.get("time", 50.0),
        nu_min=vals.get("nu_min"),
        nu_max=vals.get("nu_max"),
        nu_points=vals.get("nu_points", 201),
    )


def _fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_table(cfg: RunConfig, header: list[str], rows: list[list], meta: dict) -> None:
    try:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            if cfg.format == "csv":
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
                footer = meta.get("footer")
                if footer:
                    fh.write(f"# {footer}\n")
            else:
                data = [
                    {k: (None if isinstance(v, float) and math.isnan(v) else v)
                     for k, v in zip(header, row)}
                    for row in rows
                ]
                json.dump({"meta": meta, "data": data}, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write output file {cfg.out!r}: {exc}") from None


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
    lo = cfg.nu_min if cfg.nu_min is not None else cfg.center - 10.0 * cfg.rate
    hi = cfg.nu_max if cfg.nu_max is not None else cfg.center + 10.0 * cfg.rate
    nus = np.linspace(lo, hi, cfg.nu_points)
    rows = []
    for nu in nus:
        amp = emission_amplitude(float(nu), cfg.time, p)
        rows.append([float(nu), amp.real, amp.imag, abs(amp) ** 2])
    norm = emission_norm(cfg.time, p)
    meta = _meta(cfg, rate=cfg.rate, center=cfg.center, time=cfg.time,
                 emission_norm=norm, footer=f"emission_norm = {norm:.17g}")
    meta.pop("n_traj")
    _write_table(cfg, ["nu", "amp_re", "amp_im", "spectral_density"], rows, meta)
    print(f"spectrum over [{lo:g}, {hi:g}], emission norm {norm:.6f}")
    return EXIT_OK


def _cmd_oracle_check(cfg: RunConfig) -> int:
    checks = run_suite(cfg.params, cfg.n_traj, cfg.seed)
    ok = all(c["passed"] for c in checks)
    report = {"passed": ok, "checks": checks}
    out = os.path.splitext(cfg.out)[0] + ".json"
    try:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IOError(f"cannot write output file {out!r}: {exc}") from None
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    return EXIT_OK if ok else EXIT_ORACLE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="homsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("entangle-sweep", "redistribute", "oracle-check", "spectrum"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key/value JSON file")
        for key, typ in _ALL_KEYS.items():
            if typ is bool:
                p.add_argument(f"--{key}", default=None, choices=["true", "false"])
            elif typ is tuple:
                p.add_argument(f"--{key}", default=None, help="comma-separated values")
            else:
                p.add_argument(f"--{key}", default=None, type=str)
    return parser


_COMMANDS = {
    "entangle-sweep": _cmd_entangle_sweep,
    "redistribute": _cmd_redistribute,
    "oracle-check": _cmd_oracle_check,
    "spectrum": _cmd_spectrum,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _ALL_KEYS}
    try:
        cfg = parse_config(args.command, args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[cfg.command](cfg)
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
