"""Command-line front end.

Four subcommands: `entangle-sweep` (herald probability and fidelity versus
eta, lambda or gamma), `redistribute` (same-detector probability versus the
manipulation phase), `oracle-check` (the self-consistency oracle suite) and
`spectrum` (emission spectral amplitude of the free-space toy model).

Configuration is a flat key/value JSON file plus `--key value` flags, flags
winning.  All inputs are dimensionless in units of the ion-cavity coupling g.
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
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analytic import EmitterParams, emission_norm, emission_amplitude
from .experiments import run_redistribution, sweep
from .model import SystemParams
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

_PARAM_KEYS = {
    "omega": float,
    "kappa": float,
    "delta": float,
    "eta": float,
    "lambda": float,
    "gamma": float,
    "gamma_ca": float,
    "gamma_cb": float,
    "phi": float,
    "dt": float,
    "T": float,
    "T2": float,
    "n_max": int,
    "adiabatic": bool,
}
_RUN_KEYS = {
    "command": str,
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
_ALL_KEYS = {**_PARAM_KEYS, **_RUN_KEYS}


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

    Unknown keys are rejected; flags take precedence over file values;
    defaults follow the standard operating point (omega = g, kappa = 10 g,
    delta = 20 g, T = 100/g, T2 = 100 T).
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
    gamma = vals.pop("gamma", None)
    gamma_ca = vals.get("gamma_ca", gamma if gamma is not None else 0.0)
    gamma_cb = vals.get("gamma_cb", gamma if gamma is not None else 0.0)

    t_wait = vals.get("T", 100.0)
    t_wait2 = vals.get("T2", 100.0 * t_wait)
    adiabatic = vals.get("adiabatic", gamma_ca == 0.0 and gamma_cb == 0.0)

    try:
        params = SystemParams(
            g=1.0,
            omega=vals.get("omega", 1.0),
            delta=vals.get("delta", 20.0),
            kappa=vals.get("kappa", 10.0),
            gamma_ca=gamma_ca,
            gamma_cb=gamma_cb,
            eta=vals.get("eta", 1.0),
            lam=vals.get("lambda", 1.0),
            phi=vals.get("phi", 0.0),
            dt=vals.get("dt", 0.01),
            t_wait=t_wait,
            t_wait2=t_wait2,
            n_max=vals.get("n_max", 1),
            adiabatic=adiabatic,
        )
    except ValueError as exc:
        key = _offending_key(exc)
        raise ConfigError(f"value out of range for key '{key}': {exc}") from None

    fmt = vals.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"invalid value for key 'format': {fmt!r} (want csv or json)")
    engine = vals.get("engine", "fast")
    if engine not in ("fast", "fixed"):
        raise ConfigError(f"invalid value for key 'engine': {engine!r} (want fast or fixed)")
    param = vals.get("param", "eta")
    if command == "entangle-sweep" and param not in ("eta", "lambda", "gamma"):
        raise ConfigError(f"invalid value for key 'param': {param!r}")
    threads = vals.get("threads", 1)
    if threads < 1:
        raise ConfigError(f"value out of range for key 'threads': {threads}")
    default_n = 10000 if command == "redistribute" else 100000
    n_traj = vals.get("n_traj", default_n)
    if n_traj < 1:
        raise ConfigError(f"value out of range for key 'n_traj': {n_traj}")

    grid = vals.get("grid")
    if grid is None:
        grid = DEFAULT_GRIDS["phi"] if command == "redistribute" else DEFAULT_GRIDS[param]

    return RunConfig(
        command=command,
        params=params,
        n_traj=n_traj,
        seed=vals.get("seed", 0),
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


_CLI_KEYS = {"lam": "lambda", "t_wait": "T", "t_wait2": "T2"}


def _offending_key(exc: Exception) -> str:
    """CLI key of the SystemParams field a validation message starts with."""
    field = str(exc).split(" ", 1)[0]
    if field in {f.name for f in dataclasses.fields(SystemParams)}:
        return _CLI_KEYS.get(field, field)
    return "params"


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
         (1.0 + math.cos(pt.value)) / 2.0]
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
            if key == "command":
                continue
            dest = "lam_" if key == "lambda" else key
            if typ is bool:
                p.add_argument(f"--{key}", dest=dest, default=None, choices=["true", "false"])
            elif typ is tuple:
                p.add_argument(f"--{key}", dest=dest, default=None,
                               help="comma-separated values")
            else:
                p.add_argument(f"--{key}", dest=dest, default=None, type=str)
    return parser


_COMMANDS = {
    "entangle-sweep": _cmd_entangle_sweep,
    "redistribute": _cmd_redistribute,
    "oracle-check": _cmd_oracle_check,
    "spectrum": _cmd_spectrum,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {}
    for key in _ALL_KEYS:
        if key == "command":
            continue
        dest = "lam_" if key == "lambda" else key
        val = getattr(args, dest, None)
        if val is not None:
            overrides[key] = val
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
