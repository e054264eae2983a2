"""Golden outputs: the results of every sampler path at fixed seeds.

tests/test_golden.py recomputes them and holds them to tests/golden/outputs.json:
integer columns and lists equal, floats within 1e-12 relative, and the CSV
bytes of the fixed engine's stage 1 and of the spectrum by their SHA-256.  A
change that moves these outputs on purpose rewrites the file, in the same
commit, with

    PYTHONPATH=src python tests/golden_outputs.py

which prints the entries that moved, and says which moved and why.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from homsim.cli import main
from homsim.experiments import _protocol_chunk, _protocol_point, _stage1_chunk, _stage1_point
from homsim.model import SystemParams
from homsim.lindblad import ensemble_compare
from homsim.oracles import ensemble_observables, fast_vs_fixed, waiting_time_ks
from homsim.rng import StreamBlock
from homsim.trajectory import StageEngine, run_protocol, run_windows

FIXTURE = Path(__file__).with_name("golden") / "outputs.json"
REL = 1e-12   # the relative tolerance of a float
N_STAGE1 = 3000
N_PROTOCOL = 2000

# the stage-1 batch: both generators, lost photons and spontaneous decay
STAGE1 = {
    "stage1-reduced-eta": (SystemParams(adiabatic=True, eta=0.7), 11),
    "stage1-full-gamma-eta": (SystemParams(adiabatic=False, gamma_ca=0.3, gamma_cb=0.3,
                                           eta=0.7), 12),
    "stage1-full-gamma": (SystemParams(adiabatic=False, gamma_ca=0.5, gamma_cb=0.2), 13),
    "stage1-reduced-n2": (SystemParams(adiabatic=True, n_max=2, eta=0.8, lam=2.0), 14),
}
# the protocol at two phases: scalar first windows, batched second windows
PROTOCOL = {
    f"protocol-phi-{name}": (SystemParams(adiabatic=False, gamma_ca=0.2, gamma_cb=0.2, eta=0.8,
                                          phi=phi, t_wait2=2000.0), 21)
    for name, phi in (("pi/3", math.pi / 3), ("pi", math.pi))
}
# the fixed-step sampler's protocol: second windows of 2500 steps, more than
# one replay block, where a few dozen second photons click
FIXED_PROTOCOL = (SystemParams(adiabatic=True, omega=5.0, delta=10.0, eta=0.8, phi=math.pi / 3,
                               t_wait=5.0, t_wait2=25.0), 22)
N_FIXED_PROTOCOL = 200
# the oracle suite's KS records, at run_suite's seed offsets for master seed 0
ORACLE_PARAMS = SystemParams()
N_ORACLE_KS = 1000
# the unconditioned walk, driven hard enough that about one trajectory in
# seven jumps by t = 1
WALK = (SystemParams(omega=2.0, delta=5.0, kappa=5.0, eta=0.8), (0.25, 0.5, 1.0), 3)
N_WALK = 200
# the fixed-step sampler's stage 1, through the command line
FIXED_ARGV = ["entangle-sweep", "--engine", "fixed", "--param", "eta", "--grid", "0.6,1.0",
              "--n_traj", "300", "--seed", "31", "--adiabatic", "0", "--gamma", "0.2"]
# the free-space emission spectrum at its defaults, through the command line
SPECTRUM_ARGV = ["spectrum"]


def _floats(point, names) -> dict:
    return {name: getattr(point, name) for name in names}


def stage1_entry(params: SystemParams, seed: int) -> dict:
    batch = run_windows(StageEngine(params), StreamBlock(seed, 0, N_STAGE1), params.t_wait)
    point = _stage1_point("", math.nan, *_stage1_chunk((params, seed, 0, N_STAGE1, "fast")))
    return {"channel": batch.channel.tolist(), "jumps": batch.jumps.tolist(),
            **_floats(point, ("p_hat", "f_hat"))}


def protocol_entry(params: SystemParams, seed: int, n: int = N_PROTOCOL,
                   sampler: str = "fast") -> dict:
    n_clicks, same_tag, fid = _protocol_chunk((params, seed, 0, n, sampler))
    point = _protocol_point("phi", params.phi, n_clicks, same_tag, fid)
    return {"n_clicks": n_clicks.tolist(), "same_tag": same_tag.astype(int).tolist(),
            **_floats(point, ("p_hat", "f_hat", "ps_hat", "two_click_fraction"))}


def fixed_protocol_entry(params: SystemParams, seed: int) -> dict:
    """The chunk's columns and estimates, and the second-click times of the
    same streams' scalar protocol runs, which a hit moved by one step moves."""
    entry = protocol_entry(params, seed, N_FIXED_PROTOCOL, "fixed")
    engine, block = StageEngine(params), StreamBlock(seed, 0, N_FIXED_PROTOCOL)
    two = [i for i, n in enumerate(entry["n_clicks"]) if n == 2]
    entry["second_time"] = [run_protocol(engine, block.stream(i), sampler="fixed").second.time
                            for i in two]
    return entry


def oracle_entries() -> dict:
    ideal = ORACLE_PARAMS.with_(gamma_ca=0.0, gamma_cb=0.0, eta=1.0, adiabatic=False)
    records = [*waiting_time_ks(ORACLE_PARAMS, N_ORACLE_KS, 1, 11),
               fast_vs_fixed(ideal, N_ORACLE_KS, 2, 12)]
    return {f"oracle-{rec['name']}": rec for rec in records}


def walk_entry(params: SystemParams, t_grid, seed: int) -> dict:
    report = ensemble_compare(params, ensemble_observables(params), t_grid, N_WALK, seed)
    return {name: getattr(report, name).tolist()
            for name in ("traj_mean", "traj_stderr", "z_scores")}


def csv_sha256(argv: list[str]) -> str:
    """The SHA-256 of the CSV that the command line argv writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                code = main(argv + ["--out", out])
            finally:
                sys.stdout = stdout
        assert code == 0, code
        return hashlib.sha256(Path(out).read_bytes()).hexdigest()


def compute() -> dict:
    """Every entry of the fixture, computed by the code as it is now."""
    entries = {name: stage1_entry(*case) for name, case in STAGE1.items()}
    entries.update({name: protocol_entry(*case) for name, case in PROTOCOL.items()})
    entries["fixed-stage1-csv"] = {"sha256": csv_sha256(FIXED_ARGV)}
    entries["spectrum-csv"] = {"sha256": csv_sha256(SPECTRUM_ARGV)}
    entries["fixed-protocol"] = fixed_protocol_entry(*FIXED_PROTOCOL)
    entries.update(oracle_entries())
    entries["unconditioned-walk"] = walk_entry(*WALK)
    return entries


def _same(mine, value) -> bool:
    if isinstance(value, float) and isinstance(mine, float):
        # json writes a NaN as NaN, which it reads back as a float
        return (math.isnan(mine) and math.isnan(value)) or abs(mine - value) <= REL * abs(value)
    return mine == value


def moved(want: dict, got: dict) -> dict:
    """The entries of want that got does not reproduce, each with the keys
    that differ: integers, strings and lists unequal, floats by more than
    REL relative; None for an entry got lacks or whose keys differ."""
    out = {}
    for name, entry in want.items():
        mine = got.get(name)
        if mine is None or mine.keys() != entry.keys():
            out[name] = None
            continue
        keys = [key for key, value in entry.items() if not _same(mine[key], value)]
        if keys:
            out[name] = keys
    return out


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    entries = compute()
    if FIXTURE.exists():
        old = json.loads(FIXTURE.read_text())["entries"]
        for name, keys in moved(old, entries).items():
            print(f"moved: {name}" + (f" ({', '.join(keys)})" if keys else ""))
        for name in entries:
            if name not in old:
                print(f"new: {name}")
    lines = [f" {json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}"
             for name, entry in entries.items()]
    FIXTURE.write_text(f'{{"versions": {json.dumps(versions())},\n"entries": {{\n'
                       + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {FIXTURE}")
