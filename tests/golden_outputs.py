"""Golden outputs: the results of every sampler path at fixed seeds.

tests/test_golden.py recomputes them and holds them to tests/golden/outputs.json:
integer columns equal, floats within 1e-12 relative, and the fixed engine's
CSV bytes by their SHA-256.  A change that moves these outputs on purpose
rewrites the file, in the same commit, with

    PYTHONPATH=src python tests/golden_outputs.py

and says which entries moved and why.
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
from homsim.rng import StreamBlock
from homsim.trajectory import StageEngine, run_windows

FIXTURE = Path(__file__).with_name("golden") / "outputs.json"
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
# the fixed-step sampler's stage 1, through the command line
FIXED_ARGV = ["entangle-sweep", "--engine", "fixed", "--param", "eta", "--grid", "0.6,1.0",
              "--n_traj", "300", "--seed", "31", "--adiabatic", "0", "--gamma", "0.2"]


def _floats(point, names) -> dict:
    return {name: getattr(point, name) for name in names}


def stage1_entry(params: SystemParams, seed: int) -> dict:
    batch = run_windows(StageEngine(params), StreamBlock(seed, 0, N_STAGE1), params.t_wait)
    point = _stage1_point("", math.nan, *_stage1_chunk((params, seed, 0, N_STAGE1, "fast")))
    return {"channel": batch.channel.tolist(), "jumps": batch.jumps.tolist(),
            **_floats(point, ("p_hat", "f_hat"))}


def protocol_entry(params: SystemParams, seed: int) -> dict:
    n_clicks, same_tag, fid = _protocol_chunk((params, seed, 0, N_PROTOCOL, "fast"))
    point = _protocol_point("phi", params.phi, n_clicks, same_tag, fid)
    return {"n_clicks": n_clicks.tolist(), "same_tag": same_tag.astype(int).tolist(),
            **_floats(point, ("p_hat", "f_hat", "ps_hat", "two_click_fraction"))}


def fixed_csv_sha256() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "fixed.csv")
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                code = main(FIXED_ARGV + ["--out", out])
            finally:
                sys.stdout = stdout
        assert code == 0, code
        return hashlib.sha256(Path(out).read_bytes()).hexdigest()


def compute() -> dict:
    """Every entry of the fixture, computed by the code as it is now."""
    entries = {name: stage1_entry(*case) for name, case in STAGE1.items()}
    entries.update({name: protocol_entry(*case) for name, case in PROTOCOL.items()})
    entries["fixed-stage1-csv"] = {"sha256": fixed_csv_sha256()}
    return entries


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(name)}: {json.dumps(entry, separators=(',', ':'))}"
             for name, entry in compute().items()]
    FIXTURE.write_text(f'{{"versions": {json.dumps(versions())},\n"entries": {{\n'
                       + ",\n".join(lines) + "\n}}\n")
    print(f"wrote {FIXTURE}")
