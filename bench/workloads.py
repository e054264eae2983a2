"""The benchmark's workloads: what each one runs through the public API, the
check its output must pass, and the result rows its digest is taken over.

Each workload fixes its parameters, grid and trajectory count.  The only
input drawn from the benchmark seed is the master seed handed to homsim, so
one seed always gives the same inputs and the same outputs.  bench/README.md
gives the reason for each workload.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from homsim.experiments import run_redistribution, sweep
from homsim.hilbert import BasisIndex, OperatorMatrix, embed, fock_destroy
from homsim.lindblad import ensemble_compare
from homsim.model import SystemParams

# output checks; tolerances are multiples of the stderr each run reports
K_STDERR = 3.0
# per phase of redistribute-phi: a run checks five independent phases (phi and
# 2*pi - phi give equal results, 0 and pi are exact), whose z-scores are
# close to N(0, 1), so 3 stderr would fail 1.3 % of runs of sound output;
# 4 stderr fails 0.03 %
K_PHASE = 4.0
Z_LIMIT = 3.0        # oracle z-scores, acceptance criterion 7's bar

REDUCED = SystemParams(adiabatic=True)    # adiabatically reduced generator
FULL = SystemParams(adiabatic=False)      # three-level generator


@dataclass(frozen=True)
class Workload:
    """One fixed experiment.  A pass runs every value of `grid` once, each as
    its own call into homsim; each call is one grid-point estimate."""

    name: str
    params: SystemParams
    grid: tuple               # one entry per grid point of a pass
    n_traj: int               # trajectories per grid point
    threads: int
    first_engine: SystemParams    # parameters of the first StageEngine it builds
    run: Callable             # (workload, grid value, master seed) -> estimate
    check: Callable           # (workload, one pass's estimates) -> ok per point

    @property
    def traj_per_pass(self) -> int:
        return self.n_traj * len(self.grid)

    def master_seed(self, seed: int) -> int:
        """The seed homsim receives, derived from the benchmark seed."""
        digest = hashlib.sha256(f"{self.name}/{seed}".encode()).digest()
        return int.from_bytes(digest[:8], "little") >> 1


# one grid-point estimate per workload kind

def sweep_point(param: str) -> Callable:
    def run(w: Workload, value, master_seed: int):
        res = sweep(w.params, param, [value], w.n_traj, master_seed, sampler="fast",
                    threads=w.threads)
        return res.points[0]

    return run


def redistribution_point(w: Workload, phi, master_seed: int):
    res = run_redistribution(w.params, [phi], w.n_traj, master_seed, sampler="fast",
                             threads=w.threads)
    return res.points[0]


def oracle_point(w: Workload, t_grid, master_seed: int):
    return ensemble_compare(w.params, oracle_observables(w.params), t_grid, w.n_traj,
                            master_seed)


# output checks: whether each grid point of one pass passed.  A point that
# raised is None and fails; a check over the whole curve fails every point
# on it.

def herald_check(w: Workload, results: list) -> list[bool]:
    ok = None not in results and proportional(
        w.grid, [r.p_hat for r in results], [r.p_stderr for r in results])
    return [ok] * len(results)


def decay_check(w: Workload, results: list) -> list[bool]:
    ok = None not in results and (
        non_increasing([r.p_hat for r in results], [r.p_stderr for r in results])
        and non_increasing([r.f_hat for r in results], [r.f_stderr for r in results])
    )
    return [ok] * len(results)


def redistribution_check(w: Workload, results: list) -> list[bool]:
    return [r is not None and redistribution_ok(r) for r in results]


def oracle_check(w: Workload, results: list) -> list[bool]:
    return [r is not None and r.max_abs_z <= Z_LIMIT for r in results]


def oracle_observables(p: SystemParams) -> list[tuple[str, OperatorMatrix]]:
    """Photon number in cavity 1 and the population with both ions in |a>."""
    c1 = embed(fock_destroy(p.n_max + 1), 2, p.dims)
    n_c1 = OperatorMatrix(c1.entries.conj().T @ c1.entries, p.dims)
    proj = np.zeros((math.prod(p.dims),) * 2, dtype=complex)
    for a1 in range(p.n_max + 1):
        for a2 in range(p.n_max + 1):
            k = BasisIndex("a", "a", a1, a2).flatten(p.dims)
            proj[k, k] = 1.0
    return [("n_c1", n_c1), ("pop_aa", OperatorMatrix(proj, p.dims))]


def proportional(x, y, stderrs) -> bool:
    """Every y within K_STDERR standard errors of the least-squares line
    through the origin, y = s*x."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    slope = float(np.sum(x * y) / np.sum(x * x))
    return bool(np.all(np.abs(y - slope * x) <= K_STDERR * np.asarray(stderrs, float)))


def non_increasing(values, stderrs) -> bool:
    """No step up larger than K_STDERR combined standard errors."""
    return all(
        b - a <= K_STDERR * math.hypot(sa, sb)
        for a, b, sa, sb in zip(values, values[1:], stderrs, stderrs[1:])
    )


def redistribution_ok(pt) -> bool:
    theory = (1.0 + math.cos(pt.value)) / 2.0
    return abs(pt.ps_hat - theory) <= K_PHASE * pt.ps_stderr


def result_rows(result) -> list[str]:
    """Result rows at 17 significant digits (None and NaN spelled out)."""

    def fmt(v: Optional[float]) -> str:
        return "None" if v is None else f"{v:.17g}"

    if result is None:
        return ["error"]
    if hasattr(result, "z_scores"):
        rows = []
        for a, name in enumerate(result.observable_names):
            for j, t in enumerate(result.t_grid):
                vals = (t, result.traj_mean[a, j], result.traj_stderr[a, j],
                        result.lindblad_value[a, j], result.z_scores[a, j])
                rows.append(name + "," + ",".join(fmt(float(v)) for v in vals))
        return rows
    fields = ("value", "n_traj", "p_hat", "p_stderr", "f_hat", "f_stderr", "ps_hat",
              "ps_stderr", "two_click_fraction")
    return [result.param + "," + ",".join(fmt(getattr(result, f)) for f in fields)]


def digest(workload: Workload, results: list) -> str:
    """SHA-256 over one pass's result rows."""
    h = hashlib.sha256(workload.name.encode())
    for r in results:
        for row in result_rows(r):
            h.update(b"\n" + row.encode())
    return h.hexdigest()


ETA = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
GAMMA = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
PHI = tuple(k * math.pi / 6.0 for k in range(13))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("herald-eta", REDUCED, ETA, n_traj=5000, threads=1,
                 first_engine=REDUCED.with_(eta=ETA[0]), run=sweep_point("eta"),
                 check=herald_check),
        Workload("decay-gamma", FULL, GAMMA, n_traj=1000, threads=1,
                 first_engine=FULL.with_(gamma_ca=GAMMA[0], gamma_cb=GAMMA[0]),
                 run=sweep_point("gamma"), check=decay_check),
        Workload("redistribute-phi", REDUCED, PHI, n_traj=10_000, threads=2,
                 first_engine=REDUCED.with_(phi=PHI[0]), run=redistribution_point,
                 check=redistribution_check),
        # one grid point: the whole time grid goes into a single call
        Workload("oracle-me", FULL, ((1.0, 5.0, 10.0),), n_traj=5000, threads=1,
                 first_engine=FULL, run=oracle_point, check=oracle_check),
    )
}
