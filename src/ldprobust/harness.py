"""Seeded experiment cells, CSV sweeps and rate-scaling analysis.

A sweep enumerates the cross product of parameter grids, runs `trials`
independent trials per cell and writes one CSV row per trial.  Per-trial
randomness is derived from (master seed, cell index, trial index), so results
are independent of scheduling and the CSV is byte-identical across reruns and
thread counts.  Wall-clock timings are therefore excluded from primary
outputs: the wall_ms column is written as 0.

TrialCell is the one place that knows a cell's fields, attack parameters,
defaults and valid values; SweepConfig, its JSON reader, the CLI and the
output rows derive theirs from it.  Building a cell converts and checks all
of its settings, once, so a sweep fails before its first trial or runs
exactly the cells its config names.  The cell keeps its channel, estimator
config and converted attack parameters, which run_trial reads as they are;
only the hard pair, which holds arrays, is built per trial.  The cell makes
the trial's O(1) checks of the hard pair and of the exact sums itself, where
a trial would make them, so that such a setting fails before a sweep's
first trial.

Parallel sweeps run on one warm process pool kept by this module.  Its workers
are forked at the first sweep with threads > 1 and reused by every later
sweep with the same worker count; a sweep with another count joins the old
pool before forking the new one.  The pool is joined at interpreter exit, and
each worker exits by itself within about a second of its parent's death.
Workers see the module state of the moment they were forked: a monkeypatch
made after that fork is not seen by them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional, get_type_hints

import numpy as np

from .adversary import (
    AttackSpec,
    BatchCollection,
    LABEL_ADVERSARIAL,
    contaminate,
    make_clean_collection,
)
from .channel import RapporChannel
from .errors import InsufficientData, InvalidArgument, InvalidConfig
from .estimator import (
    DESK_TAU_THRESHOLD,
    EstimatorConfig,
    check_exact_bounds,
    naive_estimate,
    robust_estimate,
)
from .lowerbound import check_hard_pair, hard_pair
from .prob import ProbVector, RngSeed, l1_dist, make_prob_vector

#: The cell fields a sweep varies; SweepConfig lists the values of each in <axis>_grid.
GRID_AXES = ("n", "k", "d", "alpha", "eps")
#: The columns of a result row read from its cell, then those read from the result.
CELL_COLUMNS = (*GRID_AXES, "attack")
TRIAL_COLUMNS = ("trial", "seed", "l1_robust", "l1_robust_norm", "l1_naive",
                 "deleted_good", "deleted_bad", "iterations", "final_tau")
CSV_COLUMNS = [*CELL_COLUMNS, *TRIAL_COLUMNS, "wall_ms"]

P_FAMILIES = ("uniform", "dirichlet", "point_heavy")
ATTACKS = ("all_ones", "all_zeros", "swap_mix", "swap_uniform", "targeted_subset",
           "hard_pair_swap")


def format_float(x: float) -> str:
    """Decimal rendering with 17 significant digits (shortest exact round trip)."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def _real(value) -> float:
    """float(value) for a value that is not a bool, which float() would take as 0 or 1."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _whole(value) -> int:
    """int(value) for a whole number; a bool, or a float with a fraction, which
    int() would truncate, raises TypeError."""
    number = int(value)
    if isinstance(value, (bool, np.bool_, float)) and number != _real(value):
        raise TypeError(f"{value!r} is not a whole number")
    return number


def _convert(values: dict, kinds: dict) -> None:
    """Replace each named entry of values by kinds[name](entry).

    A value the conversion rejects raises InvalidConfig.  A frozen
    dataclass passes vars(self).
    """
    for name, kind in kinds.items():
        value = values[name]
        try:
            values[name] = kind(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"{name}={value!r}: {exc}") from exc


#: The parameters each attack reads: name -> (conversion, default given d,
#: whether a converted value is valid given d, the valid values in words).
#: The other attacks read none.
_ATTACK_PARAMS = {
    "swap_mix": {"mix": (_real, lambda d: 0.5, lambda v, d: 0.0 <= v <= 1.0, "in [0, 1]")},
    "targeted_subset": {
        "subset_size": (_whole, lambda d: max(1, d // 2), lambda v, d: 1 <= v <= d, "in [1, d]"),
        "direction": (_whole, lambda d: 1, lambda v, d: v in (-1, 1), "+1 or -1"),
        "magnitude": (_real, lambda d: 1.0, lambda v, d: 0.0 <= v <= 1.0, "in [0, 1]"),
    },
}


@dataclass(frozen=True)
class TrialCell:
    """One experiment cell: the fields, defaults and valid values of a trial.

    Construction converts and checks every setting, once: each field is
    converted to its annotated type, an integer field only from a whole
    number and no number field from a bool.  A value that does not convert,
    n below 2, k below 1, eps outside [0, 1/4), an attack or p family not in
    ATTACKS or P_FAMILIES, or an attack parameter that the attack does not
    read (see _ATTACK_PARAMS) or that lies outside its valid values raises
    InvalidConfig.  The cell then keeps what every trial would otherwise
    re-derive: its channel, so that RapporChannel.create checks d and alpha,
    its EstimatorConfig, which checks tau_threshold, and its attack
    parameters converted, defaults filled in.  attack_params itself is kept
    as given, for hash_cell.  Last, where a trial would raise on them, it
    raises the errors of the trial's own O(1) checks: check_hard_pair's for
    hard_pair_swap at eps > 0, and check_exact_bounds' when floor(eps n) > 0.
    """

    n: int
    k: int
    d: int
    alpha: float
    eps: float
    attack: str = "all_ones"
    attack_params: dict = field(default_factory=dict)
    p_family: str = "dirichlet"
    tau_threshold: float = DESK_TAU_THRESHOLD
    _params: dict = field(init=False, repr=False, compare=False)
    _channel: RapporChannel = field(init=False, repr=False, compare=False)
    _config: EstimatorConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _convert(vars(self), _CELL_TYPES)
        if self.n < 2 or self.k < 1:
            raise InvalidConfig(f"need n >= 2 and k >= 1, got n={self.n}, k={self.k}")
        # also rejects NaN and +-inf, before floor(n * eps) sizes the attack
        if not 0.0 <= self.eps < 0.25:
            raise InvalidConfig(f"eps must lie in [0, 1/4), got {self.eps}")
        if self.p_family not in P_FAMILIES:
            raise InvalidConfig(f"unknown p family {self.p_family!r}")
        if self.attack not in ATTACKS:
            raise InvalidConfig(f"unknown attack {self.attack!r}")
        vars(self).update(
            _channel=RapporChannel.create(self.d, self.alpha), _params={},
            _config=EstimatorConfig(eps=self.eps, tau_threshold=self.tau_threshold))
        table = _ATTACK_PARAMS.get(self.attack, {})
        for key in self.attack_params:
            if key not in table:
                raise InvalidConfig(f"attack {self.attack} reads no parameter {key!r}")
        for key, (kind, default, valid, values) in table.items():
            self._params[key] = self.attack_params.get(key, default(self.d))
            _convert(self._params, {key: kind})
            if not valid(self._params[key], self.d):
                raise InvalidConfig(
                    f"attack parameter {key}={self._params[key]!r} is not {values} at d={self.d}")
        if self.attack == "hard_pair_swap" and self.eps > 0.0:
            check_hard_pair(self._channel, self.eps, self.k)
        if math.floor(self.n * self.eps) > 0:
            check_exact_bounds(self.n, self.k)


# each field's conversion: an int field by _whole, a float field by _real,
# any other by its annotated type
_CELL_TYPES = {name: {int: _whole, float: _real}.get(kind, kind)
               for name, kind in get_type_hints(TrialCell).items() if not name.startswith("_")}


@dataclass
class TrialResult:
    cell: TrialCell
    trial: int
    seed: int
    l1_robust: float
    l1_robust_norm: float
    l1_naive: float
    deleted_good: int
    deleted_bad: int
    iterations: int
    final_tau: float

    @property
    def alpha_exceeds_theory(self) -> bool:
        return self.cell._channel.exceeds_theory_range

    def _record(self) -> dict:
        """The result's values in CSV_COLUMNS order, wall_ms 0."""
        record = {name: getattr(self.cell, name) for name in CELL_COLUMNS}
        record.update({name: getattr(self, name) for name in TRIAL_COLUMNS}, wall_ms=0)
        return record

    def csv_row(self) -> list[str]:
        return [format_float(v) if isinstance(v, float) else str(v)
                for v in self._record().values()]

    def to_json_dict(self) -> dict:
        record = self._record()
        if math.isnan(record["final_tau"]):
            record["final_tau"] = None
        record["alpha_exceeds_theory"] = self.alpha_exceeds_theory
        return record


def trial_collection(cell: TrialCell, rng: RngSeed) -> tuple[ProbVector, BatchCollection]:
    """A trial's target p and its collection of n batches, floor(eps n) of them
    adversarial, drawn from rng as run_trial draws them.

    p is drawn from the cell's p family with rng.child(1), the clean batches
    with rng.child(2).child(10) and the contamination with rng.child(2).child(12).
    For hard_pair_swap at eps > 0, p is the certified pair's p instead and
    the adversarial batches simulate its companion q, which is the scenario
    the indistinguishability construction speaks about.  swap_mix swaps in a
    mixture of the target with a point mass, a fixed-shape contamination the
    filter cannot tell apart batchwise.  Each step is called through this
    module's globals, so a wrapper set on them sees it.
    """
    ch, params, d = cell._channel, cell._params, cell.d
    if cell.attack == "hard_pair_swap" and cell.eps > 0.0:
        pair = hard_pair(ch, eps=cell.eps, k=cell.k)
        p = pair.p
    elif cell.p_family == "uniform":
        p = ProbVector(np.full(d, 1.0 / d))
    else:
        w = rng.child(1).generator().dirichlet(np.ones(d))
        if cell.p_family == "point_heavy":
            w = 0.3 * w
            w[0] += 0.7
        p = make_prob_vector(w)
    draws = rng.child(2)
    n_adv = math.floor(cell.n * cell.eps)
    coll = make_clean_collection(ch, p, cell.n - n_adv, cell.k, draws.child(10))
    if cell.eps == 0.0:
        return p, coll
    if cell.attack == "hard_pair_swap":
        attack = AttackSpec(kind="swap_distribution", q=pair.q)
    elif cell.attack == "swap_mix":
        w = (1.0 - params["mix"]) * p.weights
        w[0] += params["mix"]
        attack = AttackSpec(kind="swap_distribution", q=make_prob_vector(w))
    elif cell.attack == "swap_uniform":
        attack = AttackSpec(kind="swap_distribution", q=ProbVector(np.full(d, 1.0 / d)))
    elif cell.attack == "targeted_subset":
        attack = AttackSpec(kind="targeted_subset", mask=np.arange(d) < params["subset_size"],
                            direction=params["direction"], magnitude=params["magnitude"])
    else:
        attack = AttackSpec(kind=cell.attack)
    return p, contaminate(coll, attack, cell.eps, cell.n, ch, draws.child(12))


def run_trial(cell: TrialCell, trial: int, master_seed: int) -> TrialResult:
    """One full generate / contaminate / estimate cycle with derived randomness:
    trial_collection draws from base = RngSeed(master_seed).child(hash_cell(cell),
    trial), and the robust estimate from base.child(3)."""
    if trial < 0:
        raise InvalidArgument(f"trial must be nonnegative, got {trial}")
    base = RngSeed(master_seed).child(hash_cell(cell), trial)
    p, coll = trial_collection(cell, base)
    robust = robust_estimate(coll, cell._config, cell._channel, base.child(3))
    naive = naive_estimate(coll, cell._channel)

    deleted = robust.deleted_indices()
    if coll.truth is not None and deleted.size:
        bad = int((coll.truth[deleted] == LABEL_ADVERSARIAL).sum())
    else:
        bad = 0
    return TrialResult(
        cell=cell, trial=trial, seed=master_seed,
        l1_robust=l1_dist(robust.phat, p.weights),
        l1_robust_norm=l1_dist(robust.phat_normalized, p.weights),
        l1_naive=l1_dist(naive.phat, p.weights),
        deleted_good=int(deleted.size - bad), deleted_bad=bad,
        iterations=robust.iterations, final_tau=robust.final_tau,
    )


def hash_cell(cell: TrialCell) -> int:
    """Stable small integer identifying a cell inside seed derivations."""
    payload = json.dumps({
        "n": cell.n, "k": cell.k, "d": cell.d,
        "alpha": format_float(cell.alpha), "eps": format_float(cell.eps),
        "attack": cell.attack, "params": sorted(cell.attack_params.items()),
        "p_family": cell.p_family,
    }, sort_keys=True)
    import hashlib
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:6], "big")


def _grid_of(kind):
    """Conversion of a grid: a tuple of its values, each converted by kind.  A
    string is not a grid of its characters, nor a mapping of its keys: either
    raises TypeError."""
    def convert(values):
        if isinstance(values, (str, bytes, dict)):
            raise TypeError("a grid is a list of values")
        return tuple(map(kind, values))
    return convert


@dataclass(frozen=True)
class SweepConfig:
    """The cells of the cross product of the grids, each run `trials` times.

    The fields besides the grids, trials and seed are shared by every cell,
    with TrialCell's defaults.  Construction converts every value and builds
    the cells, so a value that does not convert or that a cell rejects raises
    InvalidConfig before any trial runs.
    """

    n_grid: tuple
    k_grid: tuple
    d_grid: tuple
    alpha_grid: tuple
    eps_grid: tuple
    attack: str = TrialCell.attack
    attack_params: dict = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    p_family: str = TrialCell.p_family
    tau_threshold: float = TrialCell.tau_threshold
    _cells: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kinds = {"trials": _whole, "seed": _whole}
        for name, kind in _CELL_TYPES.items():
            if name in GRID_AXES:
                kinds[f"{name}_grid"] = _grid_of(kind)
            else:
                kinds[name] = kind
        _convert(vars(self), kinds)
        grids = [getattr(self, f"{axis}_grid") for axis in GRID_AXES]
        for axis, grid in zip(GRID_AXES, grids):
            if not grid:
                raise InvalidConfig(f"{axis}_grid must be nonempty")
        if self.trials < 1:
            raise InvalidConfig("trials must be >= 1")
        shared = {name: getattr(self, name) for name in _CELL_TYPES if name not in GRID_AXES}
        object.__setattr__(self, "_cells", tuple(
            TrialCell(**dict(zip(GRID_AXES, values)), **shared)
            for values in itertools.product(*grids)))

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        """Parse a JSON sweep config; malformed text, a key that is not a field,
        a missing grid or a bad value raises InvalidConfig."""
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise InvalidConfig(f"sweep config is not valid JSON: {exc}") from exc
        try:
            return cls(**raw)
        except TypeError as exc:  # not an object, a key that is no field, or a missing grid
            raise InvalidConfig(f"malformed sweep config: {exc}") from exc

    def cells(self) -> list[TrialCell]:
        return list(self._cells)


def _run_job(args) -> TrialResult:
    cell, trial, seed = args
    return run_trial(cell, trial, seed)


#: Seconds between a worker's checks that its parent is alive.
_PARENT_POLL_S = 0.2

# The warm pool of parallel sweeps and its worker count; the lock serializes
# sweeps that share it.
_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _exit_with_parent() -> None:
    """Pool initializer: end this worker soon after its parent process dies.

    An orphaned worker is reparented, so its parent pid changes; a daemon
    thread polls for that and exits the process.
    """
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _worker_pool(threads: int) -> ProcessPoolExecutor:
    """The warm pool with `threads` workers, replacing one of another count."""
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != threads:
        _discard_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=threads, initializer=_exit_with_parent)
        _pool_workers = threads
    return _pool


def _discard_pool() -> None:
    """Join the warm pool's workers and threads and forget it."""
    global _pool
    pool, _pool = _pool, None
    pool.shutdown(wait=True, cancel_futures=True)


def run_sweep(cfg: SweepConfig, threads: int = 1) -> list[TrialResult]:
    """Execute all trials; output order is (cell, trial) regardless of scheduling.

    With threads > 1 and more than one job, the trials run on the module's
    warm pool (see the module docstring): forked at the first parallel sweep,
    reused afterwards and joined at interpreter exit.  A pool found broken
    when the jobs are submitted (a worker died between sweeps) is replaced;
    one that breaks during the sweep is discarded and BrokenProcessPool is
    raised.  threads=0 uses one worker per CPU.
    """
    jobs = [(cell, trial, cfg.seed)
            for cell in cfg.cells() for trial in range(cfg.trials)]
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads < 2 or len(jobs) < 2:
        return [_run_job(job) for job in jobs]
    with _pool_lock:
        try:
            pending = _worker_pool(threads).map(_run_job, jobs)
        except BrokenProcessPool:
            _discard_pool()
            pending = _worker_pool(threads).map(_run_job, jobs)
        try:
            results = list(pending)
        except BrokenProcessPool:
            _discard_pool()
            raise
    # each result arrives with its own unpickled copy of its cell; share the
    # caller's, as the serial path does, which halves a result's memory
    for res, (cell, _, _) in zip(results, jobs):
        res.cell = cell
    return results


def write_csv(results: list[TrialResult], path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for res in results:
        writer.writerow(res.csv_row())
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())


def sweep(cfg: SweepConfig, out_path, threads: int = 1) -> list[TrialResult]:
    """Run the configured sweep and persist one CSV row per trial."""
    results = run_sweep(cfg, threads=threads)
    write_csv(results, out_path)
    return results


@dataclass(frozen=True)
class RateFitReport:
    axis: str
    slope: float
    stderr: float
    axis_values: tuple
    medians: tuple


def rate_fit(csv_path, axis: str) -> RateFitReport:
    """Log-log least-squares slope of the median robust error along one axis.

    Requires at least three distinct axis values with every other cell
    parameter held fixed.
    """
    if axis not in ("n", "k", "d", "eps"):
        raise InvalidArgument("axis must be one of n, k, d, eps")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise InsufficientData("empty csv")
    others = [c for c in CELL_COLUMNS if c != axis]
    fixed = {c: rows[0][c] for c in others}
    for row in rows:
        for c in others:
            if row[c] != fixed[c]:
                raise InsufficientData(f"column {c} is not fixed across rows")
    groups: dict[float, list[float]] = {}
    for row in rows:
        groups.setdefault(float(row[axis]), []).append(float(row["l1_robust"]))
    if len(groups) < 3:
        raise InsufficientData("need at least three distinct axis values")
    xs = np.array(sorted(groups))
    med = np.array([float(np.median(groups[x])) for x in xs])
    lx, ly = np.log(xs), np.log(med)
    n_pts = lx.size
    vx = lx - lx.mean()
    slope = float(np.sum(vx * ly) / np.sum(vx * vx))
    resid = ly - (ly.mean() + slope * vx)
    dof = max(n_pts - 2, 1)
    stderr = float(math.sqrt(np.sum(resid ** 2) / dof / np.sum(vx * vx)))
    return RateFitReport(axis=axis, slope=slope, stderr=stderr,
                         axis_values=tuple(float(x) for x in xs),
                         medians=tuple(float(m) for m in med))

