"""The benchmark's workloads: inputs built from the seed, and one unit of work.

Each workload builds its inputs from the workload seed in its constructor
(this is the set-up that `setup_s` times) and runs its work in units through
`run_unit(i)`.  Unit i is a pure function of (seed, i), so a traced phase can
replay exactly the units an untraced phase ran.  Every unit checks the
library's outputs and counts an operation as failed when it raises, when its
estimate is not finite, when a sandwich report is not ok, or when an
`all_ones` / `targeted_subset` trial has l1_robust_norm > 0.5 * l1_naive
(acceptance criterion 5's per-trial rule).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ldprobust import gram, harness
from ldprobust.prob import RngSeed

# Attacks whose every trial must beat the naive estimate by a factor of two.
GATED_ATTACKS = ("all_ones", "targeted_subset")


@dataclass
class UnitResult:
    attempted: int = 0
    failed: int = 0
    fingerprints: list = field(default_factory=list)
    trials: list = field(default_factory=list)
    margins: list = field(default_factory=list)

    def add(self, other: "UnitResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.fingerprints += other.fingerprints
        self.trials += other.trials
        self.margins += other.margins


def derive_seed(seed: int, *keys: int) -> int:
    """A 63-bit seed derived from the workload seed and integer keys."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=keys)
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _report_failure(what: str) -> None:
    sys.stderr.write(f"perfbench: {what} raised\n{traceback.format_exc()}")


def trial_failed(res) -> bool:
    values = (res.l1_robust, res.l1_robust_norm, res.l1_naive)
    if not all(math.isfinite(v) for v in values):
        return True
    return res.cell.attack in GATED_ATTACKS and res.l1_robust_norm > 0.5 * res.l1_naive


class SweepD5:
    """Three harness.sweep runs per unit: criterion 6's d=5 rate-sweep configs."""

    name = "sweep_d5"

    def __init__(self, seed: int, smoke: bool, workers: int, out_dir: Path):
        self.seed = seed
        self.workers = workers
        self.out_dir = out_dir
        if smoke:
            self.n_eps, self.n_k, self.trials = 400, 256, 1
        else:
            self.n_eps, self.n_k, self.trials = 16000, 2048, 3

    def configs(self, unit: int) -> list:
        seed = derive_seed(self.seed, 5, unit)
        eps_grid = dict(n_grid=(self.n_eps,), k_grid=(50,), d_grid=(5,),
                        alpha_grid=(1.0,), eps_grid=(0.06, 0.12, 0.24),
                        trials=self.trials, seed=seed)
        return [
            ("a", harness.SweepConfig(attack="all_ones", **eps_grid)),
            ("b", harness.SweepConfig(attack="swap_mix", **eps_grid)),
            ("c", harness.SweepConfig(n_grid=(self.n_k,), k_grid=(25, 50, 100, 200),
                                      d_grid=(5,), alpha_grid=(1.0,), eps_grid=(0.05,),
                                      attack="hard_pair_swap", trials=self.trials,
                                      seed=seed)),
        ]

    def run_unit(self, unit: int) -> UnitResult:
        out = UnitResult()
        for tag, cfg in self.configs(unit):
            jobs = len(cfg.cells()) * cfg.trials
            out.attempted += jobs
            path = self.out_dir / f"sweep_{self.name}_{tag}.csv"
            try:
                results = harness.sweep(cfg, path, threads=self.workers)
            except Exception:
                _report_failure(f"sweep ({tag}) of unit {unit}")
                out.failed += jobs
                continue
            data = path.read_bytes()
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            if len(results) != jobs or rows != [harness.CSV_COLUMNS] + [
                    r.csv_row() for r in results]:
                sys.stderr.write(f"perfbench: sweep ({tag}) CSV does not match results\n")
                out.failed += jobs
                continue
            out.failed += sum(trial_failed(r) for r in results)
            out.fingerprints.append(hashlib.sha256(data).hexdigest())
            out.trials += results
        return out


class TrialD128:
    """One harness.run_trial per unit at the top rung of the d ladder."""

    name = "trial_d128"

    def __init__(self, seed: int, smoke: bool, workers: int, out_dir: Path):
        self.seed = seed
        n, k = (500, 20) if smoke else (4000, 20)
        self.cell = harness.TrialCell(n=n, k=k, d=128, alpha=1.0, eps=0.05,
                                      attack="targeted_subset")

    def run_unit(self, unit: int) -> UnitResult:
        out = UnitResult(attempted=1)
        try:
            res = harness.run_trial(self.cell, unit, self.seed)
        except Exception:
            _report_failure(f"trial {unit}")
            out.failed = 1
            return out
        out.failed = int(trial_failed(res))
        payload = json.dumps(res.to_json_dict(), sort_keys=True).encode()
        out.fingerprints.append(hashlib.sha256(payload).hexdigest())
        out.trials.append(res)
        return out


class CertifyD12:
    """One gram.sandwich_check per unit on a random symmetric matrix.

    Matrices are drawn as in acceptance criterion 3 and `sdp-check`:
    A = (R + R^T) / 2 with R standard normal, solver seed child(d, i).
    """

    name = "certify_d12"
    pool = 1024

    def __init__(self, seed: int, smoke: bool, workers: int, out_dir: Path):
        rng = RngSeed(seed)
        self.d = 6 if smoke else 12
        self.mats, self.solver_rngs = [], []
        for i in range(self.pool):
            raw = rng.generator(self.d, i).standard_normal((self.d, self.d))
            self.mats.append(0.5 * (raw + raw.T))
            self.solver_rngs.append(rng.child(self.d, i))

    def run_unit(self, unit: int) -> UnitResult:
        out = UnitResult(attempted=1)
        i = unit % self.pool
        try:
            rep = gram.sandwich_check(self.mats[i], rng=self.solver_rngs[i])
        except Exception:
            _report_failure(f"sandwich check {unit}")
            out.failed = 1
            return out
        finite = math.isfinite(rep.gram_value) and math.isfinite(rep.subset_value)
        out.failed = int(not (rep.ok and finite))
        out.margins.append(rep.lower_margin)
        return out


WORKLOADS = {w.name: w for w in (SweepD5, TrialD128, CertifyD12)}
