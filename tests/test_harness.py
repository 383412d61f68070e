import contextlib
import csv
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import ldprobust
from ldprobust import RngSeed, adversary, estimator, harness, rate_fit, sweep
from ldprobust.channel import RapporChannel
from ldprobust.prob import ProbVector
from ldprobust.errors import (
    AlphaOutOfRange,
    InputError,
    InsufficientData,
    InvalidArgument,
    InvalidAttackParams,
    InvalidConfig,
)
from ldprobust.harness import (
    CSV_COLUMNS,
    SweepConfig,
    TrialCell,
    format_float,
    hash_cell,
    resolve_attack,
    run_sweep,
    run_trial,
)


class TestRunTrial:
    def test_eps_zero_errors_coincide(self):
        cell = TrialCell(n=100, k=10, d=4, alpha=1.0, eps=0.0)
        res = run_trial(cell, 0, 5)
        assert res.l1_robust == res.l1_naive
        assert res.deleted_good == res.deleted_bad == 0
        assert math.isnan(res.final_tau)

    def test_deterministic(self):
        cell = TrialCell(n=120, k=10, d=4, alpha=1.0, eps=0.05)
        a = run_trial(cell, 3, 7)
        b = run_trial(cell, 3, 7)
        assert a.l1_robust == b.l1_robust
        assert a.l1_naive == b.l1_naive
        assert a.final_tau == b.final_tau or (
            math.isnan(a.final_tau) and math.isnan(b.final_tau))

    def test_attack_improves_over_naive_in_median(self):
        cell = TrialCell(n=400, k=50, d=5, alpha=1.0, eps=0.05, attack="all_ones")
        rob, nai = [], []
        for t in range(10):
            res = run_trial(cell, t, 11)
            rob.append(res.l1_robust)
            nai.append(res.l1_naive)
        assert np.median(rob) < np.median(nai)

    def test_counts_bounded(self):
        cell = TrialCell(n=200, k=20, d=4, alpha=1.0, eps=0.1)
        res = run_trial(cell, 0, 13)
        assert res.deleted_good + res.deleted_bad <= 200

    def test_identical_trials_compare_equal(self):
        cell = TrialCell(n=120, k=10, d=4, alpha=1.0, eps=0.05)
        assert run_trial(cell, 3, 7) == run_trial(cell, 3, 7)

    @pytest.mark.parametrize("eps, scans", [(0.0, 1), (0.05, 3)])
    def test_counts_range_scans(self, eps, scans, monkeypatch):
        # one per BatchCollection built (clean, then contaminated) and one in
        # robust_estimate; naive_estimate reads the collection's checked counts
        check, calls = adversary.checked_counts, []

        def counting(counts, k):
            calls.append(k)
            return check(counts, k)

        monkeypatch.setattr(adversary, "checked_counts", counting)
        monkeypatch.setattr(estimator, "checked_counts", counting)
        run_trial(TrialCell(n=200, k=20, d=4, alpha=1.0, eps=eps), 0, 13)
        assert len(calls) == scans

    @pytest.mark.parametrize("trial, seed", [(-1, 0), (0, -1)])
    def test_negative_trial_or_seed_rejected(self, trial, seed):
        cell = TrialCell(n=100, k=10, d=4, alpha=1.0, eps=0.0)
        with pytest.raises(InvalidArgument):
            run_trial(cell, trial, seed)

    def test_uniform_dual_stops_pinned(self, monkeypatch):
        # targeted trials at d = 64 and 128 whose every stop the uniform dual
        # proves; their records hang on BLAS products, pinned per numpy release
        release = ".".join(np.__version__.split(".")[:2])
        if release not in _UNIFORM_DUAL_DIGESTS:
            pytest.skip(f"no trial digest is pinned for numpy {release}")
        estimate = harness.robust_estimate
        stops = []

        def recording(*args):
            result = estimate(*args)
            stops.append(result.trace[-1].certified_by)
            return result

        monkeypatch.setattr(harness, "robust_estimate", recording)
        digest = hashlib.sha256()
        for d, n in ((64, 2000), (128, 4000)):
            cell = TrialCell(n=n, k=20, d=d, alpha=1.0, eps=0.05, attack="targeted_subset")
            for trial in range(3):
                digest.update(",".join(run_trial(cell, trial, 7).csv_row()).encode() + b"\n")
        assert stops == ["uniform-dual"] * 6
        assert digest.hexdigest() == _UNIFORM_DUAL_DIGESTS[release]


#: sha256 of `TestRunTrial.test_uniform_dual_stops_pinned`'s records, by numpy release
_UNIFORM_DUAL_DIGESTS = {
    "2.4": "0a318b0f260b68f5fce7a2aabe25d1787aab68522e6ba426af317a2471f4cf1a",
}


#: Attack parameters a cell rejects: a key its attack does not read, a value
#: that does not convert or is not whole, a boolean, or one out of range.
_BAD_ATTACK_PARAMS = [
    ("targeted_subset", {"magnitud": 0.5}), ("targeted_subset", {"mix": 0.3}),
    ("all_ones", {"mix": 0.3}), ("swap_mix", {"mix": True}), ("swap_mix", {"mix": math.nan}),
    ("targeted_subset", {"magnitude": "abc"}), ("targeted_subset", {"magnitude": 1.5}),
    ("targeted_subset", {"subset_size": 2.7}), ("targeted_subset", {"subset_size": 5}),
    ("targeted_subset", {"subset_size": True}), ("targeted_subset", {"direction": 1.5}),
    ("targeted_subset", {"direction": 0}),
]


class TestTrialCell:
    @pytest.mark.parametrize("kw", [dict(n=1), dict(n=0), dict(k=0),
                                    dict(p_family="nope"), dict(eps=0.25), dict(eps=-0.01),
                                    dict(eps=math.nan), dict(eps=math.inf),
                                    dict(eps=-math.inf), dict(attack="nope"),
                                    dict(n="a"), dict(n=math.inf), dict(attack_params=5),
                                    dict(alpha=True), dict(tau_threshold=0),
                                    dict(k=True), dict(eps=False), dict(tau_threshold=True),
                                    *(dict(attack=attack, attack_params=params)
                                      for attack, params in _BAD_ATTACK_PARAMS)])
    def test_rejects_out_of_range_settings(self, kw):
        # at eps = 0 too: a cell's settings are checked whether or not its attack runs
        base = dict(n=100, k=10, d=4, alpha=1.0, eps=0.0)
        base.update(kw)
        with pytest.raises(InvalidConfig):
            TrialCell(**base)

    @pytest.mark.parametrize("kw", [dict(d=2), dict(d=4097), dict(alpha=3.0), dict(alpha=0.0)])
    def test_channel_rejects_at_construction(self, kw):
        base = dict(n=100, k=10, d=4, alpha=1.0, eps=0.0)
        base.update(kw)
        with pytest.raises(InputError):
            TrialCell(**base)

    def test_attack_params_kept_as_given_and_converted_once(self):
        cell = TrialCell(n=100, k=10, d=8, alpha=1.0, eps=0.05, attack="targeted_subset",
                         attack_params={"subset_size": 3.0, "direction": "-1"})
        assert cell.attack_params == {"subset_size": 3.0, "direction": "-1"}
        assert isinstance(cell.attack_params["subset_size"], float)
        ch = RapporChannel.create(8, 1.0)
        spec = resolve_attack(cell, ProbVector(np.full(8, 1 / 8)), ch)
        assert spec.mask.sum() == 3 and spec.direction == -1 and spec.magnitude == 1.0
        default = resolve_attack(TrialCell(n=100, k=10, d=8, alpha=1.0, eps=0.05,
                                           attack="targeted_subset"),
                                 ProbVector(np.full(8, 1 / 8)), ch)
        assert default.mask.sum() == 4 and default.direction == 1

    def test_unknown_names_called_directly(self):
        # a TrialCell rejects these names; the helpers reject them on their own too
        with pytest.raises(InvalidConfig):
            harness.sample_p("nope", 4, RngSeed(0))
        cell = TrialCell(n=100, k=10, d=4, alpha=1.0, eps=0.05)
        object.__setattr__(cell, "attack", "nope")
        with pytest.raises(InvalidAttackParams):
            resolve_attack(cell, ProbVector(np.full(4, 1 / 4)), RapporChannel.create(4, 1.0))

    @pytest.mark.parametrize("kw, expected", [
        (dict(n=100, k=10, d=4, alpha=1.0, eps=0.0), 72951880068634),
        (dict(n=2000, k=50, d=5, alpha=0.5, eps=0.05, attack="swap_mix"), 234877586046880),
        (dict(n=2000, k=50, d=5, alpha=0.5, eps=0.05, attack="swap_mix",
              attack_params={"mix": 0.3}), 235109921433174),
        (dict(n=4000, k=20, d=128, alpha=1.0, eps=0.05, attack="targeted_subset"),
         221979591497623),
        (dict(n=3000, k=20, d=16, alpha=1.0, eps=0.1, attack="targeted_subset",
              attack_params={"subset_size": 3, "direction": -1, "magnitude": 0.5}),
         202495917944593),
        (dict(n=600, k=25, d=5, alpha=1.0, eps=0.1, attack="hard_pair_swap",
              p_family="uniform"), 33020620023354),
        (dict(n=60, k=5, d=4, alpha=1.0, eps=0.05, attack="all_zeros",
              p_family="point_heavy", tau_threshold=1.2), 158931180638812),
    ])
    def test_hash_cell_pinned(self, kw, expected):
        # every trial's seed derives from hash_cell, so these pin every output
        assert hash_cell(TrialCell(**kw)) == expected

    def test_one_channel_per_cell_none_per_trial(self, monkeypatch):
        create, calls = RapporChannel.create, []

        def counting(d, alpha):
            calls.append((d, alpha))
            return create(d, alpha)

        monkeypatch.setattr(RapporChannel, "create", counting)
        cfg = SweepConfig(n_grid=(60, 80), k_grid=(5,), d_grid=(4, 5), alpha_grid=(1.0,),
                          eps_grid=(0.0, 0.05), attack="targeted_subset", trials=3)
        assert len(calls) == len(cfg.cells()) == 8
        run_sweep(cfg, threads=1)
        assert len(calls) == 8


class TestSweep:
    def _config(self, tmp_path, **kw):
        base = dict(n_grid=(60, 80), k_grid=(5,), d_grid=(4,), alpha_grid=(1.0,),
                    eps_grid=(0.0, 0.05), trials=3, seed=2)
        base.update(kw)
        return SweepConfig(**base)

    def test_row_count_and_header(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "sweep.csv"
        sweep(cfg, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 1 + 2 * 2 * 3

    def test_byte_identical_rerun_and_threads(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2, out3 = (tmp_path / f"s{i}.csv" for i in range(3))
        sweep(cfg, out1, threads=1)
        sweep(cfg, out2, threads=1)
        sweep(cfg, out3, threads=4)
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_empty_grid_rejected_before_io(self):
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(), k_grid=(5,), d_grid=(4,), alpha_grid=(1.0,),
                        eps_grid=(0.0,))

    @pytest.mark.parametrize("text", [
        "{", "[]", '{"n_grid": [10]}', '{"n_grid": 5, "k_grid": [5], "d_grid": [4], '
        '"alpha_grid": [1.0], "eps_grid": [0.1]}',
        '{"n_grid": [10], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0], '
        '"eps_grid": [0.1], "trials": "many"}',
        '{"n_grid": [10], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0], '
        '"eps_grid": [0.1], "trails": 20}',
    ])
    def test_malformed_json_is_input_error(self, text):
        with pytest.raises(InvalidConfig) as exc:
            SweepConfig.from_json(text)
        assert isinstance(exc.value, InputError)

    def test_alpha_whose_lambda_rounds_to_half_is_rejected(self):
        with pytest.raises(AlphaOutOfRange, match="alpha=1e-300"):
            SweepConfig(n_grid=(60,), k_grid=(5,), d_grid=(4,), alpha_grid=(1.0, 1e-300),
                        eps_grid=(0.1,))

    def test_json_round_trip(self):
        cfg = SweepConfig(n_grid=(10,), k_grid=(5,), d_grid=(4,),
                          alpha_grid=(1.0,), eps_grid=(0.1,), attack="all_zeros",
                          trials=2, seed=9)
        text = json.dumps({
            "n_grid": [10], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
            "eps_grid": [0.1], "attack": "all_zeros", "trials": 2, "seed": 9,
        })
        assert SweepConfig.from_json(text) == cfg


def _worker_pids() -> set:
    return {proc.pid for proc in multiprocessing.active_children()}


def _alive(pid: int) -> bool:
    """Whether pid runs; on Linux a zombie (exited, not yet reaped) counts as gone."""
    if sys.platform.startswith("linux"):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_until(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


# A child interpreter that runs a parallel sweep, prints its worker pids and
# then sleeps for argv[1] seconds.
_POOL_CHILD = """
import multiprocessing, sys, time
from ldprobust import harness
cfg = harness.SweepConfig(n_grid=(60,), k_grid=(5,), d_grid=(4,), alpha_grid=(1.0,),
                          eps_grid=(0.05,), trials=2, seed=2)
harness.run_sweep(cfg, threads=2)
print(" ".join(str(p.pid) for p in multiprocessing.active_children()), flush=True)
time.sleep(float(sys.argv[1]))
"""


class TestWarmPool:
    """Parallel sweeps share one warm pool whose workers never outlive their parent."""

    cfg = SweepConfig(n_grid=(60, 80), k_grid=(5,), d_grid=(4,), alpha_grid=(1.0,),
                      eps_grid=(0.0, 0.05), trials=3, seed=2)

    def _csv(self, path, threads) -> bytes:
        sweep(self.cfg, path, threads=threads)
        return path.read_bytes()

    def test_reused_across_sweeps(self, tmp_path):
        serial = self._csv(tmp_path / "s.csv", 1)
        assert self._csv(tmp_path / "a.csv", 2) == serial
        first = _worker_pids()
        assert self._csv(tmp_path / "b.csv", 2) == serial
        assert len(first) == 2 and _worker_pids() == first

    def test_results_share_the_callers_cells(self):
        # as on the serial path, no result keeps its own unpickled cell
        cells = self.cfg.cells()
        results = harness.run_sweep(self.cfg, threads=2)
        assert [r.cell for r in results] == [c for c in cells for _ in range(self.cfg.trials)]
        assert len({id(r.cell) for r in results}) == len(cells)

    def test_worker_count_change_leaves_one_pool(self, tmp_path):
        serial = self._csv(tmp_path / "s.csv", 1)
        for i, threads in enumerate((2, 3, 2)):
            assert self._csv(tmp_path / f"t{i}.csv", threads) == serial
            assert len(_worker_pids()) == threads

    def test_killed_idle_worker_is_replaced(self, tmp_path):
        serial = self._csv(tmp_path / "s.csv", 1)
        assert self._csv(tmp_path / "a.csv", 2) == serial
        old = _worker_pids()
        os.kill(min(old), signal.SIGKILL)
        # the pool sees the death and joins the other worker
        assert _wait_until(lambda: not _worker_pids(), 10.0)
        assert self._csv(tmp_path / "b.csv", 2) == serial
        assert len(_worker_pids()) == 2 and not _worker_pids() & old

    @pytest.mark.parametrize("kill_parent", [False, True], ids=["exit", "sigkill"])
    def test_no_worker_outlives_its_parent(self, kill_parent):
        src = os.path.dirname(os.path.dirname(ldprobust.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        sleep = "60" if kill_parent else "0"
        pids = []
        with subprocess.Popen([sys.executable, "-c", _POOL_CHILD, sleep], env=env,
                              stdout=subprocess.PIPE, text=True) as parent:
            try:
                pids = [int(pid) for pid in parent.stdout.readline().split()]
                assert len(pids) == 2
                if kill_parent:
                    parent.kill()
                assert parent.wait(timeout=60) == (-signal.SIGKILL if kill_parent else 0)
                assert _wait_until(lambda: not any(map(_alive, pids)), 3.0), pids
            finally:
                parent.kill()
                for pid in filter(_alive, pids):
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)


class TestRateFit:
    def _write(self, path, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)

    def _row(self, n=100, k=10, eps=0.0, err=0.1, trial=0):
        return [n, k, 4, "1", format_float(eps), "all_ones", trial, 0,
                format_float(err), format_float(err), format_float(err),
                0, 0, 1, "nan", 0]

    def test_exact_power_law(self, tmp_path):
        path = tmp_path / "fit.csv"
        rows = []
        for n in (100, 200, 400, 800):
            for t in range(3):
                rows.append(self._row(n=n, err=2.0 * n ** -0.5, trial=t))
        self._write(path, rows)
        rep = rate_fit(path, "n")
        assert rep.slope == pytest.approx(-0.5, abs=1e-9)
        assert rep.stderr < 1e-9

    def test_empty_csv(self, tmp_path):
        path = tmp_path / "fit.csv"
        self._write(path, [])
        with pytest.raises(InsufficientData):
            rate_fit(path, "n")
        path.write_text("")
        with pytest.raises(InsufficientData):
            rate_fit(path, "n")

    def test_requires_three_values(self, tmp_path):
        path = tmp_path / "fit.csv"
        self._write(path, [self._row(n=100), self._row(n=200)])
        with pytest.raises(InsufficientData):
            rate_fit(path, "n")

    def test_requires_other_axes_fixed(self, tmp_path):
        path = tmp_path / "fit.csv"
        self._write(path, [self._row(n=100, k=10), self._row(n=200, k=20),
                           self._row(n=400, k=10)])
        with pytest.raises(InsufficientData):
            rate_fit(path, "n")

    def test_uses_median_per_cell(self, tmp_path):
        path = tmp_path / "fit.csv"
        rows = []
        for n in (100, 200, 400):
            target = n ** -1.0
            rows += [self._row(n=n, err=target, trial=0),
                     self._row(n=n, err=target, trial=1),
                     self._row(n=n, err=50.0, trial=2)]  # one wild outlier
        self._write(path, rows)
        rep = rate_fit(path, "n")
        assert rep.slope == pytest.approx(-1.0, abs=1e-9)


class TestFormatting:
    def test_seventeen_significant_digits(self):
        x = 1 / 3
        assert float(format_float(x)) == x
        assert format_float(float("nan")) == "nan"


class TestRuntimeSanity:
    def test_trial_wall_time_at_d16(self):
        cell = TrialCell(n=2000, k=50, d=16, alpha=1.0, eps=0.05,
                         attack="all_ones")
        t0 = time.monotonic()
        run_trial(cell, 0, 17)
        assert time.monotonic() - t0 <= 60.0

    def test_trial_memory_at_d128(self):
        # counts are held at one byte from the sampler to the scores, so the
        # top rung's trial allocates a few copies of its 0.5 MB of counts and
        # no int64 (n, d) or (n, k) array; with int64 counts it peaks above 12 MB
        cell = TrialCell(n=4000, k=20, d=128, alpha=1.0, eps=0.05,
                         attack="targeted_subset")
        # a smaller trial first, so that lazy imports and cached tables are
        # not counted
        run_trial(TrialCell(n=500, k=20, d=128, alpha=1.0, eps=0.05,
                            attack="targeted_subset"), 0, 19)
        tracemalloc.start()
        try:
            run_trial(cell, 0, 19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 10 ** 6, peak
