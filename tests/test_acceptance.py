"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Master seeds are frozen; all statistics are
deterministic given them.
"""

import json
import math
import time

import numpy as np

from ldprobust import (
    AttackSpec,
    EstimatorConfig,
    RapporChannel,
    RngSeed,
    contaminate,
    gram_maximize,
    invert_mean,
    l1_dist,
    ldp_ratio_check,
    make_clean_collection,
    make_prob_vector,
    mean_response,
    model_cov,
    rate_fit,
    robust_estimate,
    sandwich_check,
    score_collection,
    subset_mask,
    subset_sum_law_sample,
    sweep,
)
from ldprobust.channel import sample_privatized
from ldprobust.cli import main as cli_main
from ldprobust.estimator import DESK_TAU_THRESHOLD
from ldprobust.gram import CERTIFICATE_PATHS
from ldprobust.harness import SweepConfig, TrialCell, run_trial
from ldprobust.lowerbound import (
    assouad_family,
    assouad_l1,
    channel_chi2_exact,
    channel_output_dist,
    common_mixture,
    hard_pair,
)

from conftest import chi2_quantile, two_sample_chi2


def report(number, name, ok, detail, t0, limit_s):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s] {detail}")
    assert ok, detail
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s over the {limit_s}s limit"


def test_criterion_1_channel_correctness():
    t0 = time.monotonic()
    gen = np.random.default_rng(101)
    worst_round = 0.0
    for _ in range(100):
        d = int(gen.integers(3, 33))
        ch = RapporChannel.create(d, float(gen.uniform(0.1, 2.0)))
        p = make_prob_vector(gen.dirichlet(np.ones(d)))
        back = invert_mean(ch, mean_response(ch, p))
        worst_round = max(worst_round, float(np.abs(back - p.weights).max()))
    ok_round = worst_round <= 1e-14

    worst_ratio = 0.0
    for alpha in (0.1, 0.5, 1.0, 2.0):
        ch = RapporChannel.create(5, alpha)
        worst_ratio = max(worst_ratio, abs(ldp_ratio_check(ch) - math.exp(alpha)))
    ok_ratio = worst_ratio <= 1e-10

    ok_law = True
    worst_q = 0.0
    n = 10 ** 5
    for d in (3, 4, 5, 6):
        ch = RapporChannel.create(d, 1.0)
        p = make_prob_vector(np.random.default_rng(300 + d).dirichlet(np.ones(d)))
        for size in range(1, min(4, d) + 1):
            mask = subset_mask(d, range(1, size + 1))
            direct = sample_privatized(ch, p, n, RngSeed(400 + d, size))[:, mask].sum(axis=1)
            law = subset_sum_law_sample(ch, p, mask, RngSeed(500 + d, size).generator(), count=n)
            stat, dof = two_sample_chi2(direct, law)
            quantile = chi2_quantile(0.999, dof)
            worst_q = max(worst_q, stat / quantile)
            ok_law &= stat < quantile
    report(1, "channel correctness", ok_round and ok_ratio and ok_law,
           f"roundtrip={worst_round:.2e} ratio_gap={worst_ratio:.2e} "
           f"law_stat_frac={worst_q:.2f}", t0, 60)


def test_criterion_2_covariance_model():
    t0 = time.monotonic()
    ch = RapporChannel.create(5, 1.0)
    p = make_prob_vector([0.35, 0.25, 0.2, 0.12, 0.08])
    q = mean_response(ch, p)
    n_batches = 10 ** 6
    chunk = 10 ** 5
    worst = 0.0
    for k in (1, 10, 50):
        rng = RngSeed(210 + k)
        mean_sum = np.zeros(5)
        for ci in range(n_batches // chunk):
            coll = make_clean_collection(ch, p, chunk, k, rng.child(ci))
            mean_sum += (coll.counts / coll.k).sum(axis=0)
        qbar = mean_sum / n_batches
        ssum = np.zeros((5, 5))
        ssq = np.zeros((5, 5))
        for ci in range(n_batches // chunk):
            coll = make_clean_collection(ch, p, chunk, k, rng.child(ci))
            centered = coll.counts / coll.k - qbar
            cb = np.einsum("bi,bj->bij", centered, centered)
            ssum += cb.sum(axis=0)
            ssq += (cb * cb).sum(axis=0)
        chat = ssum / n_batches
        se = np.sqrt(np.clip(ssq / n_batches - chat * chat, 0, None) / n_batches)
        z = np.abs(chat - model_cov(q, k, ch.lam)) / se
        worst = max(worst, float(z.max()))
    report(2, "covariance model", worst <= 5.0, f"max|z|={worst:.2f} (<=5)", t0, 180)


def test_criterion_3_grothendieck_sandwich():
    t0 = time.monotonic()
    rng = RngSeed(333)
    violations = 0
    worst_lo = worst_hi = math.inf
    paths = dict.fromkeys(CERTIFICATE_PATHS, 0)
    for d in (4, 8, 12):
        for i in range(500):
            gen = rng.generator(d, i)
            raw = gen.standard_normal((d, d))
            A = 0.5 * (raw + raw.T)
            sol = gram_maximize(A, rng=rng.child(d, i))
            rep = sandwich_check(A, sol=sol)
            worst_lo = min(worst_lo, rep.lower_margin)
            worst_hi = min(worst_hi, rep.upper_margin)
            violations += not rep.ok
            paths[sol.certified_by] += 1
    certified = " ".join(f"{path}={count}" for path, count in paths.items())
    report(3, "grothendieck sandwich", violations == 0,
           f"violations={violations}/1500 margins=({worst_lo:.2e},{worst_hi:.2e}) "
           f"certified_by=({certified})",
           t0, 300)


def test_criterion_4_clean_consistency():
    t0 = time.monotonic()
    med = {}
    for n in (100, 400):
        errs = [run_trial(TrialCell(n=n, k=50, d=5, alpha=1.0, eps=0.0),
                          t, 404).l1_robust for t in range(20)]
        med[n] = float(np.median(errs))
    ratio = med[400] / med[100]
    report(4, "clean-data consistency", 0.35 <= ratio <= 0.7,
           f"median ratio n400/n100 = {ratio:.3f} in [0.35, 0.7]", t0, 300)


def test_criterion_5_robust_vs_naive():
    t0 = time.monotonic()
    cell = TrialCell(n=2000, k=50, d=5, alpha=1.0, eps=0.05, attack="all_ones",
                     tau_threshold=DESK_TAU_THRESHOLD)
    base_cell = TrialCell(n=2000, k=50, d=5, alpha=1.0, eps=0.0)
    wins = 0
    robusts, baselines = [], []
    for trial in range(20):
        res = run_trial(cell, trial, 505)
        base = run_trial(base_cell, trial, 505)
        wins += res.l1_robust_norm <= 0.5 * res.l1_naive
        robusts.append(res.l1_robust_norm)
        baselines.append(base.l1_robust)
    med_rob = float(np.median(robusts))
    med_base = float(np.median(baselines))
    ok = wins >= 18 and med_rob <= 3.0 * med_base
    report(5, "robust vs naive under attack", ok,
           f"wins={wins}/20 median_robust={med_rob:.4f} 3x_baseline={3 * med_base:.4f}",
           t0, 900)


def test_criterion_6_rate_scaling(tmp_path):
    t0 = time.monotonic()
    specs = {
        "n": (SweepConfig(n_grid=(500, 1400, 3900, 10900), k_grid=(50,),
                          d_grid=(5,), alpha_grid=(1.0,), eps_grid=(0.0,),
                          trials=20, seed=7, p_family="uniform"),
              -0.5, 0.12),
        "k": (SweepConfig(n_grid=(2048,), k_grid=(25, 50, 100, 200),
                          d_grid=(5,), alpha_grid=(1.0,), eps_grid=(0.05,),
                          attack="hard_pair_swap", trials=20, seed=7),
              -0.5, 0.15),
        "eps": (SweepConfig(n_grid=(16000,), k_grid=(50,), d_grid=(5,),
                            alpha_grid=(1.0,), eps_grid=(0.03, 0.06, 0.12, 0.24),
                            attack="swap_mix", trials=20, seed=7),
                1.0, 0.25),
    }
    detail = []
    ok = True
    for axis, (cfg, target, window) in specs.items():
        path = tmp_path / f"rate_{axis}.csv"
        sweep(cfg, path, threads=1)
        rep = rate_fit(path, axis)
        ok &= abs(rep.slope - target) <= window
        detail.append(f"{axis}: {rep.slope:+.3f} (target {target:+.1f}+-{window})")
    report(6, "rate scaling", ok, "; ".join(detail), t0, 2700)


def test_criterion_7_deletion_bias():
    t0 = time.monotonic()
    ch = RapporChannel.create(5, 1.0)
    n, k, eps = 2048, 50, 0.05
    assert n >= 4 * 5 / (eps ** 2 * math.log(math.e / eps))
    cfg = EstimatorConfig(eps=eps, tau_threshold=DESK_TAU_THRESHOLD)
    fracs = []
    for s in range(50):
        rng = RngSeed(707, s)
        p = make_prob_vector(rng.generator(0).dirichlet(np.ones(5)))
        clean = make_clean_collection(ch, p, n - int(n * eps), k, rng.child(1))
        coll = contaminate(clean, AttackSpec(kind="all_ones"), eps, n, ch, rng.child(2))
        res = robust_estimate(coll, cfg, ch, rng.child(3))
        deleted = res.deleted_indices()
        if deleted.size:
            fracs.append(float((coll.truth[deleted] == 1).mean()))
        else:
            fracs.append(0.0)
    avg = float(np.mean(fracs))
    report(7, "deletion bias", avg >= 0.6, f"avg adversarial fraction={avg:.3f} (>=0.6)",
           t0, 600)


def test_criterion_8_termination_threshold():
    t0 = time.monotonic()
    ch = RapporChannel.create(5, 1.0)
    n, k, eps = 2048, 50, 0.05
    assert n >= 4 * 5 / (eps ** 2 * math.log(math.e / eps))
    hits = 0
    worst = 0.0
    for s in range(50):
        rng = RngSeed(808, s)
        p = make_prob_vector(rng.generator(0).dirichlet(np.ones(5)))
        coll = make_clean_collection(ch, p, n, k, rng.child(1))
        rep = score_collection(coll, EstimatorConfig(eps=eps), ch, rng.child(2))
        root = math.sqrt(max(rep.tau, 0.0))
        worst = max(worst, root)
        hits += root < 200.0
    report(8, "termination threshold", hits >= 45,
           f"sqrt(tau)<200 in {hits}/50 seeds (max {worst:.2f})", t0, 600)


def test_criterion_9_lowerbound_certificates():
    t0 = time.monotonic()
    d, alpha, k, eps = 8, 1.0, 100, 0.1
    ch = RapporChannel.create(d, alpha)
    pair = hard_pair(ch, eps, k)
    quad_ok = pair.quad_form <= math.exp(-2) * eps ** 2 / k * (1 + 1e-12)
    # the closed-form bound, and the exact chi-square inside its bracket
    exact = channel_chi2_exact(ch, pair.p, pair.q)
    chi_ok = (pair.chi2_upper <= math.exp(alpha) * pair.quad_form
              and math.exp(-alpha) * pair.chi2_upper <= exact <= pair.chi2_upper)
    tv_ok = pair.tv_bound_k <= eps
    sep = l1_dist(pair.p, pair.q)
    floor = 0.2 * eps * math.sqrt(d) / (alpha * math.sqrt(k))
    l1_ok = sep >= floor

    ch3 = RapporChannel.create(3, alpha)
    pair3 = hard_pair(ch3, eps, 2)
    mix = common_mixture(pair3, ch3, 2)
    a, n_p, n_q = mix.mixture, mix.n_p, mix.n_q
    sp = channel_output_dist(ch3, pair3.p)
    sq = channel_output_dist(ch3, pair3.q)
    res_p = float(np.abs((1 - eps) * np.kron(sp, sp) + eps * n_p.masses - a.masses).max())
    res_q = float(np.abs((1 - eps) * np.kron(sq, sq) + eps * n_q.masses - a.masses).max())
    mix_ok = (res_p <= 1e-12 and res_q <= 1e-12
              and n_p.masses.min() >= -1e-12 and n_q.masses.min() >= -1e-12)

    fam = assouad_family(8, 500, alpha, 0.1)
    gen = RngSeed(929).generator()
    assouad_ok = True
    for _ in range(100):
        s1 = gen.choice([-1, 1], size=fam.half)
        s2 = gen.choice([-1, 1], size=fam.half)
        measured, exact = assouad_l1(fam, s1, s2)
        assouad_ok &= measured == exact

    ok = quad_ok and chi_ok and tv_ok and l1_ok and mix_ok and assouad_ok
    report(9, "lower-bound certificates", ok,
           f"quad={quad_ok} chi2={chi_ok} tv={tv_ok} "
           f"l1={sep:.4f}>={floor:.4f}:{l1_ok} mixture={mix_ok} cube={assouad_ok}",
           t0, 120)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    cfg = {
        "n_grid": [60, 90], "k_grid": [10], "d_grid": [4], "alpha_grid": [1.0],
        "eps_grid": [0.0, 0.05], "trials": 2, "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    commands = [
        ["simulate", "--n", "100", "--k", "10", "--d", "4", "--eps", "0.05",
         "--seed", "3"],
        ["sweep", "--config", str(cfg_path)],
        ["sdp-check", "--seed", "7", "--d", "8", "--instances", "25"],
        ["lowerbound", "--d", "8", "--alpha", "1.0", "--k", "100", "--eps",
         "0.1", "--seed", "2"],
        ["mixture-check", "--d", "3", "--k", "2", "--eps", "0.1", "--seed", "1"],
        ["assouad", "--d", "6", "--n", "400", "--seed", "4"],
    ]
    ok = True
    detail = []
    for i, cmd in enumerate(commands):
        out_a = tmp_path / f"cmd{i}_a.out"
        out_b = tmp_path / f"cmd{i}_b.out"
        code_a = cli_main(cmd + ["--out", str(out_a), "--threads", "1"])
        code_b = cli_main(cmd + ["--out", str(out_b), "--threads", "8"])
        same = out_a.read_bytes() == out_b.read_bytes()
        ok &= code_a == 0 and code_b == 0 and same
        detail.append(f"{cmd[0]}:{'=' if same else '!='}")
    report(10, "cli determinism", ok, " ".join(detail), t0, 600)


def test_criterion_11_dimension_scaling(tmp_path):
    # The rate eps sqrt(d / (alpha^2 k)) + sqrt(d^2 / (alpha^2 k n)) along d:
    # (a) at eps = 0 the median l1 error grows as d (pilot on seeds 1-10:
    # slopes 0.959 to 1.028, mean 1.002, sd 0.022); (b) the certified hard
    # pair's separation, a floor on the error under contamination, grows as
    # sqrt(d) (no randomness: 0.494 before the window was fixed).
    t0 = time.monotonic()
    cfg = SweepConfig(n_grid=(2000,), k_grid=(50,), d_grid=(8, 16, 32, 64),
                      alpha_grid=(1.0,), eps_grid=(0.0,), trials=20, seed=11,
                      p_family="uniform")
    path = tmp_path / "rate_d.csv"
    sweep(cfg, path, threads=1)
    clean = rate_fit(path, "d")
    clean_ok = abs(clean.slope - 1.0) <= 0.1

    dims, eps, k = (8, 32, 64), 0.05, 50
    pairs = [hard_pair(RapporChannel.create(d, 1.0), eps, k) for d in dims]
    seps = [l1_dist(pair.p, pair.q) for pair in pairs]
    lx = np.log(dims) - np.mean(np.log(dims))
    sep_slope = float(np.sum(lx * np.log(seps)) / np.sum(lx * lx))
    sep_ok = abs(sep_slope - 0.5) <= 0.05 and all(pair.tv_bound_k <= eps for pair in pairs)
    report(11, "dimension scaling", clean_ok and sep_ok,
           f"clean l1 slope {clean.slope:+.3f} (target +1.0+-0.1); hard-pair separation "
           f"{' '.join(f'{s:.4f}' for s in seps)} slope {sep_slope:+.3f} (target +0.5+-0.05)",
           t0, 60)
