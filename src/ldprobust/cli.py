"""Command-line entry points.

Exit codes: 0 on success; 1 on usage or I/O errors, including any parameter
outside the documented contract (InputError); 2 on failed certificates and
broken invariants.
All primary outputs (JSON / CSV files and stdout reports) are byte-identical
across reruns with the same seed and across thread counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import harness
from .channel import RapporChannel
from .errors import ArtifactError, InputError
from .gram import CERTIFICATE_PATHS, gram_maximize, sandwich_check
from .lowerbound import (
    assouad_chi2_check,
    assouad_family,
    assouad_l1,
    common_mixture,
    hard_pair,
)
from .prob import RngSeed

USAGE_ERROR = 1
INVARIANT_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    cell = harness.TrialCell(
        n=args.n, k=args.k, d=args.d, alpha=args.alpha, eps=args.eps,
        attack=args.attack, p_family=args.p_family,
        tau_threshold=args.tau_threshold,
    )
    result = harness.run_trial(cell, trial=args.trial, master_seed=args.seed)
    _emit(result.to_json_dict(), args.out)
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = harness.SweepConfig.from_json(fh.read())
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    harness.sweep(cfg, args.out, threads=args.threads)
    return 0


def _cmd_sdp_check(args) -> int:
    rng = RngSeed(args.seed)
    failures = 0
    worst_lower = math.inf
    worst_upper = math.inf
    worst_gap = 0.0
    max_restarts = 0
    certified_by = dict.fromkeys(CERTIFICATE_PATHS, 0)
    for i in range(args.instances):
        gen = rng.generator(5, i)
        raw = gen.standard_normal((args.d, args.d))
        A = 0.5 * (raw + raw.T)
        sol = gram_maximize(A, rng=rng.child(6, i))
        report = sandwich_check(A, sol=sol)
        worst_lower = min(worst_lower, report.lower_margin)
        worst_upper = min(worst_upper, report.upper_margin)
        worst_gap = max(worst_gap, sol.relative_gap)
        max_restarts = max(max_restarts, sol.restarts_used)
        certified_by[sol.certified_by] += 1
        if not report.ok:
            failures += 1
    _emit({
        "d": args.d, "instances": args.instances, "failures": failures,
        "worst_lower_margin": worst_lower, "worst_upper_margin": worst_upper,
        "worst_relative_gap": worst_gap, "max_restarts_used": max_restarts,
        "certified_by": certified_by,
    }, args.out)
    return 0 if failures == 0 else INVARIANT_ERROR


def _cmd_lowerbound(args) -> int:
    ch = RapporChannel.create(args.d, args.alpha)
    # hard_pair validates the pair before returning it
    pair = hard_pair(ch, eps=args.eps, k=args.k)
    _emit({
        "d": args.d, "alpha": args.alpha, "k": args.k, "eps": args.eps,
        "p": list(pair.p.weights), "q": list(pair.q.weights),
        "delta": list(pair.delta),
        "chi2_upper": pair.chi2_upper,
        "quad_form": pair.quad_form,
        "tv_bound_k": pair.tv_bound_k,
        "invariants_ok": True,
    }, args.out)
    return 0


def _cmd_mixture_check(args) -> int:
    ch = RapporChannel.create(args.d, args.alpha)
    pair = hard_pair(ch, eps=args.eps, k=args.k)
    mix = common_mixture(pair, ch, args.k)
    ok = mix.residual_p <= 1e-12 and mix.residual_q <= 1e-12
    _emit({
        "d": args.d, "k": args.k, "alpha": args.alpha, "eps": args.eps,
        "outcomes": len(mix.mixture.outcomes),
        "residual_p": mix.residual_p, "residual_q": mix.residual_q,
        "min_mass_n_p": float(mix.n_p.masses.min()),
        "min_mass_n_q": float(mix.n_q.masses.min()),
        "ok": ok,
    }, args.out)
    return 0 if ok else INVARIANT_ERROR


def _cmd_assouad(args) -> int:
    family = assouad_family(args.d, args.n, args.alpha, args.c_gamma)
    ch = RapporChannel.create(args.d, args.alpha)
    report = assouad_chi2_check(family, ch)
    gen = RngSeed(args.seed).generator(7)
    identity_ok = True
    for _ in range(32):
        s1 = gen.choice([-1, 1], size=family.half)
        s2 = gen.choice([-1, 1], size=family.half)
        measured, exact = assouad_l1(family, s1, s2)
        if measured != exact:
            identity_ok = False
    _emit({
        "d": args.d, "n": args.n, "alpha": args.alpha, "c_gamma": args.c_gamma,
        "gamma": family.gamma, "members": family.size,
        "chi2_upper": report.chi2_upper,
        "envelope_constant": report.envelope_constant,
        "tv_bound_n": report.tv_bound_n,
        "l1_hamming_identity_ok": identity_ok,
    }, args.out)
    return 0 if identity_ok else INVARIANT_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="ldprobust",
                     description="Robust estimation from privatized batch data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=0, seed_help=None):
        p.add_argument("--seed", type=_non_negative_int, default=seed_default, help=seed_help)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=_non_negative_int, default=1,
                       help="0 = auto; affects scheduling only, never results")

    p = sub.add_parser("simulate", help="run a single experiment cell")
    common(p)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--attack", default=harness.TrialCell.attack, choices=harness.ATTACKS)
    p.add_argument("--p-family", default=harness.TrialCell.p_family,
                   choices=harness.P_FAMILIES)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--tau-threshold", type=float, default=harness.TrialCell.tau_threshold)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON config")
    common(p, seed_default=None)
    p.add_argument("--config", type=str, required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sdp-check", help="random-matrix sandwich certification")
    common(p)
    p.add_argument("--d", type=_positive_int, default=8)
    p.add_argument("--instances", type=_positive_int, default=200)
    p.set_defaults(func=_cmd_sdp_check)

    p = sub.add_parser("lowerbound", help="emit a hard-pair certificate")
    common(p, seed_help="ignored: the hard pair is deterministic")
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k", type=int, default=100)
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("mixture-check", help="common-mixture residual report")
    common(p, seed_help="ignored: the hard pair is deterministic")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(func=_cmd_mixture_check)

    p = sub.add_parser("assouad", help="hypothesis-cube family report")
    common(p)
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--c-gamma", type=float, default=0.1)
    p.set_defaults(func=_cmd_assouad)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except ArtifactError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return INVARIANT_ERROR
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return USAGE_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INVARIANT_ERROR


if __name__ == "__main__":
    sys.exit(main())
