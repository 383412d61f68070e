import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldprobust import cli, harness
from ldprobust.cli import main
from ldprobust.errors import CertificateViolation


def run_cli(args):
    return main([str(a) for a in args])


def exit_code(args):
    """Exit code of a CLI run, whether main returns it or argparse exits."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


class TestSimulate:
    def test_eps_zero_outputs_equal_errors(self, tmp_path, capsys):
        out = tmp_path / "trial.json"
        code = run_cli(["simulate", "--n", 50, "--k", 5, "--d", 4,
                        "--eps", 0.0, "--seed", 3, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["l1_robust"] == payload["l1_naive"]
        assert payload["wall_ms"] == 0

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--n", 80, "--k", 10, "--d", 4, "--eps", 0.05,
                "--seed", 3]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_enough_rows_at_large_d(self, tmp_path):
        # the default n = 200 runs out of rows at d = 100 (exit 1); n = 500 does not
        out = tmp_path / "trial.json"
        assert run_cli(["simulate", "--attack", "all_ones", "--d", 100, "--n", 500,
                        "--out", out]) == 0
        assert json.loads(out.read_text())["iterations"] >= 2


class TestSweepCommand:
    def test_sweep_threads_byte_identical(self, tmp_path):
        cfg = {
            "n_grid": [40, 60], "k_grid": [5], "d_grid": [4],
            "alpha_grid": [1.0], "eps_grid": [0.05],
            "trials": 2, "seed": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = [tmp_path / f"o{i}.csv" for i in range(3)]
        assert run_cli(["sweep", "--config", cfg_path, "--out", outs[0]]) == 0
        assert run_cli(["sweep", "--config", cfg_path, "--out", outs[1],
                        "--threads", 1]) == 0
        assert run_cli(["sweep", "--config", cfg_path, "--out", outs[2],
                        "--threads", 8]) == 0
        data = [o.read_bytes() for o in outs]
        assert data[0] == data[1] == data[2]

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run_cli(["sweep", "--config", tmp_path / "none.json",
                        "--out", tmp_path / "x.csv"]) == 1


class TestCertificates:
    def test_sdp_check_passes(self, tmp_path):
        out = tmp_path / "sdp.json"
        code = run_cli(["sdp-check", "--seed", 7, "--d", 8, "--instances", 40,
                        "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["failures"] == 0
        assert 0.0 <= payload["worst_relative_gap"] <= 1e-4
        assert 1 <= payload["max_restarts_used"] <= 16

    def test_lowerbound_certificate(self, tmp_path):
        out = tmp_path / "pair.json"
        code = run_cli(["lowerbound", "--d", 8, "--alpha", 1.0, "--k", 100,
                        "--eps", 0.1, "--seed", 2, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["invariants_ok"]
        assert payload["tv_bound_k"] <= 0.1
        assert 0.0 < payload["chi2_upper"] <= math.e * payload["quad_form"]

    @pytest.mark.parametrize("args", [
        ["lowerbound", "--d", 20], ["lowerbound", "--d", 100],
        ["simulate", "--attack", "hard_pair_swap", "--d", 20],
        ["simulate", "--attack", "hard_pair_swap", "--d", 100, "--n", 2000],
        ["assouad", "--d", 64],
    ], ids=["lowerbound-d20", "lowerbound-d100", "hard-pair-swap-d20", "hard-pair-swap-d100",
            "assouad-d64"])
    def test_lower_bounds_above_the_enumeration_cap(self, args, tmp_path):
        out = tmp_path / "out.json"
        assert run_cli(args + ["--out", out]) == 0
        assert out.exists()

    # assouad too: it checks its l1 identity on one fixed sign pair per
    # Hamming distance
    @pytest.mark.parametrize("command", ["lowerbound", "mixture-check", "assouad"])
    def test_hard_pair_ignores_seed(self, command, tmp_path):
        outs = [tmp_path / f"seed{seed}.json" for seed in (0, 9)]
        for seed, out in zip((0, 9), outs):
            assert run_cli([command, "--seed", seed, "--out", out]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_mixture_check(self, tmp_path):
        out = tmp_path / "mix.json"
        code = run_cli(["mixture-check", "--d", 3, "--k", 2, "--eps", 0.1,
                        "--seed", 1, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"]
        assert payload["residual_p"] <= 1e-12

    def test_mixture_check_at_small_eps(self, tmp_path):
        out = tmp_path / "mix.json"
        code = run_cli(["mixture-check", "--d", 3, "--k", 2, "--eps", 1e-9, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] and payload["min_mass_n_p"] > 0

    def test_assouad_report(self, tmp_path):
        out = tmp_path / "cube.json"
        code = run_cli(["assouad", "--d", 6, "--n", 400, "--alpha", 1.0,
                        "--c-gamma", 0.1, "--seed", 4, "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["l1_hamming_identity_ok"]
        assert payload["members"] == 8
        assert payload["tv_bound_n"] <= 1.0 and payload["chi2_upper"] > 0.0

    def test_all_commands_rerun_identical(self, tmp_path):
        commands = [
            ["sdp-check", "--seed", 7, "--d", 6, "--instances", 10],
            ["lowerbound", "--d", 6, "--alpha", 1.0, "--k", 50, "--eps", 0.1,
             "--seed", 2],
            ["mixture-check", "--d", 3, "--k", 2, "--eps", 0.1, "--seed", 1],
            ["assouad", "--d", 6, "--n", 400, "--seed", 4],
        ]
        for i, cmd in enumerate(commands):
            a, b = tmp_path / f"r{i}a.json", tmp_path / f"r{i}b.json"
            assert run_cli(cmd + ["--out", a]) == 0
            assert run_cli(cmd + ["--out", b, "--threads", 8]) == 0
            assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate", "--nonsense", 4])
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["simulate", "sweep", "sdp-check", "lowerbound",
                                         "mixture-check", "assouad"])
    def test_threads_help_says_where_it_is_ignored(self, command, capsys):
        # only sweep runs more than one process
        with pytest.raises(SystemExit):
            run_cli([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        ignored = "--threads THREADS ignored: the command runs in one process"
        assert (ignored in text) == (command != "sweep")
        assert ("affects scheduling only" in text) == (command == "sweep")


def _sweep_text(**fields):
    base = {"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
            "eps_grid": [0.0]}
    return json.dumps({**base, **fields})


#: Sweep configs a cell rejects when it is built: attack parameters the attack
#: does not read, bad at eps = 0, or not whole; booleans as numbers; and grids
#: whose first cell is valid and a later one is not.
_REJECTED_BEFORE_ANY_TRIAL = {
    "misspelt-param": _sweep_text(eps_grid=[0.1], attack="targeted_subset",
                                  attack_params={"magnitud": 0.5}),
    "foreign-param": _sweep_text(eps_grid=[0.1], attack="targeted_subset",
                                 attack_params={"mix": 0.3}),
    "magnitude-not-a-number-eps-zero": _sweep_text(attack="targeted_subset",
                                                   attack_params={"magnitude": "abc"}),
    "subset-size-not-whole": _sweep_text(eps_grid=[0.1], attack="targeted_subset",
                                         attack_params={"subset_size": 2.7}),
    "direction-not-whole": _sweep_text(eps_grid=[0.1], attack="targeted_subset",
                                       attack_params={"direction": 1.5}),
    "subset-size-bool": _sweep_text(eps_grid=[0.1], attack="targeted_subset",
                                    attack_params={"subset_size": True}),
    "k-grid-bool": _sweep_text(k_grid=[True]),
    "trials-bool": _sweep_text(trials=True),
    "alpha-grid-bool": _sweep_text(alpha_grid=[True]),
    "eps-grid-bool": _sweep_text(eps_grid=[False]),
    "tau-threshold-bool": _sweep_text(tau_threshold=True),
    "d-too-small-in-second-cell": _sweep_text(d_grid=[5, 2], trials=3),
    "alpha-too-large-in-second-cell": _sweep_text(alpha_grid=[1.0, 3.0], trials=3),
    "lambda-half-in-second-cell": _sweep_text(alpha_grid=[1.0, 1e-300], trials=3),
}


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["simulate", "--attack", "nope"],
        ["simulate", "--attack", "foo", "--eps", 0],
        ["simulate", "--eps", 0.3],
        ["simulate", "--d", 2],
        ["sdp-check", "--d", 30, "--instances", 1],
        ["sdp-check", "--instances", 0],
        ["simulate", "--attack", "hard_pair_swap", "--alpha", 1.5],
        ["simulate", "--attack", "hard_pair_swap", "--d", 4097],
        ["lowerbound", "--d", 4097],
        ["lowerbound", "--eps", "1e-232"],
        ["mixture-check", "--eps", "1e-300"],
        ["simulate", "--tau-threshold", 0],
        ["simulate", "--n", 1],
        ["simulate", "--k", 0],
        ["simulate", "--seed", -1],
        ["simulate", "--trial", -1],
        ["simulate", "--eps", "nan"],
        ["simulate", "--eps", "inf"],
        ["assouad", "--c-gamma", 1.5],
        ["assouad", "--n", 0],
        ["assouad", "--alpha", 0],
        ["assouad", "--alpha", "inf"],
        ["assouad", "--alpha", "nan"],
        ["lowerbound", "--k", 0],
        ["mixture-check", "--k", 0],
        ["mixture-check", "--d", 9, "--k", 3],
        ["sdp-check", "--d", 0],
        ["sdp-check", "--d", -3],
        ["simulate", "--attack", "all_ones", "--d", 100],
        ["simulate", "--attack", "targeted_subset", "--d", 128],
        ["simulate", "--attack", "hard_pair_swap", "--d", 128],
        *([command, "--threads", -1] for command in
          ("simulate", "sdp-check", "lowerbound", "mixture-check", "assouad")),
    ], ids=["unknown-attack", "unknown-attack-eps-zero", "eps-too-large", "d-too-small",
            "sdp-d-too-large", "no-instances", "hard-pair-alpha", "hard-pair-d", "lowerbound-d",
            "lowerbound-eps-underflow", "mixture-eps-underflow", "tau-threshold-zero", "n-one", "k-zero", "negative-seed", "negative-trial",
            "eps-nan", "eps-inf", "assouad-c-gamma", "assouad-n-zero", "assouad-alpha-zero",
            "assouad-alpha-inf", "assouad-alpha-nan", "lowerbound-k-zero", "mixture-k-zero",
            "mixture-product-space", "sdp-d-zero", "sdp-d-negative",
            "filter-out-of-rows-d100", "filter-out-of-rows-d128",
            "filter-out-of-rows-hard-pair",
            *(f"{command}-threads-negative" for command in
              ("simulate", "sdp-check", "lowerbound", "mixture-check", "assouad"))])
    def test_input_contract_errors_exit_1(self, args, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert exit_code(args + ["--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--n", 200, "--k", 100_000_000, "--d", 5],
        ["assouad", "--c-gamma", "1e-15"],
        ["assouad", "--c-gamma", "1e-320"],
        ["assouad", "--d", 3, "--n", 1, "--alpha", 2, "--c-gamma", 0.5],
        ["simulate", "--alpha", "1e-300"],
    ], ids=["inexact-statistics", "assouad-gamma-rounds", "assouad-gamma-subnormal",
            "assouad-gamma-crosses-half", "alpha-lambda-rounds-to-half"])
    def test_outside_exact_bounds_exits_1_with_one_error_line(self, args, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert exit_code(args + ["--out", out]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("text", [
        json.dumps({"n_grid": [], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                    "eps_grid": [0.0]}),
        json.dumps({"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                    "eps_grid": [0.0], "trials": 0}),
        '{"n_grid": [40], "k_grid": [5],',
        json.dumps({"n_grid": [40], "k_grid": [5]}),
        json.dumps([1, 2, 3]),
        json.dumps({"n_grid": [1], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                    "eps_grid": [0.0]}),
        json.dumps({"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                    "eps_grid": [0.0], "p_family": "nope"}),
        *(json.dumps({"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                      "eps_grid": [0.1], "attack": attack, "attack_params": {key: value}})
          for attack, key, value in [
              ("targeted_subset", "magnitude", "abc"), ("swap_mix", "mix", "abc"),
              ("targeted_subset", "subset_size", "abc"), ("targeted_subset", "direction", "abc"),
              ("swap_mix", "mix", -0.5), ("targeted_subset", "subset_size", 0)]),
        *(json.dumps({"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                      "eps_grid": [0.0], **fields})
          for fields in [{"n_grid": ["a"]}, {"alpha_grid": ["x"]}, {"trails": 20},
                         {"attack": "foo"}]),
        '{"n_grid": [1e400], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0], '
        '"eps_grid": [0.0]}',
        '{"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0], '
        '"eps_grid": [0.0], "trials": 1e400}',
        *(json.dumps({"n_grid": [40], "k_grid": [5], "d_grid": [4], "alpha_grid": [1.0],
                      "eps_grid": [0.0], **fields})
          for fields in [{"n_grid": "45"}, {"n_grid": {"40": 1}}, {"n_grid": [40.7]},
                         {"trials": 2.9}]),
        "[" * 200_000,
        *_REJECTED_BEFORE_ANY_TRIAL.values(),
    ], ids=["empty-grid", "zero-trials", "malformed-json", "missing-grid",
            "not-an-object", "n-one", "unknown-family", "magnitude-not-a-number",
            "mix-not-a-number", "subset-size-not-a-number", "direction-not-a-number",
            "mix-negative", "subset-size-zero", "grid-not-a-number",
            "alpha-grid-not-a-number", "unknown-key", "unknown-attack-eps-zero",
            "grid-overflow", "trials-overflow", "string-grid", "mapping-grid", "grid-not-whole",
            "trials-not-whole", "nested-too-deeply", *_REJECTED_BEFORE_ANY_TRIAL])
    def test_bad_sweep_config_exits_1(self, text, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        out = tmp_path / "out.csv"
        assert exit_code(["sweep", "--config", cfg_path, "--out", out]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", _REJECTED_BEFORE_ANY_TRIAL.values(),
                             ids=_REJECTED_BEFORE_ANY_TRIAL)
    def test_bad_sweep_config_runs_no_trial(self, text, tmp_path, monkeypatch, capsys):
        run_trial, calls = harness.run_trial, []

        def counting(*args):
            calls.append(args)
            return run_trial(*args)

        monkeypatch.setattr(harness, "run_trial", counting)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert exit_code(["sweep", "--config", cfg_path, "--out", tmp_path / "out.csv",
                          "--threads", 1]) == 1
        assert calls == []

    @pytest.mark.parametrize("args", [["--n", 5], ["--eps", "1e-200"]],
                             ids=["n-five", "eps-tiny"])
    def test_no_adversarial_row_exits_0(self, args, tmp_path):
        # floor(eps * n) = 0: the estimate is the naive one
        out = tmp_path / "t.json"
        assert exit_code(["simulate", *args, "--out", out]) == 0
        assert out.exists()

    def test_failed_certificate_exits_2(self, tmp_path, monkeypatch):
        solve = cli.gram_maximize

        def uncertified(A, **kwargs):
            sol = solve(A, **kwargs)
            return dataclasses.replace(sol, upper_bound=100.0 * abs(sol.value))

        monkeypatch.setattr(cli, "gram_maximize", uncertified)
        out = tmp_path / "sdp.json"
        assert exit_code(["sdp-check", "--d", 6, "--instances", 3, "--out", out]) == 2
        payload = json.loads(out.read_text())
        assert payload["failures"] == 3

    def test_broken_invariant_exits_2(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise CertificateViolation("trace bound violated")

        monkeypatch.setattr(harness, "robust_estimate", broken)
        assert exit_code(["simulate", "--n", 50, "--k", 5, "--d", 4,
                          "--out", tmp_path / "t.json"]) == 2


#: The value options of each subcommand the property test draws from.
_OPTIONS = {
    "simulate": ("--d", "--n", "--k", "--alpha", "--eps", "--seed"),
    "sdp-check": ("--d", "--instances", "--seed"),
    "lowerbound": ("--d", "--alpha", "--k", "--eps", "--seed"),
    "mixture-check": ("--d", "--alpha", "--k", "--eps", "--seed"),
    "assouad": ("--d", "--n", "--alpha", "--c-gamma", "--seed"),
}
# Values in range for every subcommand that has the option, kept tiny so that
# every draw runs in milliseconds.  Some subcommands still reject some of
# them (simulate needs d >= 3, and assouad a c_gamma large enough for
# 1/d +- gamma to be exact), so they may exit 1.
_IN_RANGE = {
    "--d": st.integers(1, 6).map(str),
    "--n": st.integers(1, 60).map(str),
    "--k": st.integers(1, 8).map(str),
    "--alpha": st.floats(0.05, 3.0).map(repr),
    "--eps": st.floats(0.0, 0.3).map(repr),
    "--instances": st.integers(1, 3).map(str),
    "--c-gamma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(repr),
    "--seed": st.integers(0, 2 ** 32).map(str),
}
# Values outside the contract of every subcommand that has the option.
_NOT_INT = ["nan", "inf", "abc", "", "2.5", "1e400", "2 ** 3"]
_OUT_OF_RANGE = {
    "--d": ["0", "-1", "-3", *_NOT_INT],
    "--n": ["0", "-1", *_NOT_INT],
    "--k": ["0", "-1", *_NOT_INT],
    "--alpha": ["0", "-1", "nan", "inf", "-inf", "abc", ""],
    "--eps": ["-1", "-0.1", "0.7", "nan", "inf", "abc", ""],
    "--instances": ["0", "-1", *_NOT_INT],
    "--c-gamma": ["0", "-0.1", "1", "1.5", "nan", "inf", "abc", ""],
    "--seed": ["-1", *_NOT_INT],
}


@st.composite
def _cli_argv(draw):
    """An argv and whether one of its values lies outside the contract."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv, invalid = [command], False
    for option in _OPTIONS[command]:
        if draw(st.booleans()):
            bad = draw(st.booleans())
            strategy = st.sampled_from(_OUT_OF_RANGE[option]) if bad else _IN_RANGE[option]
            argv += [option, draw(strategy)]
            invalid |= bad
    if draw(st.booleans()):
        threads = draw(st.sampled_from([-1, 0, 1, 2]))
        argv += ["--threads", str(threads)]
        invalid |= threads < 0
    if command == "sdp-check" and "--instances" not in argv:
        argv += ["--instances", "3"]
    return argv, invalid


class TestCliProperty:
    @settings(max_examples=150, deadline=None)
    @given(case=_cli_argv())
    @example(case=(["sdp-check", "--d", "0"], True))
    @example(case=(["sdp-check", "--d", "-3", "--instances", "1"], True))
    @example(case=(["simulate", "--n", "60", "--threads", "-1"], True))
    @example(case=(["mixture-check", "--d", "3", "--k", "2", "--eps", "1e-09"], False))
    @example(case=(["lowerbound", "--eps", "1e-232"], False))
    @example(case=(["lowerbound", "--eps", "2.220446049250313e-16"], False))
    @example(case=(["simulate", "--n", "200", "--k", "100000000", "--d", "5"], True))
    @example(case=(["assouad", "--c-gamma", "1e-15"], True))
    @example(case=(["assouad", "--c-gamma", "1e-320"], True))
    def test_exit_code_class(self, case):
        # nothing escapes main; a value outside the contract exits 1, and an
        # in-range draw exits 0 or 1 (a subcommand-specific limit)
        argv, invalid = case
        code = exit_code(argv)
        if invalid:
            assert code == 1, argv
        else:
            assert code in (0, 1), argv
