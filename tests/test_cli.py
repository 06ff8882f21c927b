"""End-to-end command line behaviour: reports, exit codes, determinism."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import hypershift.cli
import hypershift.counterexample
import hypershift.curvature
import hypershift.hypercontraction
import hypershift.multiindex
import hypershift.similarity
import hypershift.truncation
from hypershift import (
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    RadialWeight,
)
from hypershift.cli import _float_flag, _int_flag, build_parser, main
from hypershift.counterexample import kernel_bound

F = Fraction
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def weight_files(tmp_path):
    specs = {
        "power1m1": PowerKernel(1, 1).spec_dict(),
        "power2m1": PowerKernel(2, 1).spec_dict(),
        "power2m2": PowerKernel(2, 2).spec_dict(),
        "flat_m1": RadialWeight(1, PolynomialSequence([F(1)])).spec_dict(),
        "perturbed": PerturbedPower(2, 2, 2).spec_dict(),
    }
    paths = {}
    for name, spec in specs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(spec))
        paths[name] = str(p)
    return paths


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


# -- basic runs and determinism ----------------------------------------------


def test_verify_identities_passes(capsys):
    code, report = run_json(capsys, ["verify-identities", "--n-max", "6", "--dims", "2"])
    assert code == 0
    assert report["pass"] is True
    assert "witness" not in report
    assert set(report["checks"]) == {
        "vandermonde",
        "negative_binomial_convolution",
        "alternating_sum",
        "multinomial_theorem",
    }
    assert all(v > 0 for v in report["checks"].values())


def test_verify_identities_reports_the_first_failure(capsys, monkeypatch):
    # A failing identity makes the report a witness: exit 1, and the
    # witness is the first failing case in the report's order.
    monkeypatch.setattr(hypershift.multiindex, "verify_alternating_sum", lambda n, stop: stop > 0)
    code, report = run_json(capsys, ["verify-identities", "--n-max", "3", "--dims", "2"])
    assert code == 1
    assert report["pass"] is False
    assert report["witness"] == {"identity": "alternating-sum", "n": 1, "stop": 0}
    assert report["checks"]["alternating_sum"] == 2 + 3 + 4


@pytest.mark.parametrize(
    "argv",
    [
        ["--n-max", "-1"],
        ["--n-max", "1"],
        ["--dims", "0"],
        ["--dims", "-2"],
        ["--beta-max", "-1"],
        # No dimension would ever read a negative --beta-max.
        ["--dims", "0", "--beta-max", "-1"],
    ],
)
def test_verify_identities_refuses_vacuous_ranges(capsys, argv):
    # Each identity family must check at least one case, so a range that
    # leaves one empty is a usage error rather than a vacuous pass.
    assert main(["verify-identities", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_identities_checks_every_family_at_the_smallest_ranges(capsys):
    code, report = run_json(
        capsys, ["verify-identities", "--n-max", "2", "--beta-max", "0", "--dims", "1"]
    )
    assert code == 0
    assert report["checks"] == {
        "alternating_sum": 5,
        "multinomial_theorem": 1,
        "negative_binomial_convolution": 5,
        "vandermonde": 1,
    }


def test_output_is_byte_identical_across_runs(capsys, weight_files):
    argv = ["check-hyper", "--weights", weight_files["power2m2"], "--n", "2", "--degree", "6"]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")
    # Canonical form: keys sorted, no spaces after separators.
    assert json.dumps(json.loads(first), sort_keys=True, separators=(",", ":")) + "\n" == first


def test_out_file_matches_stdout(capsys, weight_files, tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run(
        capsys,
        [
            "check-hyper",
            "--weights",
            weight_files["power2m1"],
            "--n",
            "1",
            "--degree",
            "4",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert out_path.read_text() == out


# -- check-hyper --------------------------------------------------------------


def test_check_hyper_clean_scan(capsys, weight_files):
    code, report = run_json(
        capsys,
        ["check-hyper", "--weights", weight_files["power2m2"], "--n", "2", "--degree", "8"],
    )
    assert code == 0
    assert report["verdict"] == "no-violation-up-to-8"
    assert "witness" not in report


def test_check_hyper_finds_flat_violation(capsys, weight_files):
    code, report = run_json(
        capsys,
        ["check-hyper", "--weights", weight_files["flat_m1"], "--n", "2", "--degree", "3"],
    )
    assert code == 1
    assert report["verdict"] == "violation"
    assert report["witness"] == {"order": 2, "alpha": [1], "value": "-1/1"}


# -- necessary ----------------------------------------------------------------


def test_necessary_single_point_holds(capsys, weight_files):
    code, report = run_json(
        capsys,
        ["necessary", "--weights", weight_files["power2m2"], "--n", "2", "--alpha", "2,3"],
    )
    assert code == 0
    assert report["holds"] is True
    assert report["lhs"] == report["rhs"] == "5/6"


def test_necessary_perturbed_witness(capsys, weight_files):
    code, report = run_json(
        capsys,
        ["necessary", "--weights", weight_files["perturbed"], "--n", "2", "--alpha", "2,511"],
    )
    assert code == 1
    assert report["witness"] == {"alpha": [2, 511], "lhs": "513/257", "rhs": "513/514"}


def test_necessary_degree_scan(capsys, weight_files):
    code, report = run_json(
        capsys,
        ["necessary", "--weights", weight_files["flat_m1"], "--n", "2", "--degree", "4"],
    )
    assert code == 1
    assert report["verdict"] == "violated"
    assert report["witness"]["alpha"] == [1]
    assert report["checked"] == 1

    code, report = run_json(
        capsys,
        ["necessary", "--weights", weight_files["power2m1"], "--n", "2", "--degree", "4"],
    )
    assert code == 0
    assert report["verdict"] == "all-hold"
    assert report["checked"] == 4


@pytest.mark.parametrize("alpha", ["1", "1,2,3"])
def test_necessary_alpha_must_match_the_weight_dimension(capsys, weight_files, alpha):
    # power2m2 has m = 2: a short index used to end in an IndexError and a
    # long one in a wrong answer with exit 0.
    code = main(["necessary", "--weights", weight_files["power2m2"], "--n", "2", "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_necessary_needs_exactly_one_selector(capsys, weight_files):
    base = ["necessary", "--weights", weight_files["power2m1"], "--n", "2"]
    assert main(base) == 2
    assert main(base + ["--degree", "3", "--alpha", "1"]) == 2
    capsys.readouterr()


# -- similarity-scan ----------------------------------------------------------


def test_similarity_scan_flags_growth(capsys, weight_files):
    argv = [
        "similarity-scan",
        "--weights",
        weight_files["flat_m1"],
        "--weights",
        weight_files["power2m1"],
        "--degree",
        "4",
        "--ray-length",
        "6",
    ]
    code, report = run_json(capsys, argv + ["--growth-factor", "3/2"])
    assert code == 1
    assert report["verdict"] == "growth-flagged"
    assert report["max_ratio_sq"] == "8/1"
    assert report["argmax"] == {"alpha": [0], "direction": 0, "length": 6}
    assert report["min_ratio_sq"] == "6/5"
    assert report["witness"]["value"] == "8/1"
    # The default factor 2 is stricter and lets the same data pass.
    code, report = run_json(capsys, argv)
    assert code == 0
    assert report["verdict"] == "bounded-in-scan"
    assert "witness" not in report


@pytest.mark.parametrize("growth", ["1_0", "\uff12", "3/\uff12"])
def test_growth_factor_is_an_ascii_rational(capsys, weight_files, growth):
    # Fraction() reads "1_0" as 10 and takes other scripts' digits.
    argv = ["similarity-scan", "--weights", weight_files["flat_m1"]]
    argv += ["--weights", weight_files["power2m1"], "--degree", "2", "--ray-length", "2"]
    assert main(argv + ["--growth-factor", growth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not a rational: {growth!r}\n"


def test_similarity_scan_csv(capsys, weight_files, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out = run(
        capsys,
        [
            "similarity-scan",
            "--weights",
            weight_files["flat_m1"],
            "--weights",
            weight_files["power2m1"],
            "--degree",
            "4",
            "--ray-length",
            "6",
            "--growth-factor",
            "3/2",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ],
    )
    assert code == 1  # the flag still drives the exit code in csv mode
    lines = out.splitlines()
    assert lines[0] == "degree,direction,length,ratio_sq"
    assert len(lines) == 1 + 5 * 7
    assert lines[1] == "0,0,0,2"
    assert out_path.read_text() == out


# -- curvature ----------------------------------------------------------------


def test_curvature_single_weight_records(capsys, weight_files):
    code, report = run_json(
        capsys,
        [
            "curvature",
            "--weights",
            weight_files["power2m1"],
            "--grid",
            "radial:2x2",
            "--eval-degree",
            "120",
        ],
    )
    assert code == 0
    assert report["all_psd"] is True
    assert report["n_points"] == len(report["records"]) == 5
    rec0 = report["records"][0]
    assert rec0["w"] == [[0.0, 0.0]]
    assert abs(rec0["hessian"][0][0][0] - 2.0) < 1e-12
    assert abs(rec0["min_eig"] - 2.0) < 1e-12
    assert rec0["psd"] is True
    assert rec0["eigenvalues"] == [rec0["min_eig"]]


def test_curvature_pair_report(capsys, weight_files):
    code, report = run_json(
        capsys,
        [
            "curvature",
            "--weights",
            weight_files["power1m1"],
            "--weights",
            weight_files["power2m1"],
            "--grid",
            "radial:3x2",
            "--eval-degree",
            "400",
        ],
    )
    assert code == 0  # informational: no witness key on a negative result
    assert report["all_psd"] is False
    assert report["unbounded_trend"] is True
    assert report["psi_max"] == 0.0
    assert report["n_points"] == len(report["records"]) == 7
    assert {"w", "hessian", "eigenvalues", "psi"} <= set(report["records"][0])
    radii = [r for r, _ in report["shells"]]
    assert radii == sorted(radii)


@pytest.mark.parametrize(
    "a, b",
    [
        ({"generator": "power", "n": 2}, {"generator": "polynomial", "coefficients": ["1", "1"]}),
        ({"generator": "geometric", "r": "1"}, {"generator": "polynomial", "coefficients": ["1"]}),
        (
            {"generator": "polynomial", "coefficients": ["1", "1", "0"]},
            {"generator": "polynomial", "coefficients": ["1", "1"]},
        ),
    ],
    ids=["power2-is-i-plus-1", "geometric1-is-constant", "trailing-zero"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--grid", "radial:1x1", "--eval-degree", "9"],
        ["check-hyper", "--n", "2", "--degree", "6"],
    ],
    ids=["curvature", "check-hyper"],
)
def test_one_sequence_written_two_ways_gives_one_report(capsys, tmp_path, a, b, argv):
    # Both specs of one a(i) reach the same values and the same ratio bound,
    # so their reports differ in params alone.
    reports = []
    for name, spec in [("a", a), ("b", b)]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"kind": "radial", "m": 2, "a": spec}))
        code, report = run_json(capsys, [*argv, "--weights", str(path)])
        del report["params"]
        reports.append((code, report))
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--weights", "power2m2", "--grid", "radial:2x4"],
        ["curvature", "--weights", "perturbed", "--weights", "power2m2", "--grid", "radial:2x4"],
        ["example45", "--eval-degree", "40"],
    ],
    ids=["single", "pair", "example45"],
)
def test_curvature_reports_make_one_points_call(capsys, weight_files, monkeypatch, argv):
    # The pair summary reads the records its caller holds, so each report
    # builds its points once, for one weight or a pair.
    real = hypershift.curvature.curvature_points
    calls = []

    def counting(weights, grid, *args, **kwargs):
        calls.append(len(weights))
        return real(weights, grid, *args, **kwargs)

    monkeypatch.setattr(hypershift.curvature, "curvature_points", counting)
    argv = [weight_files.get(a, a) for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [argv.count("--weights") or 2]


@pytest.mark.xfail(
    strict=True,
    reason="a truncated metric series is reported as exact; ROADMAP item 1 removes this marker",
)
def test_short_series_curvature_matches_the_closed_form(capsys, weight_files):
    # power(1, 1) has h = 1/(1 - t) and H = 1/(1 - t)^2 on the line, 105.19
    # at w = 0.95.  Cut at degree 3 its series gives H = 1.3727 there, and
    # the report still says psd with no error bound beside it.
    code, report = run_json(
        capsys,
        [
            "curvature",
            "--weights",
            weight_files["power1m1"],
            "--grid",
            "radial:1x1",
            "--eval-degree",
            "3",
        ],
    )
    assert code == 0
    (record,) = [r for r in report["records"] if r["w"] == [[0.95, 0.0]]]
    assert record["hessian"][0][0][0] == pytest.approx(1 / (1 - 0.95**2) ** 2, rel=1e-9)


def test_curvature_rejects_bad_grid(capsys, weight_files):
    # radial:2x0 used to scan the origin alone and report all_psd true.
    # radial:1_0x2 used to be read as radial:10x2.
    for grid in (
        "cube", "radial:ax2", "radial:0x4", "radial:2x0", "radial:2x-1", "radial:1_0x2",
        "radial:+2x2", "radial: 2x2",
    ):
        assert main(["curvature", "--weights", weight_files["power2m1"], "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("names", [["power2m2"], ["perturbed", "power2m2"]], ids=["single", "pair"])
def test_curvature_rejects_bad_tol(capsys, weight_files, monkeypatch, tol, names):
    # -1 used to exit 3 with a false non-Hermitian refusal on one weight and
    # 0 with all_psd false on a pair; nan and inf ran every jet and then
    # failed to encode the report.  Both refuse before any jet runs.
    def no_jets(*args, **kwargs):
        raise AssertionError("a metric jet ran")

    for name in ("metric_jets", "curvature_points"):
        monkeypatch.setattr(hypershift.curvature, name, no_jets)
    argv = ["curvature", "--grid", "radial:1x1", "--tol", tol]
    for name in names:
        argv += ["--weights", weight_files[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: psd tolerance must be finite and >= 0, got {float(tol)}\n"


@pytest.mark.parametrize("tol", ["1_0", "1e-1_0", "\uff11", "\u0661e-3", "abc"])
def test_tol_is_ascii_without_underscores(capsys, weight_files, tol):
    # float() reads "1_0" as 10 and takes other scripts' digits; "abc" is
    # ASCII text that float() refuses.
    argv = ["curvature", "--weights", weight_files["power2m2"], "--tol", tol]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --tol: not a number: {tol!r}\n")


def _refusal(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("command", ["truncate", "similarity-scan"])
def test_values_past_float_range_exit_3(capsys, tmp_path, command):
    # Neither truncate's step ratio rho(0)/rho(1) = 10^400 nor the csv's
    # ratio_sq of 10^320 on the ray of r = 1 against r = 10 has a float64
    # value: exit 3 with one JSON line, no traceback and no report.
    def spec_file(name, spec):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        return str(path)

    if command == "truncate":
        rho = [{"alpha": [0], "rho": "1"}, {"alpha": [1], "rho": "1/1" + "0" * 400}]
        argv = ["truncate", "--degree", "1"]
        argv += ["--weights", spec_file("tiny", {"kind": "table", "m": 1, "entries": rho})]
    else:
        argv = ["similarity-scan", "--degree", "0", "--ray-length", "320", "--format", "csv"]
        for r in ("1", "10"):
            spec = {"kind": "radial", "m": 1, "a": {"generator": "geometric", "r": r}}
            argv += ["--weights", spec_file(f"r{r}", spec)]
    assert main(argv) == 3
    assert _refusal(capsys)["kind"] == "OverflowError"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_decimal_past_float_range_exits_3(capsys, tmp_path, fmt):
    # rho(1) = 10^400 puts the origin's Hessian eigenvalue, a working-
    # precision Decimal, past float64 range: both formats refuse it alike,
    # where the JSON report used to exit 2 and the CSV to write "inf".
    rho = [{"alpha": [0], "rho": "1"}, {"alpha": [1], "rho": "1" + "0" * 400}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "table", "m": 1, "fallback": "power:1", "entries": rho}))
    argv = ["curvature", "--weights", str(path), "--grid", "radial:1x1", "--format", fmt]
    assert main(argv) == 3
    assert _refusal(capsys)["kind"] == "OverflowError"


def test_running_out_of_memory_exits_3(capsys, weight_files, monkeypatch):
    # Exit 1 means "the report has a witness"; a MemoryError used to take it
    # with a traceback.
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(hypershift.truncation, "Truncation", no_memory)
    assert main(["truncate", "--weights", weight_files["power2m2"], "--degree", "300"]) == 3
    refusal = _refusal(capsys)
    assert refusal["kind"] == "MemoryError"
    # The allocator's bare MemoryError has no message of its own.
    assert refusal["error"] == "out of memory"


def test_jacobi_that_does_not_settle_exits_3(capsys, monkeypatch):
    # The m = 3 cubic's class matrices go through _jacobi; with no sweeps
    # allowed it refuses with a RuntimeError, which is exit 3.
    monkeypatch.setattr(hypershift.curvature, "_MAX_SWEEPS", 0)
    argv = ["curvature", "--weights", str(DATA / "cubic_m3.json"), "--grid", "radial:2x4"]
    assert main(argv) == 3
    assert _refusal(capsys) == {
        "error": "Jacobi eigenvalue iteration did not settle in 0 sweeps",
        "kind": "RuntimeError",
    }


def test_weights_past_the_recursion_limit_scan(capsys, tmp_path):
    # m = 1200 coordinates: the correction cone of the table's one entry is
    # enumerate_leq_degree(1200, 1), which used to exit 3 with a
    # RecursionError.
    path = tmp_path / "wide.json"
    entries = [{"alpha": [0] * 1200, "rho": "2"}]
    path.write_text(
        json.dumps({"kind": "table", "m": 1200, "fallback": "power:2", "entries": entries})
    )
    code, report = run_json(
        capsys, ["check-hyper", "--weights", str(path), "--n", "1", "--degree", "2"]
    )
    assert code == 0
    assert report["verdict"] == "no-violation-up-to-2"


def test_refused_numerics_exit_3(capsys, tmp_path):
    # a(i) = 5 - i + i^2 has a negative coefficient, so no ratio bound: the
    # tail of the metric series cannot be certified.
    p = tmp_path / "nobound.json"
    p.write_text(
        json.dumps(
            {"kind": "radial", "m": 1, "a": {"generator": "polynomial", "coefficients": ["5", "-1", "1"]}}
        )
    )
    assert main(["curvature", "--weights", str(p)]) == 3
    err = _refusal(capsys)
    assert err["kind"] == "TailUnreliableError"
    assert "ratio bound" in err["error"]


# -- truncate -----------------------------------------------------------------


def test_truncate_decay_and_commutators(capsys, weight_files):
    code, report = run_json(
        capsys,
        [
            "truncate",
            "--weights",
            weight_files["power2m1"],
            "--degree",
            "6",
            "--alpha",
            "3",
            "--k-max",
            "4",
        ],
    )
    assert code == 0
    assert report["dimension"] == 7
    assert report["commutator_exact"] == "0/1"
    assert report["commutator_float"] == 0.0
    assert report["decay"] == {"alpha": [3], "values": ["1/1", "3/4", "1/2", "1/4", "0/1"]}


def test_truncate_defect_block(capsys, weight_files):
    code, report = run_json(
        capsys,
        [
            "truncate",
            "--weights",
            weight_files["power2m1"],
            "--degree",
            "6",
            "--defect-order",
            "1",
        ],
    )
    assert code == 0
    defect = report["defect"]
    assert defect["order"] == 1
    assert defect["min"] == "1/7"
    assert defect["max"] == "1/1"
    assert defect["off_diagonal_entries"] == 0
    assert defect["float_deviation"] < 1e-12


def test_truncate_decay_csv(capsys, weight_files):
    code, out = run(
        capsys,
        [
            "truncate",
            "--weights",
            weight_files["power2m1"],
            "--degree",
            "6",
            "--alpha",
            "3",
            "--k-max",
            "4",
            "--format",
            "csv",
        ],
    )
    assert code == 0
    assert out.splitlines() == ["k,value", "0,1", "1,0.75", "2,0.5", "3,0.25", "4,0"]


def test_truncate_alpha_outside_model(capsys, weight_files):
    code = main(
        ["truncate", "--weights", weight_files["power2m1"], "--degree", "4", "--alpha", "9"]
    )
    assert code == 2
    capsys.readouterr()


def test_truncate_k_max_needs_alpha(capsys, weight_files):
    # --k-max sets the length of the decay curve at --alpha; alone it used
    # to be dropped with exit 0.
    argv = ["truncate", "--weights", weight_files["power2m1"], "--degree", "4", "--k-max", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncate --k-max needs --alpha\n"


# -- example45 ----------------------------------------------------------------


def test_example45_needs_two_blocks(capsys):
    assert main(["example45", "--blocks", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--precision-bits", "10"], "precision_bits must be at least 53"),
        (["--eval-degree", "-1"], "max_degree must be >= 0"),
        (["--scan-degree", "-1"], "max_degree must be >= 0"),
    ],
)
def test_example45_checks_the_metric_arguments_first(capsys, monkeypatch, flags, message):
    # The arguments stage (d) would refuse are refused before the scan of
    # stage (b), which used to run the degree-4,099 scan first at --blocks 3.
    # They, and a negative scan degree, are refused before stage (a), whose
    # exact kernel bound takes over a second at --blocks 3.
    def ran(*args, **kwargs):
        raise AssertionError("stage (a) or the defect scan ran")

    monkeypatch.setattr(hypershift.counterexample, "kernel_bound", ran)
    monkeypatch.setattr(hypershift.hypercontraction, "is_n_hyper_up_to", ran)
    assert main(["example45", "--blocks", "3"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_example45_wrong_ray_ratio_fails_stage_c(capsys, monkeypatch):
    # A ray ratio other than the block index l, below it or above it, fails
    # stage (c) alone, and the report names it as the witness with exit 1.
    for ratio, text in [(F(3, 2), "3/2"), (F(3), "3/1")]:
        monkeypatch.setattr(hypershift.similarity, "ray_ratio_sq", lambda *args, r=ratio: r)
        argv = ["example45", "--eval-degree", "40", "--precision-bits", "60"]
        code, report = run_json(capsys, argv)
        assert code == 1
        assert report["pass"] is False
        assert report["witness"] == {"stage": "ray_ratio"}
        stages = report["stages"]
        assert stages["ray_ratio"]["pass"] is False
        assert stages["ray_ratio"]["witnesses"] == [
            {"alpha": [0, 511], "block": 2, "length": 1, "ratio_sq": text}
        ]
        assert [name for name, stage in stages.items() if not stage["pass"]] == ["ray_ratio"]


def test_example45_needs_the_neighbour_sum_violation(capsys, monkeypatch):
    # A defect witness alone does not pass stage (b): with the neighbour-sum
    # bound holding at the midpoint, the stage fails and is the witness.
    def holds(W, n, alpha):
        return hypershift.hypercontraction.ConditionCheck(alpha, F(0), F(1))

    monkeypatch.setattr(hypershift.hypercontraction, "necessary_condition", holds)
    argv = ["example45", "--eval-degree", "40", "--precision-bits", "60"]
    code, report = run_json(capsys, argv)
    assert code == 1
    assert report["witness"] == {"stage": "necessary_violation"}
    stage = report["stages"]["necessary_violation"]
    assert stage["pass"] is False
    assert stage["lhs"] == "0/1"
    assert stage["defect_witness"] == {"order": 1, "alpha": [2, 511], "value": "-256/257"}


def test_example45_short_scan_misses_the_witness(capsys):
    code, report = run_json(
        capsys,
        [
            "example45",
            "--scan-degree",
            "60",
            "--eval-degree",
            "40",
            "--precision-bits",
            "60",
        ],
    )
    assert code == 1
    assert report["pass"] is False
    assert report["witness"] == {"stage": "necessary_violation"}
    stage = report["stages"]["necessary_violation"]
    assert stage["pass"] is False
    assert stage["lhs"] == "513/257"  # the violation itself is still exhibited
    assert stage["verdict"] == "no-violation-up-to-60"
    assert "defect_witness" not in stage
    # The other stages are healthy.
    assert report["stages"]["kernel_bound"]["pass"] is True
    assert report["stages"]["ray_ratio"]["pass"] is True
    assert report["stages"]["ray_ratio"]["witnesses"] == [
        {"block": 2, "alpha": [0, 511], "length": 1, "ratio_sq": "2/1"}
    ]


def test_kernel_bound_passes_on_the_whole_ball_sup():
    # delta |w^alpha|^2 (1-t)^2 at alpha = (0, 2000) peaks at t* = 1000/1001,
    # past the grid's last t = 99/100: the grid maximum is tiny, but the sup
    # over the ball is 10^6 (1000/1001)^2000 / 1001^2 ~ 0.135 > 1/8.
    bound = kernel_bound([((0, 2000), F(-(10**6)))], 2)
    assert bound["pass"] is False
    assert bound["margin"] > 0.1249
    assert bound["worst_t"] == F(99, 100)
    assert 0.125 < bound["sup_bound"] < 0.14
    # No correction: no deviation anywhere.
    assert kernel_bound([], 2) == {
        "pass": True, "sup_bound": 0.0, "max_deviation": 0.0, "margin": 0.125,
        "worst_t": F(0), "t_grid_size": 21,
    }


# -- usage errors -------------------------------------------------------------


def test_weight_file_errors(capsys, tmp_path, weight_files):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-hyper", "--weights", str(bad), "--n", "1", "--degree", "2"]) == 2
    missing = str(tmp_path / "missing.json")
    assert main(["check-hyper", "--weights", missing, "--n", "1", "--degree", "2"]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"kind": "mystery"}))
    assert main(["check-hyper", "--weights", str(unknown), "--n", "1", "--degree", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "radial", "m": 2, "a": "xyz"},
        {"kind": "power", "n": 2.9, "m": True},
        {"kind": "table", "m": 2, "entries": [{"alpha": [1.7, 0], "rho": "1"}]},
        {"kind": "table", "m": 1, "entries": [{"alpha": [1], "rho": "1"}, {"alpha": [1], "rho": "2"}]},
        {"kind": "radial", "m": 1, "a": {"list": "123"}},
        {"kind": "radial", "m": 1, "a": {"generator": "geometric", "r": "1_0/3"}},
        {"kind": "table", "m": 1, "entries": [{"alpha": [0], "rho": "\uff12/3"}]},
        {"kind": "radial", "m": 1, "a": {"generator": "geometric", "r": "0.5"}},
        {"kind": "radial", "m": 1, "a": {"generator": "geometric", "r": "1e-5000"}},
        {"kind": "table", "m": 1, "entries": [{"alpha": [0], "rho": "+3"}]},
    ],
)
def test_malformed_weight_spec_exits_2(capsys, tmp_path, monkeypatch, spec):
    # A spec that is not an object where one is expected, or holds a float
    # or bool for an integer, a string for an array, one alpha twice or a
    # rational outside the grammar (with "_", non-ASCII digits, a decimal,
    # an exponent or a "+"), is a usage error: exit 2 and one error line, no
    # traceback and no report, before any scan runs.  "1e-5000" used to run
    # the whole scan and fail when its report was written.
    monkeypatch.setattr(hypershift.hypercontraction, "is_n_hyper_up_to", None)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    assert main(["check-hyper", "--weights", str(path), "--n", "2", "--degree", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: weight file {path}: ") and err.count("\n") == 1


def test_exact_result_past_the_digit_limit_exits_0(capsys, tmp_path):
    # rho(0,1) = 1/(d+1) and rho(1,0) = 1/(d+3) with d = 10^2999 give
    # lhs = (2d+4)/((d+1)(d+3)), reduced, with a 5,999-digit denominator:
    # past the 4,300 digits that str() writes.
    zeros = "0" * 2998
    entries = [([0, 0], "1"), ([1, 1], "1"), ([0, 1], f"1/1{zeros}1"), ([1, 0], f"1/1{zeros}3")]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"kind": "table", "m": 2, "entries": [{"alpha": a, "rho": rho} for a, rho in entries]}
    ))
    code, report = run_json(capsys, ["necessary", "--weights", str(path), "--n", "2", "--alpha", "1,1"])
    assert code == 0
    assert report["lhs"] == f"2{zeros}4/1{zeros}4{zeros}3"
    assert (report["rhs"], report["holds"]) == ("2/3", True)


def test_out_path_in_missing_directory(capsys, tmp_path, weight_files):
    one = weight_files["power2m1"]
    out = str(tmp_path / "no-such-dir" / "report.json")
    errors = []
    for _ in range(2):
        code = main(["check-hyper", "--weights", one, "--n", "2", "--degree", "2", "--out", out])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""
        errors.append(captured.err)
    # The message names the requested path, not the random temporary file.
    assert "no-such-dir/report.json" in errors[0]
    assert ".tmp-report-" not in errors[0]
    assert errors[0] == errors[1]


def test_weight_count_is_enforced(capsys, weight_files):
    one = weight_files["power2m1"]
    cases = [
        (
            ["similarity-scan", "--weights", one, "--degree", "2", "--ray-length", "2"],
            "similarity-scan takes exactly 2 --weights, got 1",
        ),
        (
            ["check-hyper", "--weights", one, "--weights", one, "--n", "1", "--degree", "2"],
            "check-hyper takes exactly 1 --weights, got 2",
        ),
        (["curvature"] + ["--weights", one] * 3, "curvature takes 1 or 2 --weights, got 3"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_invalid_alpha_and_orders(capsys, weight_files):
    one = weight_files["power2m1"]
    assert main(["necessary", "--weights", one, "--n", "2", "--alpha", "1,x"]) == 2
    assert main(["necessary", "--weights", one, "--n", "2", "--alpha=-1"]) == 2
    assert main(["necessary", "--weights", one, "--n", "0", "--alpha", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("alpha", ["1_0,0", " 1,0", "1,+0", "\u00b2,0", "\uff11,0", "1,"])
@pytest.mark.parametrize("command", ["necessary", "truncate"])
def test_alpha_takes_ascii_digits_only(capsys, weight_files, command, alpha):
    # int() reads "1_0" as 10 and takes signs, spaces and other scripts'
    # digits; a multi-index entry is ASCII digits alone.
    argv = [command, "--weights", weight_files["power2m2"], "--alpha", alpha]
    argv += ["--n", "2"] if command == "necessary" else ["--degree", "12"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse multi-index {alpha!r}\n"


@pytest.mark.parametrize(
    "value", ["1_0", "+3", " 3", "3 ", "\uff12", "\u00b2", "\u0663", "3.0", "", "-"]
)
@pytest.mark.parametrize("flag", ["--n", "--degree"])
def test_integer_flags_take_ascii_digits_only(capsys, weight_files, flag, value):
    # int() reads "1_0" as 10 and takes signs, spaces and other scripts'
    # digits; an integer flag is ASCII digits with an optional leading "-".
    argv = ["check-hyper", "--weights", weight_files["power2m2"], "--n", "2", "--degree", "2"]
    argv[argv.index(flag) + 1] = value
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: not an integer: {value!r}\n")


def test_every_number_flag_takes_the_strict_types():
    # No flag is left on argparse's int or float.
    subparsers = next(a for a in build_parser()._actions if a.choices)
    types = {a.type for p in subparsers.choices.values() for a in p._actions}
    assert types == {None, _int_flag, _float_flag}


def test_csv_unavailable_for_scalar_reports(capsys, weight_files, monkeypatch):
    # The subcommands without CSV output refuse --format csv while parsing,
    # before any computation runs; truncate refuses it without --alpha, whose
    # decay curve is its only CSV table.
    one = weight_files["power2m1"]
    for argv in (
        ["verify-identities"],
        ["check-hyper", "--weights", one, "--n", "1", "--degree", "2"],
        ["necessary", "--weights", one, "--n", "1", "--degree", "2"],
        ["example45"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def no_model(*args, **kwargs):
        raise AssertionError("the truncation was built")

    monkeypatch.setattr(hypershift.truncation, "Truncation", no_model)
    assert main(["truncate", "--weights", one, "--degree", "2", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: truncate --format csv needs --alpha\n"


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
