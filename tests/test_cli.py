"""End-to-end command line behaviour: reports, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

import hypershift.curvature
from hypershift import (
    NonHermitianError,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    RadialWeight,
)
from hypershift.cli import main

F = Fraction


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


def test_curvature_rejects_bad_grid(capsys, weight_files):
    # radial:2x0 used to scan the origin alone and report all_psd true.
    for grid in ("cube", "radial:ax2", "radial:0x4", "radial:2x0", "radial:2x-1"):
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

    for name in ("metric_jet", "metric_jets", "log_metric_hessians"):
        monkeypatch.setattr(hypershift.curvature, name, no_jets)
    monkeypatch.setattr(hypershift.weights, "metric_jets", no_jets)
    argv = ["curvature", "--grid", "radial:1x1", "--tol", tol]
    for name in names:
        argv += ["--weights", weight_files[name]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: psd tolerance must be finite and >= 0, got {float(tol)}\n"


def _refusal(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


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


def test_non_hermitian_hessian_exits_3(capsys, weight_files, monkeypatch):
    # NonHermitianError is a ValueError, but it is a refusal, not bad input.
    def refuse(H, tol):
        raise NonHermitianError("matrix deviates from Hermitian")

    monkeypatch.setattr(hypershift.curvature, "psd_check", refuse)
    argv = ["curvature", "--weights", weight_files["power2m1"], "--grid", "radial:1x2"]
    assert main(argv) == 3
    assert _refusal(capsys) == {"error": "matrix deviates from Hermitian", "kind": "NonHermitianError"}


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
    assert (
        main(["similarity-scan", "--weights", one, "--degree", "2", "--ray-length", "2"]) == 2
    )
    assert (
        main(
            [
                "check-hyper",
                "--weights",
                one,
                "--weights",
                one,
                "--n",
                "1",
                "--degree",
                "2",
            ]
        )
        == 2
    )
    assert (
        main(["curvature"] + ["--weights", one] * 3) == 2
    )
    capsys.readouterr()


def test_invalid_alpha_and_orders(capsys, weight_files):
    one = weight_files["power2m1"]
    assert main(["necessary", "--weights", one, "--n", "2", "--alpha", "1,x"]) == 2
    assert main(["necessary", "--weights", one, "--n", "2", "--alpha=-1"]) == 2
    assert main(["necessary", "--weights", one, "--n", "0", "--alpha", "1"]) == 2
    capsys.readouterr()


def test_csv_unavailable_for_scalar_reports(capsys, weight_files):
    assert main(["verify-identities", "--format", "csv"]) == 2
    assert (
        main(
            [
                "check-hyper",
                "--weights",
                weight_files["power2m1"],
                "--n",
                "1",
                "--degree",
                "2",
                "--format",
                "csv",
            ]
        )
        == 2
    )
    capsys.readouterr()


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()
