"""Canonical serialization and atomic writes."""

import glob
import json
import os
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from hypershift.report import (
    SCHEMA_VERSION,
    canonical_json,
    float_str,
    frac_str,
    pick,
    render_csv,
    write_atomic,
)

F = Fraction


def test_schema_version_is_pinned():
    assert SCHEMA_VERSION == 1


def test_frac_str_always_shows_denominator():
    assert frac_str(F(3, 4)) == "3/4"
    assert frac_str(F(5)) == "5/1"
    assert frac_str(F(-2, 6)) == "-1/3"
    assert frac_str(7) == "7/1"


def test_float_str_round_trips_doubles():
    for x in [0.1, 1 / 3, 4.0186199886992406e-05, -2.5, 1e300]:
        assert float(float_str(x)) == x


def test_canonical_json_is_deterministic():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": None, "x": "s"}})
    b = canonical_json({"c": {"x": "s", "y": None}, "a": [1, 2], "b": 1})
    assert a == b
    assert a == '{"a":[1,2],"b":1,"c":{"x":"s","y":null}}\n'
    assert a.endswith("\n") and not a.endswith("\n\n")
    assert json.loads(a) == {"a": [1, 2], "b": 1, "c": {"x": "s", "y": None}}


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_canonical_json_writes_fractions_as_p_over_q():
    assert canonical_json({"x": F(-2, 6), "y": [F(5)]}) == '{"x":"-1/3","y":["5/1"]}\n'


@pytest.mark.parametrize(
    "value, pair",
    [
        (complex(0.25, -1.5), [0.25, -1.5]),
        (mp.mpc(0.25, -1.5), [0.25, -1.5]),
        (mp.mpf(0.1), [0.1, 0.0]),
    ],
    ids=["complex", "mpc", "mpf"],
)
def test_canonical_json_writes_complex_numbers_as_pairs(value, pair):
    assert json.loads(canonical_json({"h": value})) == {"h": pair}
    assert canonical_json({"h": value}) == canonical_json({"h": pair})


def test_canonical_json_writes_nested_tuples_as_lists():
    nested = ((1, (2, 3)), (F(1, 2), (1j,)))
    assert canonical_json(nested) == '[[1,[2,3]],["1/2",[[0.0,1.0]]]]\n'


def test_canonical_json_refuses_other_types():
    with pytest.raises(TypeError, match="Decimal"):
        canonical_json({"x": Decimal("0.5")})
    with pytest.raises(TypeError):
        canonical_json({"x": {1, 2}})


def test_canonical_json_rejects_non_finite_complex_parts():
    with pytest.raises(ValueError):
        canonical_json({"h": complex(float("nan"), 0.0)})
    with pytest.raises(ValueError):
        canonical_json({"h": mp.mpc(mp.inf, 0)})


def test_pick_reads_named_fields():
    assert pick(F(3, 4), "numerator", "denominator") == {"numerator": 3, "denominator": 4}


def test_render_csv_cell_formats():
    text = render_csv(
        ["name", "exact", "approx", "flag"],
        [["row", F(1, 3), 0.25, True], ["other", F(4), 1 / 3, False]],
    )
    lines = text.splitlines()
    assert lines[0] == "name,exact,approx,flag"
    assert lines[1] == "row,1/3,0.25,true"
    assert lines[2] == f"other,4/1,{1/3:.17g},false"
    assert text.endswith("\n")


def test_write_atomic_creates_and_overwrites(tmp_path):
    target = tmp_path / "out.json"
    write_atomic(str(target), "first\n")
    assert target.read_text() == "first\n"
    write_atomic(str(target), "second\n")
    assert target.read_text() == "second\n"
    assert glob.glob(str(tmp_path / ".tmp-report-*")) == []


def test_write_atomic_cleans_up_on_failure(tmp_path):
    # Renaming onto a directory fails after the temp file is written; the
    # temp file must not survive.
    target = tmp_path / "occupied"
    target.mkdir()
    with pytest.raises(OSError):
        write_atomic(str(target), "text")
    assert os.path.isdir(target)
    assert glob.glob(str(tmp_path / ".tmp-report-*")) == []


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_write_atomic_applies_the_umask(tmp_path, umask):
    target = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        write_atomic(str(target), "text\n")
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
