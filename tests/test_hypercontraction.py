"""Defect diagonals, hypercontraction scans, and the neighbour-sum bound."""

import random
from fractions import Fraction
from math import comb

import pytest

from hypershift import (
    ExplicitSequence,
    GeometricSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    defect_diag,
    defect_diag_radial,
    defect_diagonal,
    is_n_hyper_up_to,
    necessary_condition,
    necessary_scan,
    radial_necessary,
    subnormality_obstruction,
)
from hypershift import DimensionMismatch, TailUnreliableError, WeightDomainError
from hypershift import multiindex as mi
from hypershift.hypercontraction import HyperWitness, _cone_layers, _defect_layers

from helpers import random_fraction, random_radial_sequence, random_table_weight, random_weight

F = Fraction


def power_defect_closed_form(n: int, k: int, N: int) -> Fraction:
    if N == 0:
        return F(1)
    return F(comb(n - k + N - 1, N), comb(n + N - 1, N))


# -- defect diagonals --------------------------------------------------------


def test_defect_order_zero_is_one():
    W = PowerKernel(2, 2)
    for alpha in mi.enumerate_leq_degree(2, 4):
        assert defect_diag(W, 0, alpha) == 1


def test_defect_rejects_negative_order():
    with pytest.raises(ValueError):
        defect_diag(PowerKernel(1, 1), -1, (0,))
    with pytest.raises(ValueError):
        defect_diag_radial(PowerSequence(1), -1, 0)
    with pytest.raises(ValueError):
        defect_diag_radial(PowerSequence(1), 1, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_power_kernel_defects_match_closed_form(n, m):
    # d_k for the order-n kernel depends only on |alpha| and equals
    # C(n-k+N-1, N) / C(n+N-1, N); in particular it vanishes for k = n, N >= 1.
    W = PowerKernel(n, m)
    for alpha in mi.enumerate_leq_degree(m, 8):
        N = mi.degree(alpha)
        for k in range(0, n + 1):
            assert defect_diag(W, k, alpha) == power_defect_closed_form(n, k, N)


def test_radial_reduction_agrees_with_direct_sum():
    rng = random.Random(23)
    for _ in range(15):
        seq = random_radial_sequence(rng, needed_length=16)
        m = rng.choice([1, 2])
        W = RadialWeight(m, seq)
        k = rng.randint(0, 4)
        for alpha in mi.enumerate_leq_degree(m, 6):
            assert defect_diag(W, k, alpha) == defect_diag_radial(seq, k, mi.degree(alpha))


def test_defect_diagonal_table_and_minimum():
    # For the order-2 kernel d_1(alpha) = 1/(|alpha|+1).
    table = defect_diagonal(PowerKernel(2, 2), 1, 4)
    assert table.order == 1 and table.max_degree == 4
    assert len(table.entries) == comb(4 + 2, 2)
    assert table.entries[(0, 0)] == 1
    assert table.entries[(2, 1)] == F(1, 4)
    alpha, value = table.minimum()
    assert value == F(1, 5)
    assert alpha == (0, 4)  # graded-lex first among degree-4 indices


def test_perturbed_defect_entry_is_negative():
    W = PerturbedPower(2, 2, 2)
    assert defect_diag(W, 1, (2, 511)) == F(-256, 257)


# -- the layered defect engine ------------------------------------------------


def reference_scan(W, n, max_degree):
    """The multinomial-sum scan the engine replaced: graded-lex order,
    orders ascending within an index, stop at the first negative entry."""
    for alpha in mi.enumerate_leq_degree(W.m, max_degree):
        for k in range(1, n + 1):
            value = defect_diag(W, k, alpha)
            if value < 0:
                return HyperWitness(order=k, alpha=alpha, value=value)
    return None


def assert_engine_matches_oracle(W, n, max_degree, keep=lambda alpha: True):
    order = mi.enumerate_leq_degree(W.m, max_degree)
    seen = []
    for alpha, row in _defect_layers(W, n, max_degree):
        seen.append(alpha)
        assert len(row) == n
        if not keep(alpha):
            continue
        for k, (p, q) in enumerate(row, start=1):
            assert q > 0 and F(p, q) == defect_diag(W, k, alpha)
            assert F(p, q).denominator == q  # reduced
    assert seen == order


def random_polynomial_weight(rng, m):
    coeffs = [random_fraction(rng) for _ in range(rng.randint(1, 4))]
    return RadialWeight(m, PolynomialSequence(coeffs))


def test_engine_matches_multinomial_oracle_on_random_tables():
    rng = random.Random(41)
    for _ in range(12):
        m = rng.choice([1, 2, 3])
        D = 5 if m < 3 else 4
        assert_engine_matches_oracle(random_table_weight(rng, m=m, degree=D), 3, D)


def test_engine_matches_multinomial_oracle_on_radial_polynomials():
    rng = random.Random(43)
    for _ in range(8):
        m = rng.choice([1, 2, 3])
        assert_engine_matches_oracle(random_polynomial_weight(rng, m), rng.randint(1, 4), 6)


def test_engine_matches_multinomial_oracle_on_the_perturbed_window():
    # The engine must run every layer below the window; only the entries
    # around the block-2 ray over (0, 511) are compared with the oracle.
    W = PerturbedPower(2, 2, 2)
    assert_engine_matches_oracle(W, 2, 514, keep=lambda a: sum(a) >= 510 and a[0] <= 4)


def sparse_power_table(rng, m, max_degree):
    """A few entries over a power:n fallback: pairs of entries that are each
    other's +-e_i neighbours with random values, and one entry equal to its
    fallback value (so it is not a correction)."""
    fallback = PowerKernel(rng.randint(1, 3), m)
    entries = {}
    for _ in range(2):
        alpha = rng.choice(mi.enumerate_leq_degree(m, max_degree - 1))
        above = mi.add(alpha, mi.unit(m, rng.randrange(m)))
        for beta in (alpha, above):
            entries[beta] = random_fraction(rng) * fallback.rho(beta)
    same = rng.choice([a for a in mi.enumerate_leq_degree(m, max_degree) if a not in entries])
    entries[same] = fallback.rho(same)
    return TableWeight(m, entries, fallback)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_engine_matches_multinomial_oracle_on_sparse_tables(m):
    rng = random.Random(61 + m)
    D = {1: 7, 2: 5, 3: 4}[m]
    for _ in range(8):
        assert_engine_matches_oracle(sparse_power_table(rng, m, D), 3, D)


def pointwise_necessary_scan(W, n, max_degree):
    """(checked, witness) of necessary_condition over 0 < |alpha| <= D."""
    checked = 0
    for alpha in mi.enumerate_leq_degree(W.m, max_degree)[1:]:
        chk = necessary_condition(W, n, alpha)
        checked += 1
        if not chk.holds:
            return checked, chk
    return checked, None


def test_sparse_table_scans_match_the_oracles():
    rng = random.Random(67)
    hits = 0
    for _ in range(24):
        m = rng.choice([1, 2, 3])
        D = 6 if m < 3 else 4
        W = sparse_power_table(rng, m, D)
        n = rng.randint(1, 3)
        report = is_n_hyper_up_to(W, n, D)
        assert report.witness == reference_scan(W, n, D)
        scan = necessary_scan(W, n, D)
        assert (scan.checked, scan.witness) == pointwise_necessary_scan(W, n, D)
        hits += report.witness is not None
    assert hits > 5


def in_cone(W, n, alpha):
    """alpha lies within order n above a correction of W (every index, for
    a weight with no radial base)."""
    try:
        _, corrections = W.metric_decomposition()
    except (TailUnreliableError, WeightDomainError):
        return True
    return any(
        mi.leq(c, alpha) and mi.degree(alpha) - mi.degree(c) <= n for c, _ in corrections
    )


def assert_scans_match_the_oracles(W, n, max_degree):
    report = is_n_hyper_up_to(W, n, max_degree)
    assert report.witness == reference_scan(W, n, max_degree)
    scan = necessary_scan(W, n, max_degree)
    assert (scan.checked, scan.witness) == pointwise_necessary_scan(W, n, max_degree)
    return report.witness


def halving_base(m):
    """a(N) = 2^-N: every radial d_1 with N >= 1 is -1."""
    return RadialWeight(m, GeometricSequence(F(1, 2)))


def test_witness_is_a_cone_entry_before_the_first_outside_index():
    # Layer 1 of m = 2 is (0, 1), (1, 0); only (0, 1) is in the cone, and it
    # is negative with a value the radial row does not have.
    W = TableWeight(2, {(0, 1): F(1, 4)}, halving_base(2))
    for n in (1, 2, 3):
        wit = assert_scans_match_the_oracles(W, n, 4)
        assert wit == HyperWitness(order=1, alpha=(0, 1), value=F(-3))
        assert in_cone(W, n, (0, 1)) and not in_cone(W, n, (1, 0))
        assert defect_diag(W, 1, (1, 0)) == -1


def test_witness_is_the_first_outside_index_before_a_negative_cone_entry():
    # The cone entry (1, 0) is negative too, but (0, 1) comes first and
    # reads the radial row.
    W = TableWeight(2, {(1, 0): F(1, 4)}, halving_base(2))
    for n in (1, 2, 3):
        wit = assert_scans_match_the_oracles(W, n, 4)
        assert wit == HyperWitness(order=1, alpha=(0, 1), value=F(-1))
        assert not in_cone(W, n, (0, 1)) and in_cone(W, n, (1, 0))
        assert defect_diag(W, 1, (1, 0)) == -3
    # Layer 2 at order 1: the cone entry (0, 2) passes, the first outside
    # index (1, 1) fails on the radial row and the cone entry (2, 0) after
    # it fails as well.  The correction at 0 lets layer 1 pass.
    W = TableWeight(2, {(0, 0): F(1, 2), (0, 2): F(1), (2, 0): F(1, 8)}, halving_base(2))
    wit = assert_scans_match_the_oracles(W, 1, 4)
    assert wit == HyperWitness(order=1, alpha=(1, 1), value=F(-1))
    assert [in_cone(W, 1, a) for a in mi.enumerate_exact_degree(2, 2)] == [True, False, True]
    assert defect_diag(W, 1, (0, 2)) == F(1, 2) and defect_diag(W, 1, (2, 0)) == -3


def test_layers_wholly_inside_the_cone():
    # A correction at 0 puts every |alpha| <= n in the cone.  Its radial
    # row is negative from layer 1 on, but layer 1 passes inside the cone
    # and the witness is the cone entry (0, 2).
    W = TableWeight(2, {(0, 0): F(1, 4)}, halving_base(2))
    assert defect_diag(W, 1, (0, 1)) == F(1, 2) and defect_diag(W, 2, (0, 1)) == 0
    wit = assert_scans_match_the_oracles(W, 2, 5)
    assert wit == HyperWitness(order=1, alpha=(0, 2), value=F(-1))
    assert all(in_cone(W, 2, alpha) for alpha in mi.enumerate_exact_degree(2, 2))
    # m = 1: each layer is one index, so the layers c..c+n of a correction
    # at c lie wholly in the cone; the radial row (a(N) = 2^N) passes.
    for c in range(4):
        for value in (F(1, 8), F(8)):
            W = TableWeight(1, {(c,): value * 2**c}, RadialWeight(1, GeometricSequence(2)))
            for n in (1, 2, 3):
                assert_scans_match_the_oracles(W, n, 8)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_corrections_at_degree_zero_and_one(m):
    rng = random.Random(73 + m)
    fallback = PowerKernel(2, m)
    hits = 0
    for _ in range(12):
        entries = {(0,) * m: random_fraction(rng)}
        alpha = mi.unit(m, rng.randrange(m))
        entries[alpha] = random_fraction(rng) * fallback.rho(alpha)
        W = TableWeight(m, entries, fallback)
        hits += assert_scans_match_the_oracles(W, rng.randint(1, 3), 5 if m < 3 else 4) is not None
    assert hits > 3


def test_table_without_fallback_scans_every_index_as_cone():
    rng = random.Random(79)
    hits = 0
    for _ in range(10):
        m = rng.choice([1, 2, 3])
        D = 5 if m < 3 else 3
        W = random_table_weight(rng, m=m, degree=D)
        assert all(in_cone(W, 1, alpha) for alpha in mi.enumerate_leq_degree(m, D))
        hits += assert_scans_match_the_oracles(W, rng.randint(1, 3), D) is not None
    assert hits > 3


@pytest.mark.parametrize(
    "seq",
    [
        PowerSequence(1),
        PowerSequence(3),
        PolynomialSequence([F(1), F(-1, 3), F(1, 2)]),
        GeometricSequence(F(3, 2)),
        GeometricSequence(F(1, 2)),
        ExplicitSequence([F(k * k + 1, k + 2) for k in range(41)]),
    ],
)
def test_radial_row_is_the_radial_reduction(seq):
    layers = _cone_layers(RadialWeight(2, seq), 3, 40)
    for N, radial, cone, _ in layers:
        assert cone == []
        assert radial == [
            (v.numerator, v.denominator) for v in (defect_diag_radial(seq, k, N) for k in (1, 2, 3))
        ]
    assert N == 40


def test_deep_scans_stop_at_the_perturbed_witness():
    # The witnesses lie past ~1.5M and ~23M indices: only a scan whose cost
    # does not grow with the number of indices reaches them in a test.
    for W, n, D, order, alpha, value in [
        (PerturbedPower(3, 2, 2), 3, 1800, 1, (2, 1726), F(-863, 865)),
        (PerturbedPower(2, 3, 2), 2, 514, 1, (2, 511, 0), F(-256, 257)),
    ]:
        report = is_n_hyper_up_to(W, n, D)
        assert report.witness == HyperWitness(order=order, alpha=alpha, value=value)
        assert defect_diag(W, order, alpha) == value
    scan = necessary_scan(PerturbedPower(2, 3, 2), 2, 514)
    assert scan.witness.alpha == (2, 511, 0)
    assert scan.checked == mi.enumerate_exact_degree(3, 513).index((2, 511, 0)) + comb(515, 3)


def count_rho_ratio_calls(monkeypatch):
    """Record the alpha of every rho_ratio call made on any weight family."""
    calls = []
    for cls in (RadialWeight, TableWeight, PerturbedPower):
        original = cls.rho_ratio

        def counting(self, alpha, beta, original=original):
            calls.append(tuple(alpha))
            return original(self, alpha, beta)

        monkeypatch.setattr(cls, "rho_ratio", counting)
    return calls


def test_engine_reads_radial_weights_from_their_base(monkeypatch):
    calls = count_rho_ratio_calls(monkeypatch)
    weights = [PowerKernel(3, 2), RadialWeight(3, PolynomialSequence([F(1), F(2)]))]
    weights += [
        RadialWeight(2, seq)
        for seq in (
            PowerSequence(2),
            GeometricSequence(F(3, 2)),
            PolynomialSequence([F(1), F(0), F(1, 2)]),
            ExplicitSequence([F(k + 1, 2) for k in range(9)]),
        )
    ]
    for W in weights:
        defect_diagonal(W, 3, 8 if W.m == 2 else 5)
    assert calls == []


def test_engine_calls_rho_ratio_only_next_to_corrections(monkeypatch):
    calls = count_rho_ratio_calls(monkeypatch)
    rng = random.Random(71)
    for m in (1, 2, 3):
        W = sparse_power_table(rng, m, 4)
        _, corrections = W.metric_decomposition()
        listed = {alpha for alpha, _ in corrections}
        assert len(listed) == len(W.entries) - 1  # the fallback-valued entry
        near = listed | {mi.add(a, mi.unit(m, i)) for a in listed for i in range(m)}
        expected = [
            alpha
            for alpha in mi.enumerate_leq_degree(m, 4)
            if alpha in near
            for a in alpha
            if a
        ]
        calls.clear()
        defect_diagonal(W, 2, 4)
        assert calls == expected
    # The counterexample scan stops at its single correction (2, 511) and
    # calls rho_ratio there once per nonzero coordinate.
    calls.clear()
    report = is_n_hyper_up_to(PerturbedPower(2, 2, 2), 2, 514)
    assert report.witness == HyperWitness(order=1, alpha=(2, 511), value=F(-256, 257))
    assert sorted(set(calls)) == [(2, 511)]


def test_scan_witness_matches_reference_scan():
    rng = random.Random(47)
    hits = 0
    for _ in range(40):
        m = rng.choice([1, 2, 3])
        D = 6 if m < 3 else 4
        W = rng.choice([random_weight(rng, m=m, degree=D), random_polynomial_weight(rng, m)])
        n = rng.randint(1, 3)
        report = is_n_hyper_up_to(W, n, D)
        assert report.witness == reference_scan(W, n, D)
        hits += report.witness is not None
    assert hits > 5


def test_defect_diagonal_matches_oracle_at_every_order():
    rng = random.Random(53)
    W = random_table_weight(rng, m=2, degree=5)
    for k in range(4):
        table = defect_diagonal(W, k, 5)
        assert list(table.entries) == mi.enumerate_leq_degree(2, 5)
        for alpha, value in table.entries.items():
            assert value == defect_diag(W, k, alpha)


def test_scans_at_degree_zero_and_below():
    W = PowerKernel(2, 2)
    report = is_n_hyper_up_to(W, 2, 0)
    assert (report.verdict, report.witness) == ("no-violation-up-to-0", None)
    assert defect_diagonal(W, 2, 0).entries == {(0, 0): 1}
    scan = necessary_scan(W, 2, 0)
    assert (scan.verdict, scan.checked, scan.witness) == ("all-hold", 0, None)
    for bad in (
        lambda: is_n_hyper_up_to(W, 2, -1),
        lambda: defect_diagonal(W, 1, -1),
        lambda: defect_diagonal(W, -1, 3),
        lambda: necessary_scan(W, 2, -1),
        lambda: necessary_scan(W, 0, 3),
    ):
        with pytest.raises(ValueError):
            bad()


# -- hypercontraction scans --------------------------------------------------


def test_power_kernel_passes_its_own_order():
    report = is_n_hyper_up_to(PowerKernel(2, 2), 2, 6)
    assert report.verdict == "no-violation-up-to-6"
    assert report.witness is None


def test_flat_sequence_fails_order_two():
    # a(i) = 1 gives d_2 = -1 on every degree-1 index.
    W = RadialWeight(2, PolynomialSequence([F(1)]))
    report = is_n_hyper_up_to(W, 2, 4)
    assert report.verdict == "violation"
    assert report.witness.order == 2
    assert report.witness.alpha == (0, 1)
    assert report.witness.value == -1


def test_decaying_sequence_fails_order_one():
    seq = ExplicitSequence([F(1, i + 1) for i in range(6)])
    report = is_n_hyper_up_to(RadialWeight(1, seq), 1, 4)
    assert report.verdict == "violation"
    assert report.witness == type(report.witness)(order=1, alpha=(1,), value=F(-1))


def test_scan_rejects_bad_order():
    with pytest.raises(ValueError):
        is_n_hyper_up_to(PowerKernel(1, 1), 0, 3)


def test_scan_witness_is_graded_lex_first():
    rng = random.Random(29)
    hits = 0
    for _ in range(40):
        W = random_table_weight(rng, m=2, degree=5)
        report = is_n_hyper_up_to(W, 2, 5)
        if report.witness is None:
            continue
        hits += 1
        wit = report.witness
        assert defect_diag(W, wit.order, wit.alpha) == wit.value < 0
        # Nothing earlier in the scan order can be negative.
        for alpha in mi.enumerate_leq_degree(2, 5):
            for k in range(1, 3):
                if (alpha, k) == (wit.alpha, wit.order):
                    break
                assert defect_diag(W, k, alpha) >= 0
            else:
                continue
            break
    assert hits > 5  # random tables trip the scan often enough to matter


# -- the neighbour-sum necessary condition -----------------------------------


def test_power_kernel_sits_on_the_boundary():
    # Equality lhs == |alpha|/(|alpha|+n-1), so .holds at order n, fails at n+1.
    for n in (1, 2, 3):
        W = PowerKernel(n, 2)
        for alpha in [(1, 0), (2, 3), (0, 5)]:
            chk = necessary_condition(W, n, alpha)
            d = mi.degree(alpha)
            assert chk.lhs == chk.rhs == F(d, d + n - 1)
            assert chk.holds
            assert not necessary_condition(W, n + 1, alpha).holds


def test_perturbed_violation_at_the_marked_index():
    W = PerturbedPower(2, 2, 2)
    chk = necessary_condition(W, 2, (2, 511))
    assert chk.lhs == F(513, 257)
    assert chk.rhs == F(513, 514)
    assert not chk.holds
    # One step off the marked index the weight is unperturbed on both sides.
    assert necessary_condition(W, 2, (2, 510)).lhs == F(512, 513)


def test_necessary_condition_domain_errors():
    W = PowerKernel(2, 2)
    with pytest.raises(ValueError):
        necessary_condition(W, 0, (1, 0))
    with pytest.raises(ValueError):
        necessary_condition(W, 2, (0, 0))
    # The index must have the weight's dimension, neither shorter nor longer.
    with pytest.raises(DimensionMismatch):
        necessary_condition(W, 2, (1,))
    with pytest.raises(DimensionMismatch):
        necessary_condition(W, 2, (1, 2, 3))


def test_necessary_scan_matches_pointwise_checks():
    rng = random.Random(59)
    violated = 0
    for _ in range(30):
        m = rng.choice([1, 2, 3])
        D = 6 if m < 3 else 4
        W = rng.choice([random_weight(rng, m=m, degree=D), random_polynomial_weight(rng, m)])
        n = rng.randint(1, 3)
        scan = necessary_scan(W, n, D)
        checked, witness = pointwise_necessary_scan(W, n, D)
        assert (scan.checked, scan.witness) == (checked, witness)
        assert scan.verdict == ("all-hold" if witness is None else "violated")
        violated += witness is not None
    assert violated > 5


def test_radial_necessary_matches_full_condition():
    rng = random.Random(31)
    for _ in range(15):
        seq = random_radial_sequence(rng, needed_length=12)
        m = rng.choice([1, 2])
        W = RadialWeight(m, seq)
        n = rng.randint(1, 3)
        for alpha in mi.enumerate_leq_degree(m, 6):
            if mi.degree(alpha) == 0:
                continue
            assert radial_necessary(seq, n, mi.degree(alpha)) == necessary_condition(
                W, n, alpha
            ).holds


def test_radial_necessary_known_cases():
    assert radial_necessary(PowerSequence(3), 3, 7)  # exact equality
    flat = PolynomialSequence([F(1)])
    assert radial_necessary(flat, 1, 5)
    assert not radial_necessary(flat, 2, 5)
    with pytest.raises(ValueError):
        radial_necessary(flat, 0, 1)
    with pytest.raises(ValueError):
        radial_necessary(flat, 1, 0)


# -- obstruction order and growth --------------------------------------------


def test_obstruction_order_for_power_kernels():
    assert subnormality_obstruction(PowerKernel(3, 2), (1, 0)) == 4
    for n in (1, 2, 5):
        W = PowerKernel(n, 2)
        for alpha in [(1, 0), (3, 2), (0, 7)]:
            assert subnormality_obstruction(W, alpha) == n + 1


def test_obstruction_immediate_when_sum_exceeds_one():
    W = TableWeight(2, {(0, 0): F(2), (1, 0): F(1), (0, 1): F(1)})
    assert subnormality_obstruction(W, (1, 0)) == 1
    with pytest.raises(ValueError):
        subnormality_obstruction(W, (0, 0))


def test_obstruction_is_minimal_on_random_weights():
    rng = random.Random(37)
    for _ in range(20):
        W = random_table_weight(rng, m=2, degree=4)
        alpha = rng.choice([(1, 0), (1, 1), (2, 1), (0, 3)])
        n = subnormality_obstruction(W, alpha)
        assert not necessary_condition(W, n, alpha).holds
        if n > 1:
            assert necessary_condition(W, n - 1, alpha).holds
