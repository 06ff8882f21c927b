"""Defect diagonals, hypercontraction scans, and the neighbour-sum bound."""

import random
from fractions import Fraction
from itertools import islice
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypershift import (
    ExplicitSequence,
    GeometricSequence,
    PerturbedPower,
    PolynomialSequence,
    PowerKernel,
    PowerSequence,
    RadialWeight,
    TableWeight,
    WeightFunction,
    defect_diag,
    is_n_hyper_up_to,
    necessary_condition,
    necessary_scan,
    radial_necessary,
    similarity_scan,
)
from hypershift import DimensionMismatch, WeightDomainError
from hypershift import multiindex as mi
from hypershift.hypercontraction import HyperWitness, _cone_layers, moments

from helpers import (
    build_truncated,
    defect_diag_radial,
    defect_layers,
    m_power_diag,
    random_fraction,
    random_radial_sequence,
    random_table_weight,
    random_weight,
    single_entry_tables,
    subnormality_obstruction,
)

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


def test_perturbed_defect_entry_is_negative():
    W = PerturbedPower(2, 2, 2)
    assert defect_diag(W, 1, (2, 511)) == F(-256, 257)
    # A third, zero coordinate keeps the defect.
    assert defect_diag(PerturbedPower(2, 3, 2), 1, (2, 511, 0)) == F(-256, 257)


# -- the moment sum [M_T^k(I)]_{alpha,alpha} -----------------------------------


def moment_weights(rng):
    """Seeded weights of every family on m <= 3: power, polynomial and
    geometric bases, tables without and with a fallback, and the
    counterexample."""
    for m in (1, 2, 3):
        yield PowerKernel(rng.randint(1, 4), m)
        yield random_polynomial_weight(rng, m)
        yield RadialWeight(m, GeometricSequence(random_fraction(rng, 1, 4)))
        yield random_table_weight(rng, m=m, degree=5)
        yield sparse_power_table(rng, m, 4)
    yield PerturbedPower(2, 2, 2)
    yield PerturbedPower(2, 3, 2)


def path_moment(W, alpha, k):
    """[M_T^k(I)]_{alpha,alpha} as sum_{|beta| = k} (k!/beta!) |T^beta e_alpha|^2,
    each squared norm a product of unit steps along one path down from
    alpha, never a rho_ratio over beta itself."""
    total = F(0)
    for beta in mi.enumerate_exact_degree(W.m, k):
        if not mi.leq(beta, alpha):
            continue
        norm, at = F(1), alpha
        for i, b in enumerate(beta):
            for _ in range(b):
                norm *= W.rho_ratio(at, mi.unit(W.m, i))
                at = at[:i] + (at[i] - 1,) + at[i + 1 :]
        total += mi.multinomial(k, beta) * norm
    return total


def test_moments_are_the_matrix_models_power_diagonals():
    rng = random.Random(3001)
    for W in moment_weights(rng):
        D = 4 if W.m < 3 else 3
        tt = build_truncated(W, D)
        model = [m_power_diag(tt, k) for k in range(4)]
        for pos, alpha in enumerate(tt.basis):
            assert moments(W, alpha, 3) == [model[k][pos] for k in range(4)]


def test_moments_on_the_perturbed_window():
    # The column-map model cannot reach degree 511; one column of it, the
    # unit-step products down from alpha, can.
    W = PerturbedPower(2, 2, 2)
    for alpha in [(2, 511), (3, 511), (2, 512), (1, 510), (1, 512), (0, 513)]:
        assert moments(W, alpha, 3) == [path_moment(W, alpha, k) for k in range(4)]
    assert moments(W, (2, 511), 1)[1] == F(513, 257)


def test_neighbour_sum_is_one_minus_the_first_defect():
    rng = random.Random(3003)
    for W in moment_weights(rng):
        D = 4 if W.m < 3 else 3
        indices = mi.enumerate_leq_degree(W.m, D)[1:]
        if isinstance(W, PerturbedPower):
            indices = [mi.add(alpha, (2, 508) + (0,) * (W.m - 2)) for alpha in indices]
        for alpha in indices:
            n = rng.randint(1, 4)
            assert necessary_condition(W, n, alpha).lhs == 1 - defect_diag(W, 1, alpha)


def test_defect_at_the_origin_reads_no_weight():
    # Every defect entry at alpha = 0 is 1, the engine's layer-0 row, even
    # for a table that has no value at 0.
    W = TableWeight(2, {(1, 0): F(1, 2), (0, 1): F(3), (1, 1): F(5)})
    with pytest.raises(WeightDomainError):
        W.rho((0, 0))
    for k in range(4):
        assert defect_diag(W, k, (0, 0)) == 1
    assert moments(W, (0, 0), 3) == [1, 0, 0, 0]
    assert is_n_hyper_up_to(W, 3, 0).witness is None
    assert list(defect_layers(W, 3, 0)) == [((0, 0), [(1, 1)] * 3)]
    # Reading no value is no licence for an index of the wrong length.
    for alpha in [(0,), (0, 0, 0)]:
        with pytest.raises(DimensionMismatch, match="multi-index has length"):
            defect_diag(W, 1, alpha)


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
    for alpha, row in defect_layers(W, n, max_degree):
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
    a weight with no split)."""
    if W.corrections is None:
        return True
    return any(
        mi.leq(c, alpha) and mi.degree(alpha) - mi.degree(c) <= n for c, _ in W.corrections
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
    ]
    + [random_radial_sequence(random.Random(seed), needed_length=41) for seed in range(2201, 2207)],
)
def test_radial_row_is_the_radial_reduction(seq):
    # The radial row is the one-term case of the row update; it must equal
    # the closed sum at every order the scans use.
    for n in (1, 2, 3, 4):
        for N, radial, cone, _ in _cone_layers(RadialWeight(2, seq), n, 40):
            assert cone == []
            assert radial == [
                (v.numerator, v.denominator)
                for v in (defect_diag_radial(seq, k, N) for k in range(1, n + 1))
            ]
        assert N == 40


def test_a_layer_left_early_is_finished_for_the_next():
    # A caller that reads one cone row per layer still gets the later rows
    # right: the engine finishes each layer before the next.  The cone of
    # the correction at (2, 511) ends at degree 515, where the row of
    # (3, 512) reads (3, 511), the second row of layer 514.
    W = PerturbedPower(2, 2, 2)
    full = {N: list(rows) for N, _, _, rows in _cone_layers(W, 2, 515)}
    assert len(full[514]) == 2
    for N, _, _, rows in _cone_layers(W, 2, 515):
        if N < 515:
            assert list(islice(rows, 1)) == full[N][:1]
        else:
            assert list(rows) == full[515]


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
    """Record the (alpha, beta) of every rho_ratio call made on any weight."""
    calls = []
    original = WeightFunction.rho_ratio

    def counting(self, alpha, beta):
        calls.append((tuple(alpha), tuple(beta)))
        return original(self, alpha, beta)

    monkeypatch.setattr(WeightFunction, "rho_ratio", counting)
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
        list(defect_layers(W, 3, 8 if W.m == 2 else 5))
    assert calls == []


def test_engine_calls_rho_ratio_once_per_step_of_each_cone_index(monkeypatch):
    # Every cone row reads each of its unit steps from rho_ratio, once, in
    # layer order and then lex order; no index outside the cone is read.
    calls = count_rho_ratio_calls(monkeypatch)
    rng = random.Random(71)
    weights = [sparse_power_table(rng, m, 4) for m in (1, 2, 3)]
    weights += [random_table_weight(rng, m=m, degree=4) for m in (1, 2)]  # all cone
    for W in weights:
        for n in (1, 2, 3):
            expected = [
                (alpha, mi.unit(W.m, i))
                for alpha in mi.enumerate_leq_degree(W.m, 4)
                if in_cone(W, n, alpha)
                for i, a in enumerate(alpha)
                if a
            ]
            calls.clear()
            list(defect_layers(W, n, 4))
            assert calls == expected
    # The counterexample scan stops at the first index of its single cone,
    # the correction (2, 511), and reads its two steps there.
    calls.clear()
    report = is_n_hyper_up_to(PerturbedPower(2, 2, 2), 2, 514)
    assert report.witness == HyperWitness(order=1, alpha=(2, 511), value=F(-256, 257))
    assert calls == [((2, 511), (1, 0)), ((2, 511), (0, 1))]


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


def test_engine_matches_oracle_at_every_order():
    # One engine run per order n, each read at its top order d_n.
    rng = random.Random(53)
    W = random_table_weight(rng, m=2, degree=5)
    for n in range(1, 4):
        entries = {alpha: F(*row[n - 1]) for alpha, row in defect_layers(W, n, 5)}
        assert list(entries) == mi.enumerate_leq_degree(2, 5)
        for alpha, value in entries.items():
            assert value == defect_diag(W, n, alpha)


def test_scans_at_degree_zero_and_below():
    W = PowerKernel(2, 2)
    report = is_n_hyper_up_to(W, 2, 0)
    assert (report.verdict, report.witness) == ("no-violation-up-to-0", None)
    assert list(defect_layers(W, 2, 0)) == [((0, 0), [(1, 1), (1, 1)])]
    scan = necessary_scan(W, 2, 0)
    assert (scan.verdict, scan.checked, scan.witness) == ("all-hold", 0, None)
    for bad in (
        lambda: is_n_hyper_up_to(W, 2, -1),
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


# -- metamorphic relations on single-entry tables -----------------------------

# A halved power(3) entry at (1, 2): the first violation, d_1 = -1/5 there.
HALVED_POWER3 = TableWeight(2, {(1, 2): F(15)}, PowerKernel(3, 2))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    st.integers(2, 3).flatmap(
        lambda m: st.tuples(single_entry_tables(m), st.permutations(range(m)))
    )
)
@example((HALVED_POWER3, [1, 0]))
def test_permuting_coordinates_keeps_verdicts_and_witness_values(case):
    # Wp(sigma alpha) = W(alpha) with (sigma alpha)_i = alpha_perm[i]; the
    # power base is symmetric, so only the entry moves.
    W, perm = case
    m, n = W.m, W.sequence.spec_dict()["n"]
    ((entry, value),) = W.entries.items()

    def sigma(alpha):
        return tuple(alpha[p] for p in perm)

    def unsigma(alpha):
        out = [0] * m
        for i, p in enumerate(perm):
            out[p] = alpha[i]
        return tuple(out)

    base = PowerKernel(n, m)
    Wp = TableWeight(m, {sigma(entry): value}, base)
    rows = dict(defect_layers(W, 3, 6))
    assert {sigma(alpha): row for alpha, row in rows.items()} == dict(defect_layers(Wp, 3, 6))
    for order in (1, n):
        report, permuted = is_n_hyper_up_to(W, order, 6), is_n_hyper_up_to(Wp, order, 6)
        assert report.verdict == permuted.verdict
        if permuted.witness is not None:
            wit = permuted.witness
            assert defect_diag(W, wit.order, unsigma(wit.alpha)) == wit.value < 0
        scan, permuted = necessary_scan(W, order, 6), necessary_scan(Wp, order, 6)
        assert scan.verdict == permuted.verdict
        if permuted.witness is not None:
            chk = permuted.witness
            assert necessary_condition(W, order, unsigma(chk.alpha)).lhs == chk.lhs
    ratios = similarity_scan(W, base, 3, 3), similarity_scan(Wp, base, 3, 3)
    assert ratios[0].min_ratio_sq == ratios[1].min_ratio_sq
    assert ratios[0].max_ratio_sq == ratios[1].max_ratio_sq


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 2).flatmap(single_entry_tables))
@example(HALVED_POWER3)
def test_a_zero_coordinate_keeps_every_defect(W):
    # d_k(W+, (alpha, 0)) = d_k(W, alpha): every beta <= (alpha, 0) ends in
    # 0, and the power base and the entry keep their values there.
    m, n = W.m, W.sequence.spec_dict()["n"]
    ((entry, value),) = W.entries.items()
    plus = TableWeight(m + 1, {entry + (0,): value}, PowerKernel(n, m + 1))
    rows = dict(defect_layers(plus, 3, 6))
    for alpha, row in defect_layers(W, 3, 6):
        assert rows[alpha + (0,)] == row
        for k in range(4):
            assert defect_diag(plus, k, alpha + (0,)) == defect_diag(W, k, alpha)
    # So a violation of W is one of W+ (not conversely).
    if is_n_hyper_up_to(W, n, 6).witness is not None:
        assert is_n_hyper_up_to(plus, n, 6).witness is not None


def test_a_halved_entry_is_the_witness_in_either_order():
    base = PowerKernel(3, 2)
    for alpha in [(1, 2), (2, 1)]:
        W = TableWeight(2, {alpha: base.rho(alpha) / 2}, base)
        assert is_n_hyper_up_to(W, 3, 6).witness == HyperWitness(1, alpha, F(-1, 5))


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
