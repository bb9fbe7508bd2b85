"""Surface algebra, the two extension families, gluing, cross-family checks."""

import itertools
from fractions import Fraction

import pytest

import gaext.filtered
import gaext.sl2
from gaext.filtered import IdealSequence, TruncationParams
from gaext.groebner import Ideal, InputError
from gaext.poly import Polynomial, parse
from gaext.report import FAIL, INDETERMINATE_STATUS, PASS, Report
from gaext.sl2 import (base_power_ideal, family1_ideal, family1_psi,
                       family1_subalgebra, family1_truncation, family2_bezout, family2_grading,
                       family2_nonnegative_generators, family2_sequence,
                       family2_subalgebra, family2_weights, gluing_checks, sl2_ring, sl2_sequence,
                       verify_cross_family, verify_family1, verify_family2)


def test_sl2_sequence_matches_base_powers():
    sequence = sl2_sequence(3)
    assert sequence[0].is_unit()
    for nu in range(1, 4):
        assert sequence[nu].equals(base_power_ideal(nu))


@pytest.mark.parametrize("computed, status, witness", [
    (["x^2", "x*y", "y^2"], PASS, "w"),
    (["x^2", "x*y"], INDETERMINATE_STATUS, "w: missing y^2"),
    ([], INDETERMINATE_STATUS, "w: missing x^2"),
    (["x^2", "x"], FAIL, "w: x escapes"),
])
def test_graded_check_fails_only_on_an_escaping_generator(computed, status, witness):
    xy = ("x", "y")
    report = Report("s")
    gaext.sl2._add_graded_check(
        report, "graded-ideal", Ideal([parse(g, xy) for g in computed], variables=xy),
        base_power_ideal(2), (("nu", 1),), TruncationParams(1, 4), "w")
    (check,) = report.checks
    assert (check.status, check.params, check.witness) == (
        status, (("nu", 1), ("L", 1), ("d", 4)), witness)


def test_family1_psi_kills_defining_ideal():
    ring = sl2_ring()
    for n in (1, 2):
        psi = family1_psi(n)
        for g in family1_ideal(n).generators:
            assert ring.normal_form(g.substitute(psi)).is_zero()


def test_family1_report_passes():
    report = verify_family1(1, 2)
    assert report.overall == PASS
    ids = {c.check_id for c in report.checks}
    assert {"psi-vanishing", "derivation-commutes", "graded-ideal",
            "degree-one-generation", "fixed-locus"} <= ids


def test_family1_rejects_small_n():
    with pytest.raises(InputError):
        family1_ideal(0)


def test_family1_truncation_defaults():
    t = family1_truncation(2, 2)
    assert (t.word_length, t.degree) == (2, 12)


def test_family2_weights_validation():
    with pytest.raises(InputError):
        family2_weights(2, 4)
    with pytest.raises(InputError):
        family2_weights(0, 1)
    assert family2_weights(3, 2) == {"x": 3, "y": 2, "u": -2, "v": -3}


def test_family2_bezout_minimal():
    assert family2_bezout(1, 1) == (1, 0)
    assert family2_bezout(2, 1) == (1, 0)
    assert family2_bezout(3, 2) == (2, 1)
    m, n = family2_bezout(5, 3)
    assert m * 3 - n * 5 == 1 and 0 <= m <= 5


def test_family2_generators_have_nonnegative_weight():
    grading = family2_grading(2, 1)
    gens = family2_nonnegative_generators(2, 1, 6)
    for label, g in gens.items():
        assert grading.weight_range(g)[0] >= 0, label


def _filtered_multisets(p, q, degree):
    """Nonnegative-weight normal-form monomials, by filtering every multiset
    of the four variables through the validating constructor."""
    weights = family2_weights(p, q)
    names = ("x", "y", "u", "v")
    out = {}
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(names, total):
            exps = tuple(combo.count(n) for n in names)
            if exps[0] and exps[3]:
                continue
            if sum(e * weights[n] for e, n in zip(exps, names)) < 0:
                continue
            label = "*".join(f"{n}^{e}" if e > 1 else n for n, e in zip(names, exps) if e)
            out[label or "1"] = Polynomial(names, {exps: Fraction(1)})
    return out


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, 2)])
def test_family2_generators_match_filtered_multisets(p, q):
    for degree in (0, 1, 2, 5, 12, 20):
        gens = family2_nonnegative_generators(p, q, degree)
        expected = _filtered_multisets(p, q, degree)
        assert list(gens) == list(expected)  # the same labels, in the same order
        assert all(gens[label] == g for label, g in expected.items())


@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (3, 2)])
def test_family2_subalgebra_reads_the_generator_list(p, q):
    """The subalgebra's exponent generators, read as a mapping, are the
    generator list without 1: the same labels, polynomials and order."""
    expected = family2_nonnegative_generators(p, q, 8)
    del expected["1"]
    assert list(family2_subalgebra(p, q, 8).generators.items()) == list(expected.items())


def test_family2_report_passes():
    report = verify_family2(2, 1, 2)
    assert report.overall == PASS
    ids = {c.check_id for c in report.checks}
    assert {"derivation-homogeneous", "base-identity", "bezout",
            "graded-ideal", "cube-witness", "degree-one-fails",
            "positive-weight-stable"} <= ids


def test_family2_cube_witness_details():
    sequence = family2_sequence(2, 1, 2)
    x3 = parse("x^3", ("x", "y"))
    assert x3 in sequence[2]
    assert x3 not in sequence[1] * sequence[1]
    assert sequence.truncations == tuple(
        TruncationParams(1, 6 * nu + 4) for nu in range(3))


@pytest.mark.parametrize("degree, graded, cube, differs", [
    (10, [PASS, PASS], PASS, PASS),
    (4, [PASS, INDETERMINATE_STATUS], PASS, INDETERMINATE_STATUS),
    (2, [INDETERMINATE_STATUS] * 2, INDETERMINATE_STATUS, INDETERMINATE_STATUS),
])
def test_family2_cube_checks_wait_for_their_levels(degree, graded, cube, differs):
    # a level short of its expected ideal leaves the comparisons that read it open
    report = verify_family2(2, 1, 2, lambda t: TruncationParams(1, degree))
    status = {c.check_id: c for c in report.checks}
    assert [c.status for c in report.checks if c.check_id == "graded-ideal"] == graded
    for check_id, expected in (("cube-witness", cube), ("degree-one-fails", differs)):
        assert status[check_id].status == expected
        # an undecided line names the bounds of both levels it read
        bounds = () if expected == PASS else (
            ("L_1", 1), ("d_1", degree), ("L_2", 1), ("d_2", degree))
        assert status[check_id].params == (("p", 2), ("q", 1)) + bounds


def test_gluing_checks_pass():
    for n in (1, 2):
        report = gluing_checks(n)
        assert report.overall == PASS
    with pytest.raises(InputError):
        gluing_checks(0)


def test_cross_family_report_passes():
    report = verify_cross_family(2)
    assert report.overall == PASS
    by_id = {c.check_id: c for c in report.checks}
    assert "1" in by_id["dominating-level"].witness


def test_cross_family_tight_probe_is_indeterminate():
    # at d = 2 the computed m_1 of P(2,1) misses y^3, a lower bound only
    report = verify_cross_family(1, lambda t: TruncationParams(t.word_length, 2))
    by_id = {c.check_id: c for c in report.checks}
    assert by_id["dominating-level"].status == INDETERMINATE_STATUS
    assert by_id["dominating-level"].params == (("L", 1), ("d", 2))
    assert "generator-membership" not in by_id
    assert report.overall == INDETERMINATE_STATUS


def test_cross_family_missed_generator_is_indeterminate(monkeypatch):
    # search each generator with no words at all, so only constants are found
    original = gaext.sl2.subalgebra_contains

    def without_words(sub, f, truncation):
        return original(sub, f, TruncationParams(0, truncation.degree))

    monkeypatch.setattr(gaext.sl2, "subalgebra_contains", without_words)
    report = verify_cross_family(1)
    by_id = {}
    for c in report.checks:
        by_id.setdefault(c.check_id, []).append(c.status)
    assert by_id["dominating-level"] == [PASS]
    assert by_id["generator-membership"] == [INDETERMINATE_STATUS] * 6
    assert report.overall == INDETERMINATE_STATUS


def test_cross_family_levels_print_their_own_bounds():
    report = verify_cross_family(3)
    levels = [dict(c.params) for c in report.checks if c.check_id == "p0-graded-ideal"]
    assert [(p["nu"], p["d"]) for p in levels] == [(nu, 4 * nu + 4) for nu in (1, 2, 3)]


def test_family1_cube_of_m1_is_minimal():
    sequence = IdealSequence.compute(
        family1_subalgebra(1), [family1_truncation(1, nu) for nu in range(2)])
    cube = sequence[1] ** 3
    assert len(cube.generators) == 10
    assert cube.minimal_monomial_generators() == [(i, 9 - i) for i in range(10)]
    assert cube.equals(base_power_ideal(9))


def test_each_level_is_computed_once(monkeypatch):
    calls = []
    original = gaext.filtered.compute_m_nu

    def counting(subalgebra, nu, truncation, span=None):
        calls.append(nu)
        return original(subalgebra, nu, truncation, span)

    monkeypatch.setattr(gaext.filtered, "compute_m_nu", counting)
    monkeypatch.setattr(gaext.sl2, "compute_m_nu", counting)
    assert verify_family2(2, 1, 2).overall == PASS
    assert sorted(calls) == [0, 1, 2]
    calls.clear()
    assert verify_family1(1, 2).overall == PASS
    assert sorted(calls) == [0, 1, 2]
