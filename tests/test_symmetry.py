import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cocircular.symmetry as symmetry
from cocircular import (
    TAU,
    AngleConfiguration,
    AuxiliaryFunctional,
    DimensionError,
    DomainError,
    ExclusionVerdict,
    GroupElement,
    InvalidArity,
    MassVector,
    act_on_masses,
    exclusion_verdicts,
    minimize_f_k,
    pair_weight_matrix,
    regular_ngon,
)
from conftest import certify_masses, ordered_angles, random_masses
from oracle import (act_on_angles, compose, distinct_rows, elements, identity, is_identity,
                    reflection, shift)
from reference_exclusion import reference_exclusion_by_group, reference_exclusion_by_swap
from reference_potential import f_k_value


def test_generator_actions_on_masses():
    m = MassVector(np.array([1.0, 2.0, 3.0, 4.0]))
    p = shift(4)
    s = reflection(4)
    assert np.array_equal(act_on_masses(p, m).masses, [2.0, 3.0, 4.0, 1.0])
    assert np.array_equal(act_on_masses(s, m).masses, [3.0, 2.0, 1.0, 4.0])


def test_shift_action_on_angles():
    cfg = AngleConfiguration(np.array([1.0, 2.0, TAU]))
    out = act_on_angles(shift(3), cfg)
    assert np.allclose(out.angles, [1.0, TAU - 1.0, TAU], atol=1e-15)


def test_generators_fix_regular_polygons():
    for n in (3, 4, 6):
        cfg = regular_ngon(n)
        for g in (shift(n), reflection(n)):
            assert np.allclose(act_on_angles(g, cfg).angles, cfg.angles,
                               atol=1e-12)


def test_group_axioms_and_relation():
    n = 5
    els = elements(n)
    assert len(els) == 2 * n
    assert len(set(els)) == 2 * n
    e = identity(n)
    p = shift(n)
    s = reflection(n)
    for g in els:
        assert compose(g, e) == g
        assert compose(e, g) == g
        # every element has an inverse in the listing
        assert any(is_identity(compose(g, h)) for h in els)
    # defining relation of the dihedral group: s p s = p^{-1}
    p_inv = next(h for h in els if is_identity(compose(p, h)))
    assert compose(compose(s, p), s) == p_inv
    assert compose(s, s) == e


def test_elements_order_cyclic_then_reflections():
    # the scan decodes its row e as element e, (h, l) = (e % n, e // n)
    for n in (2, 3, 8, 40):
        els = elements(n)
        assert [(g.h, g.l) for g in els] == [(e % n, e // n) for e in range(2 * n)]
        assert all(not g.is_reflection for g in els[:n])
        assert all(g.is_reflection for g in els[n:])
        labels = MassVector(np.arange(1.0, n + 1))
        rows = symmetry._mass_images(n)
        assert len(rows) == 2 * n
        for e, row in enumerate(rows):
            assert np.array_equal(row % n, act_on_masses(els[e], labels).masses - 1)


@pytest.mark.parametrize("h, l, n", [(1.5, 0, 4), (1, 0, 4.0), (1, 0.5, 4), ("1", 0, 4)])
def test_group_element_rejects_non_integers(h, l, n):
    # a float reaching act_on_masses would be taken as a shift by 1
    with pytest.raises(DomainError, match="must be integers"):
        GroupElement(h, l, n)


def test_group_element_needs_two_labels():
    with pytest.raises(InvalidArity, match="^the dihedral group needs n >= 2 labels$"):
        GroupElement(0, 0, 1)


def test_group_element_takes_numpy_integers():
    g = GroupElement(np.int64(5), np.int64(3), np.int64(4))
    assert (g.h, g.l, g.n) == (1, 1, 4)
    assert all(type(v) is int for v in (g.h, g.l, g.n))


@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_mass_action_is_homomorphism(seed, n):
    rng = np.random.default_rng(seed)
    m = random_masses(rng, n)
    els = elements(n)
    g = els[rng.integers(len(els))]
    h = els[rng.integers(len(els))]
    lhs = act_on_masses(compose(g, h), m).masses
    rhs = act_on_masses(g, act_on_masses(h, m)).masses
    assert np.array_equal(lhs, rhs)


@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_angle_action_is_homomorphism(seed, n):
    rng = np.random.default_rng(seed)
    cfg = ordered_angles(rng, n)
    els = elements(n)
    g = els[rng.integers(len(els))]
    h = els[rng.integers(len(els))]
    lhs = act_on_angles(compose(g, h), cfg).angles
    rhs = act_on_angles(g, act_on_angles(h, cfg)).angles
    assert np.allclose(lhs, rhs, atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_functional_invariant_under_joint_action(seed, n):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(1.0)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)
    base = f_k_value(aux, m, cfg)
    for g in elements(n):
        moved = f_k_value(aux, act_on_masses(g, m), act_on_angles(g, cfg))
        assert abs(moved - base) <= 1e-12 * max(1.0, abs(base))


def test_minimizer_equivariance():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.array([1.0, 1.0, 2.0, 1.0]))
    res = minimize_f_k(aux, m)
    p = shift(4)
    s = reflection(4)
    for g in (p, s, compose(p, s)):
        res_g = minimize_f_k(aux, act_on_masses(g, m))
        assert np.allclose(res_g.theta_m.angles,
                           act_on_angles(g, res.theta_m).angles, atol=1e-8)
        assert abs(res_g.f_value - res.f_value) < 1e-12


def test_minimizer_inherits_stabilizer_symmetry():
    # m = (1, 1, 2) is fixed by the reflection swapping bodies 0 and 1,
    # so the minimizing angles must be fixed by the same element
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.array([1.0, 1.0, 2.0]))
    res = minimize_f_k(aux, m)
    stab = [g for g in elements(3)
            if not is_identity(g)
            and np.array_equal(act_on_masses(g, m).masses, m.masses)]
    assert stab
    for g in stab:
        assert np.allclose(act_on_angles(g, res.theta_m).angles,
                           res.theta_m.angles, atol=1e-9)


def test_equal_masses_not_excluded():
    verdict = exclusion_verdicts(AuxiliaryFunctional(1.0), MassVector(np.ones(5)))[0]
    assert not verdict.excluded
    assert verdict.witness is None
    assert verdict.certificates == ()
    assert verdict.margin == 0.0


def test_one_heavy_five_bodies_frozen():
    verdict = exclusion_verdicts(AuxiliaryFunctional(1.0),
                                 MassVector(np.array([1.0, 1.0, 1.0, 1.0, 2.0])))[0]
    assert verdict.excluded
    assert len(verdict.certificates) == 8
    # shifts 1 and 4 tie, mirror images of each other: the witness is the
    # first of them that rounding leaves largest (it was h = 4 from the
    # regular pentagon)
    assert verdict.witness == GroupElement(1, 0, 5)
    assert abs(verdict.margin - 0.87146103380368101) < 1e-12
    witnesses = {c[0] for c in verdict.certificates}
    assert shift(5) in witnesses
    assert all(m > 0 for _, m in verdict.certificates)


def test_two_heavy_alternating_has_reflection_certificate():
    verdict = exclusion_verdicts(AuxiliaryFunctional(1.0),
                                 MassVector(np.array([1.0, 1.0, 2.0, 1.0, 2.0])))[0]
    assert verdict.excluded
    witnesses = {c[0] for c in verdict.certificates}
    assert reflection(5) in witnesses


def test_two_heavy_seven_bodies_frozen():
    verdict = exclusion_verdicts(AuxiliaryFunctional(1.0),
                                 MassVector(np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0])))[0]
    assert verdict.excluded
    assert abs(verdict.margin - 2.2633270230047229) < 1e-12
    refl = [c for c in verdict.certificates if c[0].is_reflection]
    assert len(refl) == 6
    assert len(verdict.certificates) == 12


def test_swap_margins_match_closed_form():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.array([1.0, 1.0, 2.0, 1.0, 2.0]))
    verdict = exclusion_verdicts(aux, m)[1]
    assert verdict.excluded
    assert not verdict.inconsistent
    w = pair_weight_matrix(aux, verdict.theta_m)
    mm = m.masses
    for (j, k), margin in verdict.certificates:
        assert j < k
        assert mm[j] != mm[k]
        assert margin > 0
        assert margin == (mm[k] - mm[j]) ** 2 * w[j, k]
        # identical closed form via the quadratic in the swapped difference
        d = mm.copy()
        d[[j, k]] = d[[k, j]]
        d -= mm
        assert abs(0.5 * d @ w @ d + margin) < 1e-12 * max(1.0, margin)


def test_swap_equal_masses_not_excluded():
    verdict = exclusion_verdicts(AuxiliaryFunctional(1.0), MassVector(np.ones(4)))[1]
    assert not verdict.excluded
    assert verdict.certificates == ()
    assert not verdict.inconsistent


def test_verdict_without_certificates():
    verdict = ExclusionVerdict((), 3.5, regular_ngon(4))
    assert (verdict.excluded, verdict.witness, verdict.margin) == (False, None, 0.0)
    assert not verdict.inconsistent


def test_verdict_witness_is_first_of_tied_margins():
    # at the minimizer reached from the triangle, the four group margins of
    # [1, 1, 2] tie bit for bit; the verdict the scan builds from them names
    # the first
    aux, m = AuxiliaryFunctional(1.0), MassVector(np.array([1.0, 1.0, 2.0]))
    res = minimize_f_k(aux, m, regular_ngon(3))
    diffs = m.masses[symmetry._mass_images(3)] - m.masses
    certificates, _ = symmetry._group_scan(
        symmetry.MARGIN_SCALE * abs(res.f_value), pair_weight_matrix(aux, res.theta_m),
        diffs, (diffs == 0.0).all(axis=1))
    group = ExclusionVerdict(certificates, res.f_value, res.theta_m)
    margins = [mg for _, mg in group.certificates]
    assert len(margins) == 4 and len(set(margins)) == 1
    assert group.witness == GroupElement(1, 0, 3) == group.certificates[0][0]
    assert group.margin == margins[0]
    # later ties never replace the first largest margin
    verdict = ExclusionVerdict(((shift(3), 1.0), (reflection(3), 2.0),
                                (identity(3), 2.0)), 3.5, regular_ngon(3))
    assert (verdict.excluded, verdict.witness, verdict.margin) == (True, reflection(3), 2.0)


@pytest.mark.parametrize("family", ["one-heavy", "two-heavy", "graded", "uniform"])
@pytest.mark.parametrize("n", [9, 13])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_verdict_fields_derive_from_certificates(family, n, alpha):
    m = MassVector(certify_masses(family, n))
    for verdict in exclusion_verdicts(AuxiliaryFunctional(alpha), m):
        margins = [mg for _, mg in verdict.certificates]
        assert verdict.excluded == bool(verdict.certificates)
        assert verdict.margin == max(margins, default=0.0)
        witnesses = [w for w, mg in verdict.certificates if mg == verdict.margin]
        assert verdict.witness == (witnesses[0] if witnesses else None)


def test_exclusion_verdicts_solves_once(monkeypatch):
    calls = {"minimize_f_k": 0, "pair_weight_matrix": 0}
    for name in calls:
        original = getattr(symmetry, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(symmetry, name, counted)
    group, swap = exclusion_verdicts(AuxiliaryFunctional(1.0),
                                     MassVector(np.array([1.0, 1.0, 2.0, 1.0, 2.0])))
    assert group.excluded and swap.excluded
    assert calls == {"minimize_f_k": 1, "pair_weight_matrix": 1}


@pytest.mark.parametrize("masses", [
    [1e-150] * 3 + [1e155],  # every group q and swap margin is inf
    [1e-200, 1e-200, 1e308],  # every group q is inf - inf = NaN
])
def test_overflowing_q_is_a_domain_error(masses):
    # f holds only the products m_j m_k, so the solve and W pass; q holds
    # the heavy mass squared. No numpy warning comes ahead of the error.
    aux, m = AuxiliaryFunctional(1.0), MassVector(np.array(masses))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_f_k(aux, m)
        assert np.isfinite(pair_weight_matrix(aux, res.theta_m)).all()
        with pytest.raises(DomainError, match="the masses overflow a mass-weighted pair sum"):
            exclusion_verdicts(aux, m)


def test_action_validation():
    with pytest.raises(DomainError):
        act_on_angles(shift(3), AngleConfiguration(np.array([1.0, 2.0, 3.0])))
    with pytest.raises(DimensionError):
        act_on_masses(shift(4), MassVector(np.ones(3)))
    with pytest.raises(DimensionError):
        act_on_angles(shift(4), regular_ngon(3))


def _verdict_fields(v):
    return (v.excluded, v.witness, v.margin, v.certificates, v.f_value,
            v.inconsistent)


@st.composite
def few_valued_masses(draw):
    """n in 3..12 masses drawn from at most three values, so that images
    of m coincide with mass swaps and both scans find certificates."""
    n = draw(st.integers(3, 12))
    palette = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]),
                            min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))


@given(few_valued_masses(), st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=150, deadline=None)
@example([1.0, 1.0, 2.0], 1.0)
@example([1.0, 2.0, 1.0, 1.0], 1.0)
@example([1.0, 2.0, 1.0, 2.0], 3.0)
@example([1.0, 1.0, 2.0, 1.0, 2.0], 1.0)
@example([2.0] + [1.0] * 19 + [3.0] + [1.0] * 18 + [2.0], 1.0)
@example([1.0] * 63 + [7.5], 0.5)
@example([1.0] * 10 + [0.5] + [1.0] * 52 + [7.5], 3.0)
def test_stacked_scans_match_reference_loops(raw, alpha):
    aux = AuxiliaryFunctional(alpha)
    m = MassVector(np.array(raw))
    group, swap = exclusion_verdicts(aux, m)
    ref_group = reference_exclusion_by_group(aux, m)
    ref_swap = reference_exclusion_by_swap(aux, m)
    # exact equality: certificates, their order, margins to the last bit
    assert _verdict_fields(group) == _verdict_fields(ref_group)
    assert _verdict_fields(swap) == _verdict_fields(ref_swap)
    assert np.array_equal(group.theta_m.angles, swap.theta_m.angles)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("family, n", [
    *((family, n) for family in ("one-heavy", "two-heavy", "graded", "uniform")
      for n in (8, 13, 26, 40)),
    ("one-heavy", 128),
])
def test_stacked_scans_match_reference_loops_at_benchmark_sizes(family, n, alpha):
    # one-heavy and two-heavy masses repeat images, so the scan's per-image
    # evaluation and its certificate elements act here
    aux = AuxiliaryFunctional(alpha)
    m = MassVector(certify_masses(family, n, ratio=300.0))
    group, swap = exclusion_verdicts(aux, m)
    assert _verdict_fields(group) == _verdict_fields(reference_exclusion_by_group(aux, m))
    assert _verdict_fields(swap) == _verdict_fields(reference_exclusion_by_swap(aux, m))


def _scan_inputs(masses, alpha):
    """The group scan's arguments for masses at alpha, as exclusion_verdicts builds them."""
    aux = AuxiliaryFunctional(alpha)
    res = minimize_f_k(aux, MassVector(masses))
    w = pair_weight_matrix(aux, res.theta_m)
    diffs = masses[symmetry._mass_images(masses.size)] - masses
    return symmetry.MARGIN_SCALE * abs(res.f_value), w, diffs, (diffs == 0.0).all(axis=1)


SCAN_MASSES = {
    **{f"uniform-{n}": certify_masses("uniform", n) for n in (2, 3, 40, 256)},
    **{f"one-heavy-{n}": certify_masses("one-heavy", n) for n in (2, 3, 40, 256)},
    # stabilizers of four, six and eight elements
    "123x4": np.tile([1.0, 2.0, 3.0], 4),
    "1221x6": np.tile([1.0, 2.0, 2.0, 1.0], 6),
    "123321x4": np.tile([1.0, 2.0, 3.0, 3.0, 2.0, 1.0], 4),
}


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("name", list(SCAN_MASSES))
def test_group_scan_takes_each_q_from_one_gemv_per_distinct_row(name, alpha):
    masses = SCAN_MASSES[name]
    n = masses.size
    tol, w, diffs, fixed = _scan_inputs(masses, alpha)
    certificates, qs = symmetry._group_scan(tol, w, diffs, fixed)
    # the first row of each distinct bytes, in order, each q as d @ w @ d
    picks, inverse = distinct_rows(diffs)
    expected = [0.5 * float(diffs[i] @ w @ diffs[i]) for i in picks]
    assert np.array(qs).tobytes() == np.array(expected).tobytes()
    images = {masses[row].tobytes() for row in symmetry._mass_images(n)}
    assert len(qs) == len(images)
    if np.count_nonzero(fixed) == 1:
        assert len(qs) == 2 * n
    reference = tuple((GroupElement(e % n, e // n, n), -expected[j])
                      for e, j in enumerate(inverse) if expected[j] < -tol)
    assert certificates == reference
    assert all(type(v) is int for g, _ in certificates for v in (g.h, g.l, g.n))
    assert all(type(margin) is float for _, margin in certificates)


@st.composite
def stabilized_masses(draw):
    """Masses with every kind of stabilizer, turned by a random shift.

    A tile of period p | n is fixed by the shifts by multiples of p, a
    palindromic tile also by reflections; the turn moves which reflection
    h0 fixes it first, so h0 = 0 is not the only one drawn.
    """
    n = draw(st.integers(2, 24))
    p = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))
    kind = draw(st.sampled_from(["trivial", "tile", "mirrored", "equal", "two-valued"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "trivial":
        m = rng.uniform(0.5, 2.0, n)
    elif kind == "tile":
        m = np.tile(rng.uniform(0.5, 2.0, p), n // p)
    elif kind == "mirrored":
        half = rng.uniform(0.5, 2.0, (p + 1) // 2)
        m = np.tile(np.concatenate([half, half[::-1][p % 2:]]), n // p)
    elif kind == "equal":
        m = np.ones(n)
    else:
        m = rng.choice([1.0, 2.0], n)
    return np.roll(m, draw(st.integers(0, n - 1)))


@given(stabilized_masses(), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
# the first reflection that fixes each: none, h0 = 1, 5, 0 and 0
@example(np.tile([1.0, 2.0, 3.0], 4), 0)
@example(np.roll(np.tile([1.0, 2.0, 2.0, 1.0], 6), 1), 1)
@example(np.roll(np.tile([1.0, 2.0, 3.0, 3.0, 2.0, 1.0], 4), 3), 2)
@example(np.array([1.0, 1.0, 2.0]), 3)
@example(np.ones(24), 4)
def test_coset_rule_matches_row_bytes(masses, seed):
    n = masses.size
    diffs = masses[symmetry._mass_images(n)] - masses
    fixed = (diffs == 0.0).all(axis=1)
    picks, inverse = distinct_rows(diffs)
    # the coset rule: the fixing shifts are the multiples of p, shift h has
    # the image of shift h mod p, and reflection h that of reflection
    # h mod p, or of shift (h - h0) mod p when reflection h0 fixes m
    p = int(np.flatnonzero(fixed[1:n])[0]) + 1 if fixed[1:n].any() else n
    assert np.array_equal(np.flatnonzero(fixed[:n]), np.arange(0, n, p))
    h = np.arange(n)
    h0 = np.flatnonzero(fixed[n:])
    reflected = (h - h0[0]) % p if h0.size else n + h % p
    rep = np.concatenate([h % p, reflected])
    assert all(diffs[r].tobytes() == diffs[e].tobytes() for e, r in enumerate(rep))
    assert len(set(rep.tolist())) == len(picks)
    # under a random W, q is a fingerprint of the row: every element gets the
    # q of its own row, and the scan keeps one q per distinct row, in the
    # order the rows first come
    w = np.random.default_rng(seed).standard_normal((n, n))
    w = w + w.T
    certificates, qs = symmetry._group_scan(-np.inf, w, diffs, fixed)
    own = np.array([0.5 * float(d @ w @ d) for d in diffs])
    assert [(g.h, g.l) for g, _ in certificates] == [(e % n, e // n) for e in range(2 * n)]
    assert np.array([-mg for _, mg in certificates]).tobytes() == own.tobytes()
    assert np.array(qs).tobytes() == own[picks].tobytes()


@st.composite
def distinct_masses(draw):
    n = draw(st.integers(3, 12))
    return draw(st.lists(st.floats(0.5, 8.0), min_size=n, max_size=n,
                         unique=True))


def _excluded(aux, m):
    group, swap = exclusion_verdicts(aux, m)
    return group.excluded, swap.excluded, group.excluded or swap.excluded


@given(st.one_of(few_valued_masses(), distinct_masses()),
       st.sampled_from([0.5, 1.0, 3.0]), st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
@example([1.0, 1.0, 2.0], 1.0, -6.0)
@example([1.0, 2.0, 1.0, 2.0], 3.0, 6.0)
def test_excluded_invariant_under_scaling_and_relabeling(raw, alpha, log_scale):
    aux = AuxiliaryFunctional(alpha)
    m = MassVector(np.array(raw))
    verdict = _excluded(aux, m)
    assert _excluded(aux, MassVector(10.0 ** log_scale * m.masses)) == verdict
    for g in elements(m.n):
        assert _excluded(aux, act_on_masses(g, m)) == verdict
