import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magicwit.bell import (
    Behavior,
    BellInequality,
    _local_optimum,
    behavior_from_state,
    catalog_cglmp,
    catalog_svetlichny_r2,
    catalog_tilted_chsh,
    evaluate,
    local_bound,
)
from magicwit.errors import ResourceLimitError


def random_behavior(rng, outcomes, settings):
    table = rng.uniform(0.0, 1.0, size=outcomes + settings)
    table /= table.sum(axis=tuple(range(len(outcomes))), keepdims=True)
    return Behavior(outcomes, settings, table)


def uniform_behavior(outcomes, settings):
    table = np.full(outcomes + settings, 1.0 / np.prod(outcomes))
    return Behavior(outcomes, settings, table)


def test_inequality_validation():
    with pytest.raises(ValueError):
        BellInequality((2,), (2, 2), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        BellInequality((2, 2), (2, 2), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        BellInequality((2, 2), (2, 2), np.full((2, 2, 2, 2), np.inf))


def test_behavior_validation():
    bad = np.full((2, 2), 0.6)
    with pytest.raises(ValueError):
        Behavior((2,), (2,), bad)
    neg = np.array([[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        Behavior((2,), (2,), neg)
    with pytest.raises(ValueError, match="normalized"):
        Behavior((2,), (1,), [[np.nan], [0.0]])


def _correlator_weights(ineq):
    """It[k, x] = sum_a exp(-2 pi i k.a / d) I[a, x] / prod(d), a DFT over the outcome axes.

    With C[k, x] = sum_a exp(+2 pi i k.a / d) p(a|x), sum It C = sum I p.
    """
    axes = tuple(range(ineq.parties))
    return np.fft.fftn(ineq.coeffs, axes=axes) / np.prod(ineq.outcomes)


@pytest.mark.parametrize("outcomes", [(2, 2), (3, 3), (2, 2, 2)])
def test_dft_round_trip(outcomes):
    # Pins the sign and normalization of the weights the catalog tests below assert.
    rng = np.random.default_rng(42)
    settings = (2,) * len(outcomes)
    for _ in range(100):
        ineq = BellInequality(outcomes, settings, rng.uniform(-1, 1, size=outcomes + settings))
        p = random_behavior(rng, outcomes, settings)
        corr = np.fft.ifftn(p.table, axes=tuple(range(len(outcomes)))) * np.prod(outcomes)
        lhs = np.sum(_correlator_weights(ineq) * corr)
        assert abs(lhs.imag) <= 1e-9
        assert abs(lhs.real - evaluate(ineq, p)) <= 1e-9


def _zbasis():
    return np.eye(2, dtype=complex)


def test_behavior_from_state_computational_basis():
    p = behavior_from_state(np.array([1.0, 0.0]), [[_zbasis()]])
    assert p.table[0, 0] == pytest.approx(1.0)


def test_behavior_from_state_bell_pair_zz():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    p = behavior_from_state(bell, [[_zbasis()], [_zbasis()]])
    assert p.table[0, 0, 0, 0] == pytest.approx(0.5)
    assert p.table[1, 1, 0, 0] == pytest.approx(0.5)
    assert p.table[0, 1, 0, 0] == pytest.approx(0.0)


def _eigenbasis(op):
    _, vecs = np.linalg.eigh(op)
    return vecs[:, ::-1]


def test_behavior_from_state_chsh_optimal_angles():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    alice = [_eigenbasis(sz), _eigenbasis(sx)]
    bob = [_eigenbasis((sz + sx) / np.sqrt(2)), _eigenbasis((sz - sx) / np.sqrt(2))]
    p = behavior_from_state(bell, [alice, bob])
    assert evaluate(catalog_tilted_chsh(0.0), p) == pytest.approx(2 * np.sqrt(2))


def _random_unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


@pytest.mark.parametrize("outcomes", [(2, 2), (3, 3), (2, 3), (2, 2, 2)])
def test_behavior_from_state_matches_one_einsum(outcomes):
    # Independent of the one-matmul-per-party kernel: one einsum contracts
    # the state with every party's stacked bases, p[a, x] = |<a_x|psi>|^2.
    rng = np.random.default_rng(sum(outcomes))
    settings = (2, 3, 2)[: len(outcomes)]
    for _ in range(5):
        psi = rng.standard_normal(np.prod(outcomes)) + 1j * rng.standard_normal(np.prod(outcomes))
        psi /= np.linalg.norm(psi)
        bases = [[_random_unitary(rng, d) for _ in range(m)] for d, m in zip(outcomes, settings)]
        n = len(outcomes)
        kets, sets, outs = "abc"[:n], "def"[:n], "ghi"[:n]
        spec = ",".join([kets] + [sets[i] + kets[i] + outs[i] for i in range(n)])
        stacks = [np.conj(np.stack(per)) for per in bases]
        amp = np.einsum(f"{spec}->{outs}{sets}", psi.reshape(outcomes), *stacks)
        p = behavior_from_state(psi, bases)
        assert p.outcomes == outcomes and p.settings == settings
        assert np.max(np.abs(p.table - np.abs(amp) ** 2)) <= 1e-12


def test_behavior_from_state_rejects_non_projective():
    skew = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        behavior_from_state(np.array([1.0, 0.0]), [[skew]])
    # Bases of one party must share its size, whatever the other settings are.
    eye2, eye3 = np.eye(2), np.eye(3)
    with pytest.raises(ValueError, match="party 0 setting 1 has shape"):
        behavior_from_state(np.ones(9) / 3.0, [[eye2, eye3], [eye3]])
    with pytest.raises(ValueError, match="party 1 setting 2 has shape"):
        behavior_from_state(np.ones(6) / 6**0.5, [[eye2], [eye3, eye3, eye2]])


def test_evaluate_zero_inequality():
    p = uniform_behavior((2, 2), (2, 2))
    ineq = BellInequality((2, 2), (2, 2), np.zeros((2, 2, 2, 2)))
    assert evaluate(ineq, p) == 0.0


def test_evaluate_shape_guard():
    p = uniform_behavior((2, 2), (2, 2))
    ineq = BellInequality((3, 3), (2, 2), np.zeros((3, 3, 2, 2)))
    with pytest.raises(ValueError):
        evaluate(ineq, p)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_tilted_on_deterministic_zero_behavior(alpha):
    table = np.zeros((2, 2, 2, 2))
    table[0, 0, :, :] = 1.0
    p = Behavior((2, 2), (2, 2), table)
    assert evaluate(catalog_tilted_chsh(alpha), p) == pytest.approx(alpha + 2.0)


def test_tilted_correlator_weights():
    form = _correlator_weights(catalog_tilted_chsh(0.8))
    for x1, x2 in itertools.product(range(2), repeat=2):
        assert form[1, 1, x1, x2] == pytest.approx((-1.0) ** (x1 * x2))
        want_marginal = 0.4 if x1 == 0 else 0.0
        assert form[1, 0, x1, x2] == pytest.approx(want_marginal)
        assert form[0, 1, x1, x2] == pytest.approx(0.0)


def test_tilted_alpha_domain():
    catalog_tilted_chsh(0.0)
    catalog_tilted_chsh(2.0)
    with pytest.raises(ValueError):
        catalog_tilted_chsh(-0.1)
    with pytest.raises(ValueError):
        catalog_tilted_chsh(2.1)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_local_bound_tilted(alpha):
    assert local_bound(catalog_tilted_chsh(alpha)) == pytest.approx(2.0 + alpha)


def test_local_bound_svetlichny_r2():
    assert local_bound(catalog_svetlichny_r2()) == pytest.approx(6.0)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_local_bound_cglmp(d):
    assert local_bound(catalog_cglmp(d)) == pytest.approx(2.0)


def test_cglmp_d2_is_a_chsh_variant():
    f = _correlator_weights(catalog_cglmp(2))
    weights = [f[1, 1, x1, x2].real for x1, x2 in itertools.product(range(2), repeat=2)]
    assert sorted(np.abs(weights)) == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert np.prod(weights) == pytest.approx(-1.0)  # exactly one sign flip
    assert np.max(np.abs(f[0, 1])) <= 1e-12 and np.max(np.abs(f[1, 0])) <= 1e-12


def test_local_bound_budget_guard(monkeypatch):
    # The budget is read at each call: 2^2 x 2^2 strategies exceed 15.
    ineq = BellInequality((2, 2), (2, 2), np.zeros((2, 2, 2, 2)))
    monkeypatch.setattr("magicwit.bell.DEFAULT_STRATEGY_BUDGET", 15)
    with pytest.raises(ResourceLimitError, match="16 deterministic strategies exceed the budget"):
        local_bound(ineq)
    monkeypatch.setattr("magicwit.bell.DEFAULT_STRATEGY_BUDGET", 16)
    assert local_bound(ineq) == 0.0


def _local_bound_by_strategy_loop(ineq):
    """Maximum over every deterministic strategy, one strategy tuple at a time."""
    party_plans = [
        list(itertools.product(range(d), repeat=m)) for d, m in zip(ineq.outcomes, ineq.settings)
    ]
    xs_list = list(itertools.product(*(range(m) for m in ineq.settings)))
    best = -np.inf
    for plans in itertools.product(*party_plans):
        v = 0.0
        for xs in xs_list:
            a = tuple(plan[x] for plan, x in zip(plans, xs))
            v += ineq.coeffs[a + xs]
        best = max(best, v)
    return float(best)


@st.composite
def _small_inequalities(draw):
    """Random coefficients on 1-4 parties, outcomes and settings 1-3, < 2^12 strategies."""
    n = draw(st.integers(1, 4))
    outcomes = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    counts = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    assume(math.prod(d**m for d, m in zip(outcomes, counts)) < 1 << 12)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return BellInequality(outcomes, counts, rng.uniform(-1, 1, size=outcomes + counts))


@settings(max_examples=200, deadline=None)
@given(ineq=_small_inequalities())
def test_local_bound_matches_strategy_loop(ineq):
    assert abs(local_bound(ineq) - _local_bound_by_strategy_loop(ineq)) <= 1e-12


def _relabel(ineq, rng):
    coeffs = ineq.coeffs.copy()
    n = ineq.parties
    for party, (d, m) in enumerate(zip(ineq.outcomes, ineq.settings)):
        out_perm = rng.permutation(d)
        coeffs = np.take(coeffs, out_perm, axis=party)
        set_perm = rng.permutation(m)
        coeffs = np.take(coeffs, set_perm, axis=n + party)
    return BellInequality(ineq.outcomes, ineq.settings, coeffs)


@pytest.mark.parametrize(
    "ineq",
    [catalog_tilted_chsh(0.7), catalog_cglmp(3), catalog_svetlichny_r2()],
    ids=lambda i: i.name,
)
def test_local_bound_relabeling_invariance(ineq):
    base = local_bound(ineq)
    rng = np.random.default_rng(17)
    for _ in range(10):
        assert local_bound(_relabel(ineq, rng)) == pytest.approx(base)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_local_bound_dominates_every_deterministic_point(seed):
    rng = np.random.default_rng(seed)
    ineq = BellInequality((2, 3), (2, 2), rng.uniform(-1, 1, size=(2, 3, 2, 2)))
    bound = local_bound(ineq)
    plans_a = list(itertools.product(range(2), repeat=2))
    plans_b = list(itertools.product(range(3), repeat=2))
    for pa in plans_a:
        for pb in plans_b:
            val = sum(
                ineq.coeffs[pa[x1], pb[x2], x1, x2]
                for x1, x2 in itertools.product(range(2), repeat=2)
            )
            assert val <= bound + 1e-12


@settings(max_examples=100, deadline=None)
@given(ineq=_small_inequalities())
def test_local_optimum_plan_attains_the_bound(ineq):
    # plan[i][x] is party i's outcome in setting x; its Bell value is the bound.
    value, plan = _local_optimum(ineq)
    assert value == local_bound(ineq)
    assert [len(p) for p in plan] == list(ineq.settings)
    planned = sum(
        ineq.coeffs[tuple(int(p[x]) for p, x in zip(plan, xs)) + xs]
        for xs in itertools.product(*(range(m) for m in ineq.settings))
    )
    assert abs(planned - value) <= 1e-12
    assert abs(planned - _local_bound_by_strategy_loop(ineq)) <= 1e-12
