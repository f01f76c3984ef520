"""Bell inequalities as coefficient tensors over outcomes and settings.

The probability-form tensor I[a_1..a_n, x_1..x_n] is the one representation:
an inequality's value on a behavior p(a|x) is sum_{a,x} I[a,x] p(a|x).  Every
catalog entry is built in that form from its definition; none is
transformed from another representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from magicwit.algebra import MAX_COEFFICIENTS, is_unitary, require_prime
from magicwit.errors import require_count

# Most deterministic strategies `local_bound` enumerates; more raise ResourceLimitError.
DEFAULT_STRATEGY_BUDGET = 1 << 24


@dataclass(frozen=True)
class BellInequality:
    """Coefficient tensor of a linear Bell functional, probability form."""

    outcomes: tuple[int, ...]
    settings: tuple[int, ...]
    coeffs: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        outs = tuple(int(x) for x in self.outcomes)
        sets = tuple(int(x) for x in self.settings)
        if not outs or len(outs) != len(sets):
            raise ValueError("outcomes and settings must list one entry per party")
        if any(x < 1 for x in outs + sets):
            raise ValueError("outcome and setting counts must be positive")
        c = np.array(self.coeffs, dtype=float)
        if c.shape != outs + sets:
            raise ValueError(f"coefficient tensor must have shape {outs + sets}, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "settings", sets)
        object.__setattr__(self, "coeffs", c)

    @property
    def parties(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class Behavior:
    """Conditional probability table p(a|x), indexed [a_1..a_n, x_1..x_n]."""

    outcomes: tuple[int, ...]
    settings: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        outs = tuple(int(x) for x in self.outcomes)
        sets = tuple(int(x) for x in self.settings)
        t = np.array(self.table, dtype=float)
        if t.shape != outs + sets:
            raise ValueError(f"behavior table must have shape {outs + sets}, got {t.shape}")
        if t.min() < -1e-9:
            raise ValueError("behavior has negative probabilities")
        sums = t.sum(axis=tuple(range(len(outs))))
        if not np.max(np.abs(sums - 1.0)) <= 1e-9:
            raise ValueError("behavior is not normalized per setting")
        t.setflags(write=False)
        object.__setattr__(self, "outcomes", outs)
        object.__setattr__(self, "settings", sets)
        object.__setattr__(self, "table", t)


def evaluate(ineq: BellInequality, p: Behavior) -> float:
    """The linear functional sum_{a,x} I[a,x] p(a|x)."""
    if ineq.outcomes != p.outcomes or ineq.settings != p.settings:
        raise ValueError("inequality and behavior shapes do not match")
    return float(np.sum(ineq.coeffs * p.table))


def amplitudes(t: np.ndarray, bases) -> np.ndarray:
    """The Born-rule kernel: <b_(x,a)| t, one batched matmul per party.

    `t` has a leading batch axis, then one axis per party; bases[i] is party
    i's stack of bases, shape (R or 1, m_i, d_i, d_i), one column per outcome,
    and a batch of 1 serves every row.  The result keeps the batch axis and
    t's trailing axes in front, followed by one (x_i, a_i) pair per party.
    Unchecked: `behavior_from_state` validates its input and calls this;
    the see-saw calls it directly.
    """
    for stack in bases:
        m, q, d = stack.shape[-3:]
        k = np.conj(stack).swapaxes(-3, -2).reshape(*stack.shape[:-3], q, m * d)
        amp = t.transpose(0, *range(2, t.ndim), 1).reshape(len(t), -1, q) @ k
        t = amp.reshape(len(amp), *t.shape[2:], m, d)
    return t


def behavior_from_state(state, measurements) -> Behavior:
    """Born-rule behavior of projective measurements on a pure state.

    measurements[i][x] is the eigenbasis of party i's setting-x observable,
    one orthonormal column per outcome; columns must form a unitary
    (complete, orthogonal rank-1 projectors) of one size per party.
    """
    psi = np.asarray(getattr(state, "amplitudes", state), dtype=complex)
    bases = []
    for i, per_setting in enumerate(measurements):
        if len(per_setting) == 0:
            raise ValueError(f"party {i} has no settings")
        per = [np.asarray(v, dtype=complex) for v in per_setting]
        for x, v in enumerate(per):
            if v.shape != per[0].shape:
                raise ValueError(
                    f"measurement for party {i} setting {x} has shape {v.shape}, not {per[0].shape}"
                )
            if not is_unitary(v):
                raise ValueError(f"measurement for party {i} setting {x} is not projective")
        bases.append(np.stack(per))
    outcomes = tuple(b.shape[1] for b in bases)
    settings = tuple(b.shape[0] for b in bases)
    if psi.shape != (int(np.prod(outcomes)),):
        raise ValueError("state dimension does not match the measurement register")
    n = len(bases)
    amp = amplitudes(psi.reshape((1,) + outcomes), [b[None] for b in bases])[0]
    table = np.abs(amp.transpose([2 * i + 1 for i in range(n)] + [2 * i for i in range(n)])) ** 2
    return Behavior(outcomes, settings, table)


def local_bound(ineq: BellInequality) -> float:
    """Exact maximum over deterministic local strategies.

    The vertices of the local polytope are deterministic assignments, so by
    convexity this equals the maximum over all local hidden-variable models.

    The party with the most strategies (the lowest index on ties) is summed
    out exactly: for each of its settings it takes its best outcome.  The
    other parties are folded in one at a time by gathering the coefficients
    at each strategy's outcome and summing over that party's settings.  No
    array holds more than prod_j max(d_j^m_j, d_j m_j) values: the strategy
    count, times the settings of any one-outcome party.  So the strategy
    budget also bounds the memory.
    """
    return _local_optimum(ineq)[0]


def _local_optimum(ineq: BellInequality) -> tuple[float, list[np.ndarray]]:
    """`local_bound` and a strategy attaining it: plan[i][x] is party i's outcome in setting x."""
    powers = list(zip(ineq.outcomes, ineq.settings))
    require_count(powers, DEFAULT_STRATEGY_BUDGET, "deterministic strategies exceed the budget")
    counts = [d**m for d, m in powers]
    n = ineq.parties
    k = counts.index(max(counts))
    # Axes: (a_j, x_j) for each other party j in order, then (a_k, x_k).
    order = [ax for j in range(n) if j != k for ax in (j, n + j)] + [k, n + k]
    t = np.transpose(ineq.coeffs, order)[None]
    plans = {}
    for j in range(n):
        if j == k:
            continue
        d, m = ineq.outcomes[j], ineq.settings[j]
        plans[j] = np.indices((d,) * m).reshape(m, -1)
        # t: (strategies so far, a_j, x_j, rest) -> (strategies so far, s_j, rest)
        t = sum(t[:, plans[j][x], x] for x in range(m))
        t = t.reshape((-1,) + t.shape[2:])
    scores = t.max(axis=1).sum(axis=1)
    best = int(np.argmax(scores))
    # The folded strategy index runs row-major over the other parties' s_j.
    picks = np.unravel_index(best, [counts[j] for j in plans])
    plan = {j: plans[j][:, s] for j, s in zip(plans, picks)}
    plan[k] = np.argmax(t[best], axis=0)
    return float(scores[best]), [plan[i] for i in range(n)]


def catalog_tilted_chsh(alpha: float) -> BellInequality:
    """Tilted CHSH: alpha <A_1^0> + sum_{x1,x2} (-1)^(x1 x2) <A_1^x1 A_2^x2>.

    Probability form with the marginal term spread evenly over the second
    party's settings.  Accepts 0 <= alpha <= 2; at alpha = 2 the local bound
    meets the quantum maximum and the witness gap closes.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 2.0:
        raise ValueError("tilting parameter must lie in [0, 2]")
    c = np.zeros((2, 2, 2, 2))
    for a1, a2, x1, x2 in itertools.product(range(2), repeat=4):
        val = (-1.0) ** (x1 * x2) * (-1.0) ** (a1 + a2)
        if x1 == 0:
            val += 0.5 * alpha * (-1.0) ** a1
        c[a1, a2, x1, x2] = val
    return BellInequality((2, 2), (2, 2), c, name=f"tilted-chsh(alpha={alpha:g})")


def catalog_cglmp(d: int) -> BellInequality:
    """Two-setting d-outcome CGLMP inequality, probability form.

    The standard sum of Collins, Gisin, Linden, Massar and Popescu, PRL 88,
    040404 (2002), with settings A_0, A_1 and B_0, B_1:
        sum_{k < floor(d/2)} (1 - 2k/(d - 1)) [P(A_0 = B_0 + k) + P(B_0 = A_1 + k + 1)
            + P(A_1 = B_1 + k) + P(B_1 = A_0 + k) - P(A_0 = B_0 - k - 1)
            - P(B_0 = A_1 - k) - P(A_1 = B_1 - k - 1) - P(B_1 = A_0 - k - 1)],
    outcomes compared mod d.  Its deterministic local bound is 2; at d = 3
    the quantum maximum is 2.9149.
    """
    what = "entries of the cglmp coefficient tensor exceed the limit"
    require_count([(d, 2), (2, 2)], MAX_COEFFICIENTS, what)
    require_prime(d)
    diff = np.subtract.outer(np.arange(d), np.arange(d)) % d
    c = np.zeros((d, d, 2, 2))
    for k in range(d // 2):
        w = 1.0 - 2.0 * k / (d - 1)
        # P(A_x = B_y + s) weighs the entries with a - b = s; P(B_y = A_x + s) is P(A_x = B_y - s).
        for x, y, s in ((0, 0, k), (1, 0, -k - 1), (1, 1, k), (0, 1, -k)):
            c[:, :, x, y] += w * (diff == s % d)
        for x, y, s in ((0, 0, -k - 1), (1, 0, k), (1, 1, -k - 1), (0, 1, k + 1)):
            c[:, :, x, y] -= w * (diff == s % d)
    return BellInequality((d, d), (2, 2), c, name=f"cglmp(d={d})")


def catalog_svetlichny_r2() -> BellInequality:
    """Three-party witness: Svetlichny polynomial plus two-body exchange terms.

    All observables are dichotomic with (-1)^a eigenvalues.  The two-body
    part pins two parties' settings and averages over the remaining party's
    setting.  The deterministic local bound is 6.
    """
    c = np.zeros((2, 2, 2, 2, 2, 2))
    sign_by_setting_sum = {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}
    for xs in itertools.product(range(2), repeat=3):
        s = sign_by_setting_sum[sum(xs)]
        for outs in itertools.product(range(2), repeat=3):
            c[outs + xs] += s * (-1.0) ** sum(outs)
    for p, q in ((0, 1), (0, 2), (1, 2)):
        r = 3 - p - q
        for i in (0, 1):
            for xr in (0, 1):
                xs = [0, 0, 0]
                xs[p], xs[q], xs[r] = i, i ^ 1, xr
                for outs in itertools.product(range(2), repeat=3):
                    c[outs + tuple(xs)] += 0.5 * (-1.0) ** (outs[p] + outs[q])
    return BellInequality((2, 2, 2), (2, 2, 2), c, name="svetlichny-r2")
