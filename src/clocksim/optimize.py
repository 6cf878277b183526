"""Numerical optimization of shot duration and of symmetric-family
coefficients, plus generation of the uncertainty-versus-shot-time and
improvement-versus-ion-number datasets.

Both coefficient searches are deterministic: they draw no random numbers,
so identical arguments reproduce identical reports. The gen-Ramsey search
scans ground states of -S_x + mu S_y^2 over log mu, on the flip-even sector
of the n//2+1 family coefficients: the log mu grid is one stacked ``eigh``
per chunk, scored as one array from its eigenpairs. Safeguarded Newton steps
then solve the optimum's stationarity condition mu = <S_x> / (2 n x e^x), x
= 2 gamma t_opt, whose residual and slope every scored lane already yields,
one one-lane stack per probe; a best lane whose bracket holds no root is
reported unconverged. The QFI search starts from that winner at its shot
time and runs one projected L-BFGS polish over the coefficients and the log
shot time, across the whole shot-time bracket, minimizing t / F_Q with the
envelope gradient (``fisher._qfi_gradient``) and a cubic backtracking line
search until its model predicts a decrease near F_Q's rounding; its
projected gradient certifies the status, and its own t and F_Q are
reported. A sweep over n runs the gen-Ramsey search once per n, whichever
methods it reports. The gradient, like every shot-time F_Q, comes from the
one block QFI ``fisher._block_qfi``: no 2^n state vector or density matrix
is built.

The shot-time QFI optimum of a state is likewise a root, of r = 1 - t
F_Q'/F_Q = 2 d log delta_omega / d log t, next to the best point of a
stacked geometric grid, found in x = t / t_lo, t_lo the bracket's lower
grid point, to 1e-12 + 4 eps |x| by the same safeguarded Newton steps, each
landing on the root of the inverse quadratic through the last three probes
of ``fisher._shot_probe`` (``_secant_root``), or t = T where r(T) <= 0;
either way the optimum is the latest probe. Every path uses numpy and the
standard library only: no command loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .collective import _check_reachable, _genramsey_rows
from .exceptions import BracketingError, NoInformationError, SingularPointError
from .evolution import MAX_BLOCK_QUBITS, _block_form
from .fisher import (
    QFI_FLOOR,
    _NO_INFORMATION,
    _block_qfi,
    _precision_bounds,
    _qfi_gradient,
    _shot_probe,
)
from .qstate import (
    SymmetricFamilyState,
    _check_qubit_count,
    _check_scalar,
    _dicke_amplitudes,
    _dicke_ladder,
    _flip_even_isometry,
    _per_n_cache,
)
from .ramsey import ExperimentBudget, reference_limit, uncertainty_ghz, uncertainty_uncorrelated

__all__ = [
    "OptimizationReport",
    "METHODS",
    "ION_RANGE",
    "qfi_shot_optimum",
    "optimize_symmetric_coeffs",
    "improvement_sweep",
    "fig3_scan",
]

METHODS = ("gen-ramsey", "qfi")
# Smallest and largest ion number each coefficient search accepts. The
# gen-Ramsey end is set by its (n//2+1)-level flip-even eigensolves, O(n^3)
# each: 17 for the grid and 2 Newton probes, about 0.6 s at n = 1000;
# the qfi end is that of the block QFI.
ION_RANGE = {"gen-ramsey": (2, 1000), "qfi": (2, MAX_BLOCK_QUBITS)}

_GRID_POINTS = 16  # the root needs only the optimum's basin
# Bytes of one chunk of a stacked grid. In the presampling grid of
# ``qfi_shot_optimum`` a lane is a (K, n+1, n+1) block array and its
# derivative: the whole grid in one chunk up to n = 11, three shot times per
# chunk at n = 20 and one from n = 25; each temporary of its Gram products
# has the chunk's shape. In the gen-Ramsey mu grid a lane is a
# flip-even matrix and its eigenvectors: the whole grid in one chunk up to
# n = 61, one mu per chunk from n = 180.
_STACK_BYTES = 1 << 18
# The log mu grid: points 18..34 (mu from 0.0501 to 12.59) of the 41-point
# grid over [1e-4, 1e2], sliced from it so every point keeps its bits. The
# best mu depends on n alone (see ``_genramsey_search``): 0.213 at n = 2
# rising to 2.647 at n = 1000, between points 22 and 30 of the whole grid.
_LOG_MU_GRID = np.linspace(math.log(1e-4), math.log(1e2), 41)[18:35]
# F_Q evaluations (``_qfi_gradient`` calls) after which the polish stops
# unconverged; it takes 8 to 13 at n = 2..7 and 69 at n = 20.
_POLISH_EVALS = 4000
# The polish stops when a step lowers log t - log F_Q by at most
# _FACTR * machine epsilon relative (L-BFGS-B's factr test), when a line
# search finds no decrease where none can exceed that rounding floor, or at
# a point certified by its projected gradient (at most _GRAD_TOL; the largest
# measured over n = 2..20 and gamma in {0.3, 1, 2} was 3.2e-7) where the
# model predicts a decrease of at most _MODEL_FLOOR relative.
_FACTR = 10.0
_MODEL_FLOOR = 3e-14
_GRAD_TOL = 1e-6
_MEMORY = 10  # (s, y) pairs of the L-BFGS recursion, as L-BFGS-B's default m
_LINE_EVALS = 20  # backtracking trials after which a line search finds no decrease


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one coefficient optimization for one (n, method) pair."""

    n: int
    method: str
    improvement_pct: float
    delta_omega: float
    t_opt: float
    best_coeffs: np.ndarray
    status: str = "ok"


def _shot_bracket(gamma, total_time):
    """The shot times (1e-4/gamma, min(T, 8/gamma)) both QFI searches cover."""
    return 1e-4 / gamma, min(total_time, 8.0 / gamma)


def _chunks(grid, lane_bytes):
    """``grid`` split into chunks of at most ``_STACK_BYTES`` of stacked
    lanes of ``lane_bytes`` each, and at least one lane."""
    size = max(1, _STACK_BYTES // lane_bytes)
    return [grid[i : i + size] for i in range(0, len(grid), size)]


def _shot_grid(n, gamma, total_time):
    """The geometric presampling grid of shot times over ``_shot_bracket``,
    its ends exact, and its split into chunks of stacked n-ion blocks."""
    grid = np.geomspace(*_shot_bracket(gamma, total_time), _GRID_POINTS)
    return grid, _chunks(grid, 16 * (n // 2 + 1) * (n + 1) ** 2)


def qfi_shot_optimum(state, gamma, total_time):
    """Shot time minimizing the precision bound 1/sqrt((T/t) F_Q(t)) of the
    SymmetricFamilyState ``state`` (1 <= n <= ``MAX_BLOCK_QUBITS`` = 100)
    over (1e-4/gamma, min(T, 8/gamma)). Returns (t_opt, delta_omega); raises
    NoInformationError when no grid shot time carries information.

    The grid is scored in stacked chunks of Schur-Weyl blocks. In the
    ``_bracket_beside`` (t_lo, t_hi) of the best grid point, ``_secant_root``
    then solves r = 1 - t F_Q'/F_Q = 0, F_Q and F_Q' from
    ``fisher._shot_probe``, in x = t / t_lo to ``_newton_root``'s tolerance
    1e-12 + 4 eps |x|, about 1e-12 relative in t whatever the units of
    gamma, and the probe it ends on is the result. For the GHZ and product
    states r = 2 m gamma t - 1 (m = n and 1) is linear in t, and the search
    ends on the chord's probe. A best grid point t = T with r(T) <= 0 is the
    optimum under the constraint t <= T. Any other unbracketed optimum, or a
    root not found within 100 probes, raises NoInformationError if a probe
    carried no information (as within about 1e-15 of a Dicke state),
    BracketingError otherwise.
    """
    return _shot_optimum(state, gamma, total_time)[:2]


def _shot_optimum(state, gamma, total_time):
    """``(t_opt, delta_omega, (F_Q, measurement))``: the result of
    ``qfi_shot_optimum`` and F_Q of the probe at t_opt with its measurement
    as ``fisher._sld_fisher`` takes it. Only the latest probe is held (12 MB
    at n = 100): the search ends on it, and an optimum that is an earlier
    probe, as a bracket end where r = 0, is probed again."""
    if not isinstance(state, SymmetricFamilyState):
        raise TypeError(f"expected a SymmetricFamilyState, got {type(state).__name__}")
    gamma = _check_scalar("dephasing rate", gamma, 0, strict=True)
    lo = _shot_bracket(gamma, total_time)[0]  # the bracket must not be empty
    _check_scalar("total time", total_time, lo, strict=True, bound_name="1e-4/gamma")
    n, c = state.n, _dicke_amplitudes(state.n, state.a)
    grid, chunks = _shot_grid(n, gamma, total_time)
    fq = np.concatenate([_block_qfi(c, _block_form(n, gamma, ts))[0] for ts in chunks])
    values = _precision_bounds(fq, grid, total_time)
    if not np.isfinite(values).any():
        raise NoInformationError(_NO_INFORMATION)
    probed, latest = {}, None  # r at each probed t; (t, F_Q, measurement) of the latest probe

    def residual(t):
        nonlocal latest
        if t not in probed:
            fq, dfq, _, measurement = _shot_probe(n, gamma, c, t)
            latest = t, fq, measurement
            probed[t] = float(1.0 - t * dfq / fq) if fq >= QFI_FLOOR else math.nan
        return probed[t]

    grid, best = grid.tolist(), int(np.argmin(values))
    bracket = _bracket_beside(lambda k: residual(grid[k]), best, len(grid))
    x = None
    if bracket is not None:
        lo, hi = (grid[k] for k in bracket)
        scaled = lambda x: hi if x == hi / lo else lo * x  # lo * (hi / lo) can miss hi by an ulp
        x = _secant_root(lambda x: residual(scaled(x)), 1.0, hi / lo, residual(lo), residual(hi))
    if x is not None:
        t = scaled(x)
    elif grid[best] == total_time and residual(grid[best]) <= 0.0:
        t = grid[best]
    elif any(math.isnan(r) for r in probed.values()):
        raise NoInformationError(_NO_INFORMATION)
    else:
        raise BracketingError(f"no shot-time optimum bracketed next to t = {grid[best]}")
    if t == latest[0]:
        fq, measurement = latest[1:]
    else:
        fq, _, _, measurement = _shot_probe(n, gamma, c, t)
    return t, float(_precision_bounds(fq, t, total_time)), (fq, measurement)


@_per_n_cache
def _flip_even_ops(n):
    """Read-only ``(P^T S_x P, P^T S_y^2 P)``: S_x and S_y^2 on the n-ion
    flip-even sector in the family basis, with P the isometry a -> Dicke
    amplitudes of ``_dicke_amplitudes``. S_y^2 = B^T B with the real B =
    J+ - J-."""
    iso = _flip_even_isometry(n)  # row k: P e_k
    ladder, pad = _dicke_ladder(n)[1], np.zeros((n // 2 + 1, 1))
    raised = np.hstack([pad, ladder * iso[:, :-1]])  # rows J+ P e_k
    lowered = np.hstack([ladder * iso[:, 1:], pad])  # rows J- P e_k
    diff = raised - lowered
    ops = iso @ (raised + lowered).T, diff @ diff.T
    for op in ops:
        op.flags.writeable = False
    return ops


def _ground_states(ops, log_mu):
    """``(energy, a, <S_x>, <S_y^2>, d<S_y^2>/dmu)`` of the ground states
    |0> of H = -S_x + mu S_y^2 on the flip-even sector ``ops`` of
    ``_flip_even_ops``, one row per mu of the stack ``log_mu``, all from the
    eigenpairs (E_j, |j>) of one stacked ``eigh``. Every off-diagonal element
    is <= 0, so by Perron-Frobenius the ground vector, the family
    coefficients themselves, is positive up to its sign and E_0 is simple.

    <S_y^2> = <0|S_y^2|0> = dE_0/dmu, and its derivative is the linear
    response d<S_y^2>/dmu = -2 <0|S_y^2 (H - E_0)^+ S_y^2|0>, here summed over
    the excited pairs as -2 sum_{j>=1} <j|S_y^2|0>^2 / (E_j - E_0). Each
    product is taken lane by lane, so a mu gives the same bits alone as in a
    stack."""
    sx, sy2 = ops
    energy, vecs = np.linalg.eigh(np.exp(log_mu)[:, None, None] * sy2 - sx)
    ground = vecs[:, :, :1]
    sx_mean = (ground.transpose(0, 2, 1) @ (sx @ ground))[:, 0, 0]
    sy2_rows = (vecs.transpose(0, 2, 1) @ (sy2 @ ground))[:, :, 0]  # <j|S_y^2|0>
    response = sy2_rows[:, 1:] ** 2 / (energy[:, 1:] - energy[:, :1])
    return energy[:, 0], np.abs(ground[:, :, 0]), sx_mean, sy2_rows[:, 0], -2.0 * response.sum(-1)


def _genramsey_lanes(n, ops, gamma, total_time, log_mu):
    """``(a, t_opt, delta_omega, r, dr)`` arrays of the n-ion ground states
    for the stack ``log_mu`` (``_ground_states``), scored by
    ``collective._genramsey_rows``, with the stationarity residual of
    ``_genramsey_search`` r = log mu - log(<S_x> / (2 n x e^x)), x = 2 gamma
    t_opt, and its slope dr = dr/dlog mu. With v = <S_y^2>, Hellmann-Feynman
    (d<S_x>/dmu = mu dv/dmu) and the t_opt equation (dx/dv = 1/(n x e^x))
    give dr = 1 - mu^2 v'/<S_x> + (1 + 1/x) mu v'/(n x e^x). Each lane is
    computed on its own, so a mu gives the same bits alone as in a stack."""
    _, a, sx, sy2, dsy2 = _ground_states(ops, log_mu)
    t_opt, delta_omega = _genramsey_rows(sx, sy2, n, total_time, gamma)
    mu, x = np.exp(log_mu), 2.0 * gamma * t_opt
    r = log_mu - np.log(sx) + np.log(2.0 * n * x) + x
    dr = 1.0 - mu * mu * dsy2 / sx + (1.0 + 1.0 / x) * mu * dsy2 / (n * x * np.exp(x))
    return a, t_opt, delta_omega, r, dr


def _bracket_beside(residual, best, size):
    """Indices (lo, hi) of ``best`` and its neighbour where the objective
    falls, the next one if ``residual(best)`` is negative, on a grid of
    ``size`` points; None when that neighbour is off the grid or r(lo) <= 0
    <= r(hi) fails."""
    lo, hi = sorted((best, best + 1 if residual(best) < 0.0 else best - 1))
    if 0 <= lo and hi < size and residual(lo) <= 0.0 <= residual(hi):
        return lo, hi
    return None


def _newton_root(f, lo, hi, x):
    """A root of ``f`` in [lo, hi], where f(lo) <= 0 <= f(hi), by Newton
    steps from x: ``f`` returns the value and the slope. The bracket shrinks
    to each probe by the sign of its value, and a step that would leave it
    bisects it instead, as does a NaN value or slope. Returns the probe whose
    Newton step is within the tolerance 1e-12 + 4 eps |x|, or whose bracket
    is that narrow; None after 100 probes."""
    for _ in range(100):
        value, slope = f(x)
        if value <= 0.0:
            lo = x
        if value >= 0.0:
            hi = x
        step = -value / slope if slope else math.inf
        tol = 1e-12 + 4.0 * math.ulp(1.0) * abs(x)
        if abs(step) <= tol or hi - lo <= tol:
            return x
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
    return None


def _secant_root(f, lo, hi, f_lo, f_hi):
    """A root of ``f`` in [lo, hi], where f_lo = f(lo) <= 0 <= f(hi) = f_hi:
    an end where f vanishes, or the ``_newton_root`` from the chord root
    whose slope at each probe steps onto the root of the inverse quadratic
    interpolant x(f) through the last three points, the ends first, the one
    of smaller |f| last (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 3-4). Where two of their values are equal, the
    slope is the secant through the probe and the point before it. A probe
    that is the interpolant's own root is returned, and a NaN value
    bisects. Near a simple root of a smooth f these steps converge
    superlinearly. None after 100 probes."""
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    points = [(hi, f_hi), (lo, f_lo)] if -f_lo < f_hi else [(lo, f_lo), (hi, f_hi)]

    def inverse_quadratic(x):
        value = f(x)
        (a, f_a), (b, f_b) = points[-2:]
        points.append((x, value))
        if f_a == f_b or f_b == value or value == f_a:
            return value, (value - f_b) / (x - b) if x != b else 0.0
        root = (a * f_b * value / ((f_a - f_b) * (f_a - value))
                + b * f_a * value / ((f_b - f_a) * (f_b - value))
                + x * f_a * f_b / ((value - f_a) * (value - f_b)))
        return value, value / (x - root) if x != root else math.inf

    return _newton_root(inverse_quadratic, lo, hi, lo - f_lo * (hi - lo) / (f_hi - f_lo))


def _hermite_root(x0, x1, f0, f1, d0, d1):
    """The ``_newton_root`` of the cubic Hermite interpolant through the
    values f0 <= 0 <= f1 and slopes d0, d1 at x0 < x1, or the midpoint when
    it has none (as with a NaN slope)."""
    h = x1 - x0
    c2, c3 = 3.0 * (f1 - f0) - h * (2.0 * d0 + d1), 2.0 * (f0 - f1) + h * (d0 + d1)

    def cubic(x):
        s = (x - x0) / h
        return f0 + s * (h * d0 + s * (c2 + s * c3)), d0 + s * (2.0 * c2 + 3.0 * s * c3) / h

    root = _newton_root(cubic, x0, x1, 0.5 * (x0 + x1))
    return 0.5 * (x0 + x1) if root is None else root


def _genramsey_search(n, gamma, total_time):
    """(coefficients, t_opt, delta_omega, converged) of the best ground
    state of -S_x + mu S_y^2: the gen-Ramsey score improves as <S_x> rises
    and <S_y^2> falls (Ulam-Orgikh & Kitagawa, PRA 64, 052106 (2001)). By
    Perron-Frobenius the ground state is positive and flip-even, a family
    state with every a_k > 0, and <S_y^2> <= n because its energy is concave
    in mu, so t_opt <= tau_dec/2 <= T.

    With v = <S_y^2> and x = 2 gamma t_opt, Hellmann-Feynman gives
    d<S_x>/dmu = mu dv/dmu and the t_opt equation n[1 + (x-1)e^x] = v gives
    dx/dv = 1/(n x e^x), so d log delta_omega/dmu = (dv/dmu) [1/(2 n x e^x)
    - mu/<S_x>] with dv/dmu < 0: delta_omega is stationary where the
    residual r of ``_genramsey_lanes`` vanishes, falling with mu where
    r < 0 and rising where r > 0. The log mu grid is scored in stacked
    chunks, each lane with r and its slope dr/dlog mu. Between the best grid
    lane and its neighbour on the side where delta_omega falls
    (``_bracket_beside``), ``_newton_root`` takes Newton steps on r from the
    root of the cubic Hermite interpolant of the two lanes
    (``_hermite_root``), one one-lane stack per probe: 2 probes, 3 at n = 3.
    The probe it ends on is the result. When r keeps its sign across that
    neighbour, the best lane has none there (a grid edge), or Newton's method
    does not converge, the best lane is returned unconverged.

    Neither gamma nor T enters the search's choices: <S_x>, v and so x are
    those of the ground state at mu, r holds nothing else, and delta_omega =
    sqrt(gamma/T) sqrt(2 n e^x)/<S_x> orders the lanes by a factor of mu and
    n alone. The best mu thus depends on n only, which is why ``_LOG_MU_GRID``
    need only cover the values it takes over ``ION_RANGE``.
    """
    ops = _flip_even_ops(n)
    lanes = lambda log_mu: _genramsey_lanes(n, ops, gamma, total_time, log_mu)
    chunks = _chunks(_LOG_MU_GRID, 16 * (n // 2 + 1) ** 2)
    a, t_opt, delta_omega, r, dr = (np.concatenate(rows) for rows in zip(*map(lanes, chunks)))
    best, r, dr = int(np.argmin(delta_omega)), r.tolist(), dr.tolist()
    bracket = _bracket_beside(r.__getitem__, best, len(r))
    log_mu, probes = None, {}

    def residual(log_mu):
        probes[log_mu] = [rows[0] for rows in lanes(np.array([log_mu]))]
        return float(probes[log_mu][3]), float(probes[log_mu][4])

    if bracket is not None:
        lo, hi = bracket
        grid = float(_LOG_MU_GRID[lo]), float(_LOG_MU_GRID[hi])
        start = _hermite_root(*grid, r[lo], r[hi], dr[lo], dr[hi])
        log_mu = _newton_root(residual, *grid, start)
    if log_mu is None:
        return a[best], float(t_opt[best]), float(delta_omega[best]), False
    a, t_opt, delta_omega, _, _ = probes[log_mu]
    return a, float(t_opt), float(delta_omega), True


def _norms(rows):
    """Euclidean norm of each row, summed within the row."""
    return np.sqrt((rows * rows).sum(-1))


def _two_loop(grad, pairs):
    """The L-BFGS direction -H grad by the two-loop recursion (Nocedal, Math.
    Comp. 35, 773 (1980)) over the (s, y, 1/(s.y)) ``pairs``, oldest first,
    with H0 = s.y / y.y of the latest pair, the identity when there is none."""
    q, alphas = grad.copy(), []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q /= rho * (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _backtrack(phi, f0, g0, stp, floor):
    """The step of an interpolating backtracking line search (Nocedal &
    Wright, Numerical Optimization, 2nd ed., section 3.5). ``phi(stp)``
    evaluates the objective and its slope at a trial step; f0 and g0 < 0 are
    those at step 0 and ``stp`` is the first trial. It returns the first
    trial that meets Armijo's test f <= f0 + 1e-3 stp g0, or None (no
    decrease) after ``_LINE_EVALS`` trials or once a failed trial's predicted
    decrease -stp g0 is at most the rounding ``floor``. The next trial is
    the minimizer of the cubic through (0, f0, g0) and (stp, f, g), clamped
    to [0.1, 0.5] stp, or half the step where that cubic has no minimizer
    at a positive step or f is infinite."""
    for _ in range(_LINE_EVALS):
        f, g = phi(stp)
        if f <= f0 + 1e-3 * stp * g0:
            return stp
        if -stp * g0 <= floor:
            return None
        # the cubic f0 + stp g0 u + b u^2 + c u^3 through both, u = step / stp
        b, c = 3.0 * (f - f0) - stp * (2.0 * g0 + g), stp * (g0 + g) - 2.0 * (f - f0)
        disc = b * b - 3.0 * c * stp * g0
        if math.isfinite(f) and disc >= 0.0 and b + math.sqrt(disc) > 0.0:
            stp *= min(max(-stp * g0 / (b + math.sqrt(disc)), 0.1), 0.5)
        else:
            stp *= 0.5
    return None


def _projected(x, g, lo, hi):
    """Largest entry of L-BFGS-B's projected gradient g at x = (a, log t),
    log t in [lo, hi]: zero along a bound g pushes past."""
    return np.abs(np.append(g[:-1], x[-1] - min(max(x[-1] - g[-1], lo), hi))).max()


def _polish(n, gamma, a, t, bracket):
    """``(a, t, F_Q, certified)`` minimizing t / F_Q jointly over the family
    coefficients and the shot time, from the unit coefficients ``a`` at
    ``t``, the shot time kept inside ``bracket``.

    A projected L-BFGS (memory ``_MEMORY``, ``_two_loop``) runs on x = (a,
    log t) with the objective log t - log F_Q(a/|a|, t) and the envelope
    gradient of ``fisher._qfi_gradient``; the objective does not involve the
    total time, so the bound's 1/sqrt(T) scaling stays exact. log t is held
    at a bound the gradient or the direction pushes past, and every trial is
    projected into the bracket. Each step is a ``_backtrack`` from step 1,
    or min(1/|p|, 1) along the first direction p as in L-BFGS-B, at most
    the room to log t's bound. The polish stops when a step lowers the
    objective by at most ``_FACTR`` machine epsilons relative, when a line
    search ends without a decrease (at the rounding floor or after
    ``_LINE_EVALS`` trials), after ``_POLISH_EVALS`` evaluations, or at a
    certified point, once it holds an (s, y) pair, where the decrease
    -g.d/2 its model predicts is at most ``_MODEL_FLOOR`` relative, near
    F_Q's rounding.
    ``certified`` holds when the ``_projected`` gradient at its point is at
    most ``_GRAD_TOL`` and fewer than ``_POLISH_EVALS`` evaluations were
    spent. Its point is never worse than the start.
    """
    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    evals = 0

    def evaluate(x):
        nonlocal evals
        evals += 1
        norm, t = _norms(x[:-1]), math.exp(x[-1])
        fq, grad_a, grad_t = _qfi_gradient(n, gamma, x[:-1] / norm, t)
        g = np.zeros_like(x)
        if not fq >= QFI_FLOOR:
            return x, math.inf, fq, g
        np.divide(grad_a, -(norm * fq), out=g[:-1])
        g[-1] = 1.0 - t * grad_t / fq
        return x, float(x[-1]) - math.log(fq), fq, g

    point, pairs, eps = evaluate(np.append(a, math.log(t))), [], math.ulp(1.0)
    trial = None  # the point of the last trial step
    while evals < _POLISH_EVALS:
        x, f, _, g = point
        side = -1.0 if x[-1] <= lo else 1.0 if x[-1] >= hi else 0.0  # log t's bound
        d = _two_loop(g, pairs)
        if max(-side * g[-1], side * d[-1]) > 0.0:  # a step would leave it: hold it
            d = _two_loop(np.append(g[:-1], 0.0), pairs)
            d[-1] = 0.0
        slope, scale = float(g @ d), max(abs(f), 1.0)
        noise = -0.5 * slope <= _MODEL_FLOOR * scale  # the model's decrease
        if not slope < 0.0 or pairs and noise and _projected(x, g, lo, hi) <= _GRAD_TOL:
            break
        room = ((hi if d[-1] > 0.0 else lo) - x[-1]) / d[-1] if d[-1] else math.inf
        # L-BFGS-B's first step: at most 1, from 1/|p|
        stp = min(1.0 if pairs else min(1.0 / _norms(d), 1.0), room)

        def phi(step):
            nonlocal trial
            y = x + step * d
            y[-1] = min(max(y[-1], lo), hi)
            trial = evaluate(y)
            return trial[1], float(trial[3] @ d)

        floor = _FACTR * eps * scale
        if _backtrack(phi, f, slope, stp, floor) is None or not trial[1] < f:  # no decrease
            break
        s, y = trial[0] - x, trial[3] - g
        if s @ y > eps * -(g @ s):  # L-BFGS-B's curvature test
            pairs = (pairs + [(s, y, 1.0 / (s @ y))])[-_MEMORY:]
        point = trial
        if f - trial[1] <= max(floor, _FACTR * eps * abs(trial[1])):
            break
    x, _, fq, g = point
    certified = _projected(x, g, lo, hi) <= _GRAD_TOL and evals < _POLISH_EVALS
    return x[:-1] / _norms(x[:-1]), math.exp(x[-1]), fq, bool(certified)


def _qfi_search(n, gamma, total_time, a0, t0):
    """(coefficients, t_opt, delta_omega, certified) of the QFI optimum.

    One gradient polish over coefficients and shot time (``_polish``) starts
    from the gen-Ramsey winner ``a0`` at its shot time ``t0``, clipped into
    the shot-time bracket, and may move across the whole bracket. Its |a| (a
    diagonal +-1 unitary keeps F_Q), t and F_Q are the result. A polish
    held at an artificial bracket edge, 1e-4/gamma or 8/gamma < T, is not
    certified; one held at t = T is the optimum under t <= T.
    """
    lo, hi = _shot_bracket(gamma, total_time)
    a, t, fq, certified = _polish(n, gamma, a0, min(max(t0, lo), hi), (lo, hi))
    if not fq >= QFI_FLOOR:
        raise NoInformationError(_NO_INFORMATION)
    # the polish holds log t exactly at log lo or log hi
    edges = [math.exp(math.log(edge)) for edge in ((lo, hi) if hi < total_time else (lo,))]
    delta_omega = float(_precision_bounds(fq, t, total_time))
    return np.abs(a), t, delta_omega, certified and t not in edges


def _check_search(n, gamma, total_time, method):
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    lo, hi = ION_RANGE[method]
    if not lo <= _check_qubit_count(n) <= hi:
        raise ValueError(f"{method} optimization supports {lo} <= n <= {hi}, got {n}")
    _check_reachable(gamma, total_time)


def _reports(n, gamma, total_time, methods):
    """The OptimizationReport of each method in ``methods`` at n.
    The gen-Ramsey search runs once: the QFI search starts from its winner."""
    for method in methods:
        _check_search(n, gamma, total_time, method)
    found = {"gen-ramsey": _genramsey_search(n, gamma, total_time)}
    if "qfi" in methods:
        found["qfi"] = _qfi_search(n, gamma, total_time, *found["gen-ramsey"][:2])
    ref = reference_limit(n, total_time, gamma)
    reports = {}
    for method in methods:
        a, t_opt, delta_omega, converged = found[method]
        reports[method] = OptimizationReport(
            n=n,
            method=method,
            improvement_pct=100.0 * (1.0 - delta_omega / ref),
            delta_omega=delta_omega,
            t_opt=t_opt,
            best_coeffs=a,
            status="ok" if converged else "partial",
        )
    return reports


def optimize_symmetric_coeffs(
    n: int, gamma: float, total_time: float, method: str
) -> OptimizationReport:
    """Search unit-norm family coefficients minimizing the scheme uncertainty.

    ``method`` picks the measurement, one of ``METHODS``: "gen-ramsey" uses
    the collective S_x observable with the analytic optimal shot time, "qfi"
    the optimal projective measurement with the shot time searched
    numerically. Both return a_k >= 0. A "gen-ramsey" report whose best
    log mu grid lane has no root of the stationarity condition next to it,
    as when it sits at a grid edge, and a "qfi" report whose gradient polish
    reached its evaluation cap, ended with a projected gradient above its
    tolerance, or held the shot time at an artificial bracket edge (1e-4/gamma,
    or 8/gamma below T), have status "partial".
    """
    return _reports(n, gamma, total_time, (method,))[method]


def improvement_sweep(n_range, gamma: float, total_time: float, methods=METHODS):
    """Yield ``(n, outcomes)`` for each ion number, ``outcomes`` mapping each
    method in order to its OptimizationReport; each n runs one gen-Ramsey
    search, whichever methods it reports."""
    methods = tuple(methods)
    for n in n_range:
        yield n, _reports(n, gamma, total_time, methods)


def fig3_scan(n: int, gamma: float, total_time: float, t_grid) -> np.ndarray:
    """Uncertainty versus shot time for the uncorrelated and maximally
    entangled schemes, each at its own optimal phase (delta*t = pi/2 and
    n*delta*t = pi/2). Rows are (t, uncorrelated, ghz); infeasible shot
    times, those an ``ExperimentBudget`` rejects, yield NaN entries.
    """
    n = _check_qubit_count(n)
    _check_scalar("dephasing rate", gamma, 0, strict=True)
    _check_scalar("total time", total_time)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        row = [t, math.nan, math.nan]
        rows.append(row)
        try:
            budget = ExperimentBudget(n, total_time, float(t))
        except ValueError:  # an infeasible shot time: its row stays NaN
            continue
        try:
            row[1] = uncertainty_uncorrelated(budget, 0.5 * math.pi / t, gamma)
        except SingularPointError:
            pass
        try:
            row[2] = uncertainty_ghz(budget, 0.5 * math.pi / (n * t), gamma)
        except SingularPointError:
            pass
    return np.array(rows, dtype=float)

