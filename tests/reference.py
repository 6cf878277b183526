"""Brute-force reference constructions used as independent oracles.

Everything here is built from explicit dense operators on the 2^n
computational basis (kron products, diagonal phases, bit flips over all 2^n
amplitudes, the gate network), from a dense eigensolve on all n+1 Dicke
levels, from a fixed-step integration of the master equation, from
Schrijver's block formulas entry by entry in exact integers, from
bisection or 40- and 60-digit decimal arithmetic, or from a grid or Nelder-Mead
search over the library's per-candidate figures, or from scipy's L-BFGS-B,
so that the production
code paths, which never leave the n+1 Dicke levels or the Schur-Weyl
blocks, are checked against a second, slower route. States are plain numpy
arrays, amplitude vectors of length 2^n and 2^n x 2^n density matrices, and
n is read from their shape.

Basis convention: index b encodes the bit string x with bit k of b giving
the internal state of ion k+1, so ion 1 is the least significant bit. The
Ramsey pulse is the y-axis rotation |0> -> (|0>+|1>)/sqrt(2),
|1> -> (-|0>+|1>)/sqrt(2), so every prepared amplitude is real.
"""

import decimal
import functools
import math
from functools import reduce

import numpy as np
from scipy.linalg import eigh, solve_continuous_lyapunov
from scipy.optimize import brentq, fmin_l_bfgs_b, minimize, minimize_scalar

from clocksim import (
    BracketingError,
    CollectiveMoments,
    DegenerateStateError,
    ExperimentBudget,
    NoInformationError,
    SingularPointError,
    SymmetricFamilyState,
    collective_moments,
    genramsey_opt_uncertainty,
    qfi_shot_optimum,
    qfi_uncertainty,
    reference_limit,
)
from clocksim.collective import _ZERO_TOL
from clocksim.evolution import _block_form, _block_tables
from clocksim.fisher import (
    _NO_INFORMATION,
    QFI_FLOOR,
    _block_qfi,
    _precision_bounds,
    _qfi_core,
    _qfi_gradient,
    _shot_probe,
    _sld,
)
from clocksim.optimize import (
    _FACTR,
    _GRAD_TOL,
    _GRID_POINTS,
    _POLISH_EVALS,
    _bracket_beside,
    _secant_root,
    _shot_bracket,
)
from clocksim.qstate import _dicke_amplitudes


class OracleError(Exception):
    """An oracle search ended without a usable candidate."""


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PROJ_1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
RAMSEY_PULSE = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def site_operator(m, k, n):
    """Single-qubit operator m acting on qubit k (bit k of the index)."""
    factors = []
    if k < n - 1:
        factors.append(np.eye(1 << (n - 1 - k)))
    factors.append(m)
    if k > 0:
        factors.append(np.eye(1 << k))
    return reduce(np.kron, factors)


def collective_op(m, n):
    return sum(site_operator(m, k, n) for k in range(n))


def hamming(n):
    return np.array([bin(x).count("1") for x in range(1 << n)])


def qubits(arr):
    """Ion count n of a 2^n amplitude vector or of (a stack of) 2^n x 2^n
    matrices."""
    return int(arr.shape[-1]).bit_length() - 1


def product_state(n):
    """Every ion in (|0>+|1>)/sqrt(2): all 2^n amplitudes equal 2^(-n/2)."""
    return np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)


def ghz_state(n):
    """The maximally entangled state (|0...0> + |1...1>)/sqrt(2)."""
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return amps


def family_state(n, a):
    """Amplitudes of the family state with unit weight-class coefficients
    ``a``: each string of Hamming weight k or n-k gets a[k] over the square
    root of the number of such strings."""
    w = hamming(n)
    cls = np.minimum(w, n - w)
    sizes = np.bincount(cls)
    return (np.asarray(a, dtype=float)[cls] / np.sqrt(sizes[cls])).astype(complex)


def density(psi):
    """The density matrix |psi><psi| of an amplitude vector."""
    return np.outer(psi, psi.conj())


def apply_single_qubit(gate, k, arr):
    """Apply a 2x2 gate to qubit k along axis 0 of a state vector or matrix."""
    view = arr.reshape(arr.shape[0] >> (k + 1), 2, -1)
    return np.einsum("ab,hbx->hax", gate, view).reshape(arr.shape)


def apply_cnot(control, target, arr):
    """Apply a controlled-NOT along axis 0 of a state vector or matrix."""
    idx = np.arange(arr.shape[0])
    return arr[np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)]


def ghz_via_network(n):
    """The maximally entangled state prepared by the gate network: a Ramsey
    pulse on ion 1, then controlled-NOT gates from ion 1 to each other ion."""
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    psi = apply_single_qubit(RAMSEY_PULSE, 0, psi)
    for k in range(1, n):
        psi = apply_cnot(0, k, psi)
    return psi


@functools.lru_cache(maxsize=None)
def _dephasing_tables(n):
    """h(y) - h(x) and the Hamming distance d(x, y) over basis index pairs
    (x, y), h the Hamming weight."""
    w = hamming(n)
    idx = np.arange(1 << n)
    tables = w[None, :] - w[:, None], w[idx[:, None] ^ idx[None, :]]
    for table in tables:
        table.flags.writeable = False
    return tables


def dense_evolve(rho, delta, gamma, ts):
    """The analytic dephasing map on a 2^n x 2^n density matrix, for every
    duration of ``ts``: rho(t)[x, y] = rho[x, y] exp(i delta t W[x, y])
    exp(-gamma t d(x, y)) with W[x, y] = h(y) - h(x), and its detuning
    derivative i t W rho(t). Both have shape np.shape(ts) + (2^n, 2^n) and
    share one exponential per duration."""
    weight_diff, distance = _dephasing_tables(qubits(rho))
    t = np.asarray(ts, dtype=float)[..., None, None]
    evolved = rho * np.exp((1j * delta * t) * weight_diff - (gamma * t) * distance)
    return evolved, evolved * ((1j * t) * weight_diff)


def dense_qfi(rho, drho):
    """F_Q of a 2^n x 2^n state, or of each state of a stack, with its
    detuning derivative, from the package's QFI core."""
    return _qfi_core(rho, drho)[0]


def classical_fi(rho, drho, basis):
    """Classical Fisher information sum_m dp_m^2 / p_m of the projective
    measurement onto the columns b_m of ``basis``, with p_m = <b_m|rho|b_m>
    and dp_m = <b_m|drho|b_m>. Outcomes with p_m < 1e-15 are skipped when
    |dp_m| < 1e-12 and rejected otherwise."""
    probs = np.einsum("im,ij,jm->m", basis.conj(), rho, basis).real
    dprobs = np.einsum("im,ij,jm->m", basis.conj(), drho, basis).real
    total = 0.0
    for p, dp in zip(probs, dprobs):
        if p < 1e-15:
            if abs(dp) < 1e-12:
                continue
            raise OracleError(
                f"outcome probability {p:.3g} vanishes while its derivative {dp:.3g} does not"
            )
        total += dp * dp / p
    return total


def _conjugate_single_qubit(gate, k, rho):
    rho = apply_single_qubit(gate, k, rho)
    return apply_single_qubit(gate.conj(), k, rho.T).T


def pipeline_signal(scheme, n, delta, gamma, t):
    """Dense simulation of prepare -> dephase -> second pulse -> measure ion 1
    for ``scheme`` "uncorrelated" or "ghz": the probability of finding ion 1
    in |1>."""
    psi = {"uncorrelated": product_state, "ghz": ghz_via_network}[scheme](n)
    rho_t = dense_evolve(density(psi), delta, gamma, t)[0]
    if scheme == "ghz":
        # disentangle, then the closing pulse on ion 1 only
        for k in range(1, n):
            rho_t = apply_cnot(0, k, rho_t)
            rho_t = apply_cnot(0, k, rho_t.T).T
        rho_t = _conjugate_single_qubit(RAMSEY_PULSE, 0, rho_t)
    else:
        for k in range(n):
            rho_t = _conjugate_single_qubit(RAMSEY_PULSE, k, rho_t)
    return float(np.real(np.diag(rho_t))[1::2].sum())


def random_pure_state(rng, n, real=False):
    v = rng.normal(size=1 << n)
    if not real:
        v = v + 1j * rng.normal(size=1 << n)
    v = v / np.linalg.norm(v)
    return v.astype(complex)


def random_density(rng, n, rank=None):
    """Random mixed state as a convex combination of random pure states."""
    rank = rank or rng.integers(1, 4)
    weights = rng.dirichlet(np.ones(rank))
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    for w in weights:
        v = random_pure_state(rng, n)
        rho += w * np.outer(v, v.conj())
    return 0.5 * (rho + rho.conj().T)


def sld_qfi(rho, drho):
    """F_Q = Tr(drho L) with the symmetric logarithmic derivative L solving
    rho L + L rho = 2 drho; for full-rank ``rho`` only."""
    sld = solve_continuous_lyapunov(rho, 2.0 * drho)
    return float(np.trace(drho @ sld).real)


def haar_basis(rng, d):
    """Haar-random orthonormal basis via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def evolve_reference(rho, n, delta, gamma, t):
    """Dephasing evolution assembled from explicit per-qubit channels.

    Unitary part from the diagonal phase exp(-i*delta*t*h); dephasing from
    the Kraus pair {sqrt((1+s)/2) I, sqrt((1-s)/2) Z} per qubit with
    s = exp(-gamma*t).
    """
    phases = np.exp(-1j * delta * t * hamming(n))
    rho = phases[:, None] * rho * phases.conj()[None, :]
    s = np.exp(-gamma * t)
    k0, k1 = np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)
    for k in range(n):
        z = site_operator(SIGMA_Z, k, n)
        rho = k0 * k0 * rho + k1 * k1 * (z @ rho @ z)
    return rho


def moments_reference(psi, n):
    """Collective moments through dense operator matrices."""
    sx = collective_op(SIGMA_X, n)
    sy = collective_op(SIGMA_Y, n)
    return (
        float((psi.conj() @ sx @ psi).real),
        float((psi.conj() @ sx @ sx @ psi).real),
        float((psi.conj() @ sy @ psi).real),
        float((psi.conj() @ sy @ sy @ psi).real),
    )


def dense_collective_moments(amps):
    """Collective moments of any 2^n amplitude vector, by flipping each qubit
    of all its amplitudes."""
    n = qubits(amps)
    idx = np.arange(1 << n)
    sx_psi = np.zeros_like(amps)
    sy_psi = np.zeros_like(amps)
    for k in range(n):
        flipped = amps[idx ^ (1 << k)]
        sx_psi += flipped
        sign = np.where((idx >> k) & 1 == 1, 1j, -1j)
        sy_psi += sign * flipped
    return CollectiveMoments(
        n=n,
        sx_mean=float(np.vdot(amps, sx_psi).real),
        sx2_mean=float(np.vdot(sx_psi, sx_psi).real),
        sy_mean=float(np.vdot(amps, sy_psi).real),
        sy2_mean=float(np.vdot(sy_psi, sy_psi).real),
    )


def decimal_moment_rows(n, c):
    """``(<S_x>, <S_x^2>, <S_y^2>)`` of the real n-ion Dicke amplitudes ``c``
    in 40-digit stdlib decimal arithmetic: <S_x> = 2 sum_w c_w <D_w|J-|D_{w+1}>
    c_{w+1}, and the squared norms of (J+ +- J-)c, with the ladder elements
    sqrt((w+1)(n-w)) taken in decimal too."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        c = [decimal.Decimal(float(v)) for v in c]
        ladder = [decimal.Decimal((w + 1) * (n - w)).sqrt() for w in range(n)]
        up = [0] + [step * v for step, v in zip(ladder, c[:-1])]  # J+ c on w = 0..n
        down = [step * v for step, v in zip(ladder, c[1:])] + [0]  # J- c on w = 0..n
        sx = 2 * sum(v * d for v, d in zip(c, down))
        sx2 = sum((u + d) ** 2 for u, d in zip(up, down))
        sy2 = sum((u - d) ** 2 for u, d in zip(up, down))
        return float(sx), float(sx2), float(sy2)


def _dense_genramsey_problem(n, mu):
    """``(S_x, S_y^2, energy, c)`` on all n+1 Dicke levels: the collective
    operators from <D_{w+1}|J+|D_w> = sqrt((w+1)(n-w)), S_x = J+ + J- and
    S_y^2 = -(J+ - J-)^2, and the lowest eigenpair of -S_x + mu S_y^2 from a
    dense ``eigh``."""
    w = np.arange(n)
    j_plus = np.diag(np.sqrt((w + 1.0) * (n - w)), -1)
    sx, j_diff = j_plus + j_plus.T, j_plus - j_plus.T
    sy2 = -(j_diff @ j_diff)
    energy, vecs = eigh(mu * sy2 - sx, subset_by_index=[0, 0])
    return sx, sy2, float(energy[0]), vecs[:, 0]


def dense_genramsey_ground(n, mu):
    """``(energy, a)`` of the ground state of -S_x + mu S_y^2 on all n+1
    Dicke levels (``_dense_genramsey_problem``), folded to family
    coefficients as a_k = sqrt(sum of c_w^2 over the levels w of weight
    class k = min(w, n-w)); the ground state is flip-even, so this is
    sqrt(2) |c_k| for k < n/2."""
    _, _, energy, c = _dense_genramsey_problem(n, mu)
    w = np.arange(n + 1)
    return energy, np.sqrt(np.bincount(np.minimum(w, n - w), weights=c * c))


def dense_genramsey_moments(n, mu):
    """``(<S_x>, <S_y^2>)`` of the ground state of -S_x + mu S_y^2, from the
    dense matrices and eigenvector of ``_dense_genramsey_problem``."""
    sx, sy2, _, c = _dense_genramsey_problem(n, mu)
    return float(c @ sx @ c), float(c @ sy2 @ c)


def dense_genramsey_residual(n, log_mu):
    """The gen-Ramsey stationarity residual r = log mu - log(<S_x> / (2 n x
    e^x)) of the ground state of -S_x + mu S_y^2, where x = 2 gamma t_opt
    solves n [1 + (x - 1) e^x] = <S_y^2>: the moments from the dense
    eigenvector of ``_dense_genramsey_problem``, x from the 60-digit
    ``topt_decimal``."""
    sx, sy2, _, c = _dense_genramsey_problem(n, math.exp(log_mu))
    sx_c = sx @ c
    m0 = CollectiveMoments(n, float(c @ sx_c), float(sx_c @ sx_c), 0.0, float(c @ sy2 @ c))
    x = topt_decimal(m0, n, 0.5)  # gamma = 1/2: t_opt is x itself
    return log_mu - math.log(m0.sx_mean) + math.log(2.0 * n * x) + x


def brent_genramsey_root(n, lo, hi):
    """The root in log mu of ``dense_genramsey_residual`` between ``lo`` and
    ``hi``, by scipy's brentq to xtol 1e-15."""
    return brentq(lambda log_mu: dense_genramsey_residual(n, log_mu), lo, hi, xtol=1e-15)


# The decohered S_x moments and the error-propagated gen-Ramsey uncertainty
# at any phase; the package keeps only their optimum, genramsey_opt_uncertainty.
def evolved_sx_mean(m0: CollectiveMoments, delta: float, gamma: float, t: float) -> float:
    """Mean of S_x after detuned free evolution with dephasing."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    return math.exp(-gamma * t) * (c * m0.sx_mean + s * m0.sy_mean)


def evolved_sx2_mean(m0: CollectiveMoments, delta: float, gamma: float, t: float) -> float:
    """Second moment of S_x after evolution (real-amplitude initial states)."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    rotated2 = c * c * m0.sx2_mean + s * s * m0.sy2_mean
    return m0.n + math.exp(-2.0 * gamma * t) * (rotated2 - m0.n)


def evolved_sx_slope(m0: CollectiveMoments, delta: float, gamma: float, t: float) -> float:
    """Analytic derivative of <S_x(t)> with respect to the atomic frequency."""
    c, s = math.cos(delta * t), math.sin(delta * t)
    return t * math.exp(-gamma * t) * (-s * m0.sx_mean + c * m0.sy_mean)


def genramsey_uncertainty(
    m0: CollectiveMoments, budget: ExperimentBudget, delta: float, gamma: float
) -> float:
    """Error-propagated frequency uncertainty of the S_x measurement.

    sqrt(Var S_x(t) / (N * (d<S_x>/domega)^2)) with N = T/t collective
    measurements.
    """
    if m0.n != budget.n:
        raise ValueError(f"moment ion count {m0.n} != budget ion count {budget.n}")
    if gamma < 0.0:
        raise ValueError(f"dephasing rate must be >= 0, got {gamma}")
    t = budget.shot_time
    slope = evolved_sx_slope(m0, delta, gamma, t)
    if abs(slope) < _ZERO_TOL * max(1.0, m0.n * t):
        raise SingularPointError("signal slope d<S_x>/domega vanishes at this point")
    mean = evolved_sx_mean(m0, delta, gamma, t)
    variance = max(evolved_sx2_mean(m0, delta, gamma, t) - mean * mean, 0.0)
    n_meas = budget.total_time / t
    return math.sqrt(variance / (n_meas * slope * slope))


def topt_bisection(m0, n, gamma):
    """Root of n * [1 + (2 gamma t - 1) e^{2 gamma t}] = Var S_y by bracketing
    from (0, 10/gamma] and bisecting to 1e-15 relative width."""
    sy_var = m0.sy_variance()

    def residual(t):
        x = 2.0 * gamma * t
        if x > 700.0:
            return math.inf
        return n * (1.0 + (x - 1.0) * math.exp(x)) - sy_var

    lo, hi = 0.0, 10.0 / gamma
    while residual(hi) < 0.0:
        hi *= 2.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def topt_decimal(m0, n, gamma):
    """Root of n * [1 + (2 gamma t - 1) e^{2 gamma t}] = Var S_y in 60-digit
    stdlib decimal arithmetic: Newton on g(x) = 1 + (x - 1) e^x = Var S_y/n,
    x = 2 gamma t, from x0 = min(sqrt(2 Var S_y/n), 2 + log(1 + Var S_y/n)),
    both above the root, down to a step of 1e-45 x. g is convex and
    increasing for x > 0, so the iterates fall monotonically to the root."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ratio = decimal.Decimal(m0.sy_variance()) / decimal.Decimal(n)
        x = min((2 * ratio).sqrt(), 2 + (1 + ratio).ln())
        for _ in range(1000):
            ex = x.exp()
            step = (1 + (x - 1) * ex - ratio) / (x * ex)
            x -= step
            if abs(step) <= decimal.Decimal("1e-45") * x:
                break
        return float(x / (2 * decimal.Decimal(gamma)))


def qfi_shot_uncertainty(rho0, t, gamma, total_time, delta=0.0):
    """Optimal-measurement precision bound for one shot duration ``t`` within
    the total time, from the dense evolution and F_Q of the 2^n x 2^n state
    ``rho0``; raises NoInformationError when the evolved state carries no
    information."""
    return qfi_uncertainty(dense_qfi(*dense_evolve(rho0, delta, gamma, t)), total_time, t)


def _safe_call(objective, t):
    try:
        value = objective(t)
    except (SingularPointError, DegenerateStateError, NoInformationError):
        return math.inf
    return value if math.isfinite(value) else math.inf


def minimize_over_t(objective, bracket, tol_x=1e-9):
    """Minimize a scalar objective over shot durations in ``bracket``, one
    duration at a time: a 48-point geometric grid, then scipy's bounded Brent
    method between the grid neighbours of the best grid point, to ``tol_x``,
    kept only where it beats that point. Evaluations raising singular,
    degenerate or no-information errors count as infinite; raises
    BracketingError if every grid value is infinite. Returns (t_opt, value)."""
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got ({lo}, {hi})")
    grid = np.geomspace(lo, hi, 48)
    values = [_safe_call(objective, t) for t in grid]
    best = int(np.argmin(values))
    if not math.isfinite(values[best]):
        raise BracketingError(f"objective is infinite everywhere on ({lo}, {hi})")
    res = minimize_scalar(
        lambda t: _safe_call(objective, t),
        bounds=(grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]),
        method="bounded",
        options={"xatol": tol_x},
    )
    if res.fun < values[best]:
        return float(res.x), float(res.fun)
    return float(grid[best]), float(values[best])


def dense_qfi_shot_optimum(psi, gamma, total_time, delta=0.0, tol_x=1e-9):
    """Shot-time QFI optimum of the amplitude vector ``psi`` over the bracket
    of ``qfi_shot_optimum``, (1e-4/gamma, min(T, 8/gamma)), scored one shot
    time at a time on its dense 2^n density matrix. Returns (t_opt,
    delta_omega)."""
    rho0 = density(psi)
    return minimize_over_t(
        lambda t: qfi_shot_uncertainty(rho0, t, gamma, total_time, delta),
        (1e-4 / gamma, min(total_time, 8.0 / gamma)),
        tol_x,
    )


def all_lanes_shot_optimum(state, gamma, total_time):
    """``(t_opt, delta_omega, F_Q)`` of ``qfi_shot_optimum`` with every lane
    of its 16-point ``np.geomspace`` grid scored, in one stacked call, as
    before the pure-state bound skipped grid lanes; the same bracket, root
    and exceptions follow, and F_Q is that of the probe at t_opt."""
    n, c = state.n, _dicke_amplitudes(state.n, state.a)
    grid = np.geomspace(*_shot_bracket(gamma, total_time), _GRID_POINTS)
    fq = _block_qfi(c, _block_form(n, gamma, grid))[0]
    values = _precision_bounds(fq, grid, total_time)
    if not np.isfinite(values).any():
        raise NoInformationError(_NO_INFORMATION)
    probed = {}

    def residual(t):
        if t not in probed:
            fq, dfq = _shot_probe(n, gamma, c, t)[:2]
            probed[t] = float(1.0 - t * dfq / fq) if fq >= QFI_FLOOR else math.nan
        return probed[t]

    grid, best = grid.tolist(), int(np.argmin(values))
    bracket = _bracket_beside(lambda k: residual(grid[k]), best, len(grid))
    x = None
    if bracket is not None:
        lo, hi = (grid[k] for k in bracket)
        scaled = lambda x: hi if x == hi / lo else lo * x
        x = _secant_root(lambda x: residual(scaled(x)), 1.0, hi / lo, residual(lo), residual(hi))
    if x is not None:
        t = scaled(x)
    elif grid[best] == total_time and residual(grid[best]) <= 0.0:
        t = grid[best]
    elif any(math.isnan(r) for r in probed.values()):
        raise NoInformationError(_NO_INFORMATION)
    else:
        raise BracketingError(f"no shot-time optimum bracketed next to t = {grid[best]}")
    fq = _shot_probe(n, gamma, c, t)[0]
    return t, float(_precision_bounds(fq, t, total_time)), fq


def schrijver_blocks(n, dicke_amps, delta, gamma, t):
    """Schur-Weyl blocks of a dephased family state straight from Schrijver's
    formula (IEEE Trans. Inf. Theory 51, 2859 (2005)): entry (i, j) of block k
    is sum_s beta^s_{i,j,k} f(i,j,s) / sqrt(C(n-2k, i-k) C(n-2k, j-k)), with
    the alternating integer sums beta^s_{i,j,k} and the per-string element
    f(i,j,s) = c_i c_j exp(i delta t (j-i)) exp(-gamma t (i+j-2s)),
    c_w = dicke_amps[w] / sqrt(C(n, w)). Returns a list of the blocks."""
    comb = math.comb
    c = [dicke_amps[w] / math.sqrt(comb(n, w)) for w in range(n + 1)]
    blocks = []
    for k in range(n // 2 + 1):
        m = n - 2 * k
        block = np.zeros((m + 1, m + 1), dtype=complex)
        for i in range(k, n - k + 1):
            for j in range(k, n - k + 1):
                total = 0.0
                for s in range(min(i, j) + 1):
                    beta = sum(
                        (-1) ** (u - s) * comb(u, s) * comb(m, u - k)
                        * comb(n - k - u, i - u) * comb(n - k - u, j - u)
                        for u in range(max(s, k), min(i, j) + 1)
                    )
                    total += beta * math.exp(-gamma * t * (i + j - 2 * s))
                phase = np.exp(1j * delta * t * (j - i))
                norm = math.sqrt(comb(m, i - k) * comb(m, j - k))
                block[i - k, j - k] = c[i] * c[j] * phase * total / norm
        blocks.append(block)
    return blocks


@functools.lru_cache(maxsize=None)
def _schrijver_weights(n):
    """``(weights, exponents)``: weights[k, i, j, u] = C(n-2k, u-k) C(n-k-u,
    i-u) C(n-k-u, j-u) / sqrt(C(n-2k, i-k) C(n-2k, j-k) C(n, i) C(n, j)) for
    k <= u <= min(i, j), i, j <= n-k, from exact integers, and the powers
    i + j - 2u of p they carry, clipped to 0 where the weight is 0."""
    comb = math.comb
    size = n // 2 + 1
    weights = np.zeros((size, n + 1, n + 1, n + 1))
    for k in range(size):
        m = n - 2 * k
        for i in range(k, n - k + 1):
            for j in range(i, n - k + 1):
                norm = math.sqrt(comb(m, i - k) * comb(m, j - k) * comb(n, i) * comb(n, j))
                for u in range(k, i + 1):
                    r = n - k - u
                    count = comb(m, u - k) * comb(r, i - u) * comb(r, j - u)
                    weights[k, i, j, u] = weights[k, j, i, u] = count / norm
    w = np.arange(n + 1)
    exponents = np.maximum(w[:, None, None] + w[None, :, None] - 2 * w, 0)
    return weights, exponents


def schrijver_channel(n, gamma, ts):
    """The block channel of a dephased n-ion family state and its shot-time
    derivative, each entry summed over u from the four-index table of
    ``_schrijver_weights``: E_k(t)[i, j] = sum_u weights[k, i, j, u]
    p^(i+j-2u) q^u and d/dt [p^(i+j-2u) q^u] = gamma p^(i+j-2u) (2u p^2
    q^(u-1) - (i+j-2u) q^u), with p = exp(-gamma t) and q = 1 - p^2. Shape
    ``np.shape(ts) + (n//2+1, n+1, n+1)`` each."""
    weights, exponents = _schrijver_weights(n)
    levels = np.arange(n + 1)
    p = np.exp(-gamma * np.asarray(ts, dtype=float)[..., None, None, None])
    q = 1.0 - p * p
    decay = p**exponents * q**levels
    rate = gamma * p**exponents * (
        2.0 * levels * p * p * q ** np.maximum(levels - 1, 0) - exponents * q**levels
    )
    return tuple((weights * f[..., None, :, :, :]).sum(-1) for f in (decay, rate))


def full_block_form(n, gamma, ts):
    """``(channel, dchannel, rates, mult)`` of ``evolution._block_form``, with
    the channel's shot-time derivative always built in the same call and by
    the same products, as the block form was built before it deferred the
    derivative: the oracle for the bits of its channel and for the
    contraction of dE/dt that ``evolution._channel_drift`` reads."""
    base, steps, mult = _block_tables(n)[:3]
    levels = np.arange(n + 1)
    t = np.asarray(ts, dtype=float)[..., None, None, None]
    p = np.exp(-gamma * t)
    q = 1.0 - p * p
    gram = base * p**steps
    gram_t = np.swapaxes(gram, -1, -2)
    weighted = gram * q**levels
    drift = (-gamma * steps * weighted) @ gram_t
    dq = 2.0 * gamma * levels * p * p * q ** np.maximum(levels - 1, 0)
    dchannel = drift + np.swapaxes(drift, -1, -2) + (gram * dq) @ gram_t
    return weighted @ gram_t, dchannel, t * (levels - levels[:, None]), mult


def _envelope_matrix(mult, channel, channel_rates2, sld):
    """M = sum_k mult_k (channel_rates2_k ∘ S_k + channel_k ∘ S_k^2): with
    channel E and channel_rates2 = 2 E ∘ D, the matrix of
    F_Q = max_L c^T M(L) c at fixed S = L / i; with dE/dt and
    2 d(E ∘ D)/dt, its shot-time derivative at fixed S."""
    return (mult[:, None, None] * (channel_rates2 * sld + channel * (sld @ sld))).sum(-3)


def matrix_shot_probe(n, gamma, c, t):
    """``(F_Q, dF_Q/dt, M c)`` of the Dicke amplitudes ``c`` at one shot time
    ``t`` > 0 by the matrix route that ``fisher._shot_probe`` contracts away:
    the full dE/dt of ``full_block_form`` and both envelope matrices M and
    dM/dt, each formed entry by entry at the probe's SLD and then
    contracted with c."""
    channel, dchannel, rates, mult = full_block_form(n, gamma, t)
    fq, _, _, eigdata = _block_qfi(c, (channel, rates, mult))
    sld = _sld(*eigdata)
    dm = _envelope_matrix(mult, dchannel, 2.0 * (dchannel * rates + channel * (rates / t)), sld)
    m = _envelope_matrix(mult, channel, 2.0 * channel * rates, sld)
    return fq, c @ dm @ c, m @ c


def permute_qubits(amps, n, perm):
    """Relabel qubits: bit k of the new index is bit perm[k] of the old."""
    out = np.empty_like(amps)
    for x in range(1 << n):
        y = 0
        for k in range(n):
            if (x >> perm[k]) & 1:
                y |= 1 << k
        out[y] = amps[x]
    return out


def master_equation_oracle(rho0, delta, gamma, t, steps):
    """Fixed-step 4th-order integration of the per-ion generator.

    H = delta * sum_k |1><1|_k together with the dephasing dissipator
    (gamma/2) * sum_k (Z_k rho Z_k - rho), from the 2^n x 2^n density matrix
    ``rho0`` for a duration ``t``. Cross-check for ``dense_evolve``; steps >=
    1000 recommended for 1e-8 agreement at gamma*t <= 5.
    """
    if not isinstance(steps, (int, np.integer)) or isinstance(steps, bool) or steps < 1:
        raise ValueError(f"step count must be a positive integer, got {steps!r}")
    n = qubits(rho0)
    h_op = delta * collective_op(PROJ_1, n)
    z_ops = [site_operator(SIGMA_Z, k, n) for k in range(n)]
    half_rate = 0.5 * gamma

    def rhs(rho):
        out = -1j * (h_op @ rho - rho @ h_op)
        for z in z_ops:
            out += half_rate * (z @ rho @ z - rho)
        return out

    rho = np.array(rho0, dtype=complex)
    h = t / steps
    for _ in range(int(steps)):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def grid_oracle_improvement(n, gamma, total_time, method, resolution=1e-2):
    """Brute-force sweep over the coefficient sphere, for n with a
    two-dimensional coefficient vector (n = 2 or 3) only.

    Parametrizes a = (cos theta, sin theta) on a grid of the given angular
    resolution and returns (best_improvement_pct, best_coeffs), the
    coefficients signed so that the first significant one is positive.
    ``method`` is "genramsey" (collective S_x readout at its analytic shot
    time) or "qfi" (optimal measurement at the numerically optimal shot time,
    scored on the dense 2^n density matrix).
    """
    if n // 2 + 1 != 2:
        raise ValueError(f"grid oracle supports a 2-coefficient family (n = 2 or 3), got n={n}")
    if method not in ("genramsey", "qfi"):
        raise ValueError(f"unknown method {method!r}")
    best_value, best_a = math.inf, None
    for theta in np.arange(0.0, math.pi, resolution):
        a = np.array([math.cos(theta), math.sin(theta)])
        psi = family_state(n, a)
        try:
            if method == "genramsey":
                value = genramsey_opt_uncertainty(
                    dense_collective_moments(psi), total_time, gamma
                ).delta_omega
            else:
                _, value = dense_qfi_shot_optimum(psi, gamma, total_time)
        except (DegenerateStateError, BracketingError):
            continue
        if value < best_value:
            best_value, best_a = value, a
    if best_a is None:
        raise OracleError("every grid point was degenerate")
    if best_a[0] < -1e-12:
        best_a = -best_a
    return 100.0 * (1.0 - best_value / reference_limit(n, total_time, gamma)), best_a


def nelder_mead_genramsey(n, gamma, total_time, restarts=16, seed=0):
    """Gen-Ramsey coefficient search by seeded multi-restart Nelder-Mead.

    Each restart starts from a normal vector drawn from a child of
    SeedSequence(seed) and searches unconstrained coordinates, normalized onto
    the unit sphere before scoring at the analytic optimal shot time;
    candidates whose optimal shot exceeds the total time score infinite.
    Returns (best_improvement_pct, best_coeffs).
    """

    def objective(x):
        nrm = float(np.linalg.norm(x))
        if nrm < 1e-12:
            return math.inf
        m0 = collective_moments(SymmetricFamilyState(n, x / nrm))
        try:
            return genramsey_opt_uncertainty(m0, total_time, gamma).delta_omega
        except (ValueError, DegenerateStateError):  # t_opt > T, or no signal
            return math.inf

    best_value, best_x = math.inf, None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        x0 = np.random.default_rng(child).normal(size=n // 2 + 1)
        budget = 400 * x0.size
        with np.errstate(invalid="ignore"):  # inf - inf on an infeasible simplex
            res = minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": budget, "maxfev": budget},
            )
        if res.fun < best_value:
            best_value, best_x = float(res.fun), res.x / np.linalg.norm(res.x)
    if best_x is None:
        raise OracleError("every restart ended in an infeasible candidate")
    return 100.0 * (1.0 - best_value / reference_limit(n, total_time, gamma)), best_x


def nelder_mead_qfi(n, gamma, total_time, restarts=2, seed=0):
    """QFI coefficient search by seeded multi-restart Nelder-Mead.

    Each restart starts from a normal vector drawn from a child of
    SeedSequence(seed) and searches unconstrained coordinates, normalized onto
    the unit sphere and scored by ``qfi_shot_optimum``; the winner's |a| is
    scored again. Returns (best_improvement_pct, best_coeffs).
    """

    def objective(x):
        nrm = float(np.linalg.norm(x))
        if nrm < 1e-12:
            return math.inf
        try:
            return qfi_shot_optimum(SymmetricFamilyState(n, x / nrm), gamma, total_time)[1]
        except NoInformationError:
            return math.inf

    best_value, best_x = math.inf, None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        x0 = np.random.default_rng(child).normal(size=n // 2 + 1)
        budget = 400 * x0.size
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-10, "maxiter": budget, "maxfev": budget},
        )
        if res.fun < best_value:
            best_value, best_x = float(res.fun), np.abs(res.x) / np.linalg.norm(res.x)
    if best_x is None:
        raise OracleError("every restart ended in a degenerate candidate")
    _, value = qfi_shot_optimum(SymmetricFamilyState(n, best_x), gamma, total_time)
    return 100.0 * (1.0 - value / reference_limit(n, total_time, gamma)), best_x


def lbfgsb_polish(n, gamma, a, t, bracket):
    """The QFI polish by scipy's L-BFGS-B: ``(a, t, F_Q, certified, calls)``
    minimizing log t - log F_Q over x = (a, log t) with the envelope gradient
    of ``_qfi_gradient``, log t bounded by ``bracket``, from the unit
    coefficients ``a`` at ``t``; ``calls`` counts the gradient evaluations.
    The stop (factr ``_FACTR``, pgtol 0) and the certificate (projected
    gradient at most ``_GRAD_TOL``, fewer than ``_POLISH_EVALS`` evaluations)
    are those of ``optimize._polish``, which replaced this search."""
    scored = {}  # (objective, F_Q, gradient) of each evaluated x, by its bytes

    def objective(x):
        norm, t = np.sqrt((x[:-1] * x[:-1]).sum()), math.exp(x[-1])
        value, grad_a, grad_t = _qfi_gradient(n, gamma, x[:-1] / norm, t)
        if value >= QFI_FLOOR:
            grad = np.append(-grad_a / (norm * value), 1.0 - t * grad_t / value)
            scored[x.tobytes()] = x[-1] - math.log(value), value, grad
        else:
            scored[x.tobytes()] = math.inf, value, np.zeros_like(x)
        calls.append(1)
        return scored[x.tobytes()][::2]

    calls = []
    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    x0 = np.append(a, math.log(t))
    bounds = [(None, None)] * a.size + [(lo, hi)]
    x, _, info = fmin_l_bfgs_b(
        objective, x0, bounds=bounds, maxfun=_POLISH_EVALS, factr=_FACTR, pgtol=0.0
    )
    f, fq, grad = scored[x.tobytes()]
    if not f <= scored[x0.tobytes()][0]:
        x, (_, fq, grad) = x0, scored[x0.tobytes()]
    log_t = x[-1]
    projected = np.append(grad[:-1], log_t - min(max(log_t - grad[-1], lo), hi))
    certified = np.abs(projected).max() <= _GRAD_TOL and info["funcalls"] < _POLISH_EVALS
    return x[:-1] / np.sqrt((x[:-1] * x[:-1]).sum()), math.exp(log_t), fq, bool(certified), len(calls)
