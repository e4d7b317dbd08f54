"""Analytic boundary barriers and their numerical certification.

The collar barrier is phi(s) = s (s+delta)^(-beta) added to the boundary
data along the radial coordinate of an exterior sphere of radius rho; the
outer comparison function is (C^2 K^2 + 1)^(q/2) t + C (1 - e^(-K(r-rho)))
plus the sup of the boundary data. Admissible parameters are certified by
evaluating, on a fine radial grid over the collar [rho, rho+eta], the
worst-case residuals of every inequality the construction rests on:

  ret    expanded-form supersolution residual with worst-case data norms,
         the diffusivity ratio kappa swept over [0, p-2],
  ing    beta delta (s+delta)^(-beta-2) >= 4^(q-p+3) (s+delta)^(-beta(q-p+2)),
  inegs  beta delta (s+delta)^(-beta-2) >= 4 (p-2+sqrt(N)) |D2 g|,
  jal    phi'(s) >= |grad g|.

`min_residual` is the minimum over all of them; a parameter set is
certified when it is nonnegative for every tested regularization eps.

`find_barrier_params` is the one search for delta; `certify` checks the
parameters it is given. The search admits a parameter set only if, besides
the closed-form invariants, its eps = 0 residuals are nonnegative at the
collar edge s = eta, computed as the certificate computes them. There phi'
is least, so the lower bound phi' - |grad g| of |grad v| is least: where the
`jal` invariant binds it is 0, the degenerate diffusion in `ret` vanishes,
and only the source (2 |grad g|)^q is left.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class NoAdmissibleParams(ValueError):
    """The search for delta left the float range without admissibility. It
    depends only on the parameters asked for, so it is a value error."""


def _check_phi_domain(s, delta: float, beta: float) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("requires s >= 0")
    if not delta > 0:
        raise ValueError("requires delta > 0")
    if not 0 < beta < 1:
        raise ValueError("requires beta in (0, 1)")
    return s


def phi(s, delta: float, beta: float):
    """Increasing concave profile s (s+delta)^(-beta)."""
    s = _check_phi_domain(s, delta, beta)
    return s * np.power(s + delta, -beta)


def phi_prime(s, delta: float, beta: float):
    """[(1-beta) s + delta] (s+delta)^(-beta-1); positive for s >= 0."""
    s = _check_phi_domain(s, delta, beta)
    return ((1.0 - beta) * s + delta) * np.power(s + delta, -beta - 1.0)


def phi_second(s, delta: float, beta: float):
    """-beta [(1-beta) s + 2 delta] (s+delta)^(-beta-2); negative for s >= 0."""
    s = _check_phi_domain(s, delta, beta)
    return -beta * ((1.0 - beta) * s + 2.0 * delta) * np.power(s + delta, -beta - 2.0)


@dataclass(frozen=True)
class BarrierParams:
    """Certified collar-barrier parameters with the data norms they assume.

    Constructed sets are only domain-checked here; the quantitative
    admissibility conditions are evaluated by check_invariants / the
    residual certificates, so deliberately inadmissible sets can be built
    for falsification tests.
    """

    rho: float
    delta: float
    eta: float
    beta: float
    K: float
    C: float
    p: float
    q: float
    N: int
    grad_g: float = 0.0
    hess_g: float = 0.0
    g_sup: float = 0.0
    g_min: float = 0.0
    data_sup: float = 1.0

    def __post_init__(self):
        norms = (self.grad_g, self.hess_g, self.g_sup, self.g_min, self.data_sup)
        if not all(0 <= v < math.inf for v in norms):
            raise ValueError("data norms and g_min must be finite and nonnegative")
        if not (self.rho > 0 and self.delta > 0 and self.eta > 0):
            raise ValueError("rho, delta, eta must be positive")
        if not 0 < self.beta < 1:
            raise ValueError("beta must be in (0, 1)")
        if not (self.K > 0 and self.C > 0):
            raise ValueError("K and C must be positive")
        if not self.q > self.p - 1 > 1:
            raise ValueError("requires q > p - 1 > 1")
        if self.N not in (1, 2, 3):
            raise ValueError("N must be 1, 2 or 3")

    def scaled_delta(self, factor: float) -> "BarrierParams":
        """Same parameters with delta (and the tied collar width) scaled."""
        return replace(self, delta=self.delta * factor, eta=self.eta * factor)


def beta_exponent(p: float, q: float) -> float:
    return 1.0 / (2.0 * (q - p + 2.0))


def check_invariants(params: BarrierParams) -> dict[str, float]:
    """Signed margins of the admissibility conditions (>= 0 means satisfied)."""
    p, q, N = params.p, params.q, params.N
    d, e, b, rho = params.delta, params.eta, params.beta, params.rho
    margins = {
        "beta_formula": -abs(b - beta_exponent(p, q)),
        "ing_closed_form": 4.0 ** (p - q - 4.0) * b - d ** ((q - p + 3.0) / (2.0 * (q - p + 2.0))),
        "k_rate": params.K - (N + p - 3.0) / rho,
        "jal": ((1.0 - b) * e + d) * (e + d) ** (-b - 1.0) - params.grad_g,  # phi'(eta)
        "inegs": b * d * (e + d) ** (-b - 2.0) - 4.0 * (p - 2.0 + math.sqrt(N)) * params.hess_g,
        "aux_scale": 4.0 * (e + d) ** (-2.0 * b) - 1.0,
        "aux_curv": b * d - max(N + p - 3.0, 0.0) * (e + d) ** 2 / rho,
    }
    return margins


def is_admissible(params: BarrierParams) -> bool:
    """The invariants hold (`k_rate` strictly) and the certificate's eps = 0
    residuals are nonnegative at the collar edge."""
    m = check_invariants(params)
    strict = m["k_rate"] > 0
    return (strict and all(v >= 0 for k, v in m.items() if k != "k_rate")
            and all(r[0] >= 0 for r in _residuals(params, np.array([params.eta]), 0.0)))


def _largest_admissible_delta(make, hi: float) -> float:
    """Largest delta <= hi whose make(delta) is admissible, to the last ulp:
    halve from hi to the first admissible lo, then bisect [lo, min(2 lo, hi)]
    until its ends are adjacent floats (the halving found 2 lo inadmissible).
    Shrinking an admissible delta preserves admissibility, so the bisection
    is sound. Raises OverflowError when a power of delta leaves the float
    range or lo reaches the float floor first."""
    lo = hi
    while not is_admissible(make(lo)):
        lo *= 0.5
        if lo < 1e-300:  # the float floor: the next powers of delta overflow
            raise OverflowError
    hi = min(2.0 * lo, hi)
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if is_admissible(make(mid)):
            lo = mid
        else:
            hi = mid
    return lo


def find_barrier_params(
    p: float,
    q: float,
    N: int,
    rho: float,
    g_norms: tuple[float, float, float] = (0.0, 0.0, 0.0),
    g_min: float = 0.0,
    data_sup: float = 1.0,
) -> BarrierParams:
    """Admissible (delta=eta, beta, K, C) for the collar construction.

    beta is pinned to 1/(2(q-p+2)); delta is the largest admissible value
    up to rho, to the last ulp (the constraint set is monotone: shrinking an
    admissible delta preserves admissibility). K exceeds the rate floor
    (N+p-3)/rho; C dominates the initial data: bounded by data_sup overall
    and Lipschitz near the contact point with constant data_sup.

    g_norms is (|grad g|_inf, |D2 g|_inf, |g|_inf). Raises NoAdmissibleParams
    when no delta is admissible before the search leaves the float range.
    """
    if not math.inf > q > p - 1 > 1:
        raise ValueError("requires finite q > p - 1 > 1")
    if not 0 < rho < math.inf:
        raise ValueError("requires a finite rho > 0")
    grad_g, hess_g, g_sup = (float(v) for v in g_norms)
    beta = beta_exponent(p, q)
    K = max((N + p - 3.0) / rho, 0.0) + 1.0
    C = max(data_sup, data_sup * rho) / (1.0 - math.exp(-K * rho))

    def make(delta: float) -> BarrierParams:
        return BarrierParams(
            rho=rho, delta=delta, eta=delta, beta=beta, K=K, C=C,
            p=p, q=q, N=N, grad_g=grad_g, hess_g=hess_g, g_sup=g_sup,
            g_min=g_min, data_sup=data_sup,
        )

    try:
        return make(_largest_admissible_delta(make, rho))
    except OverflowError:
        raise NoAdmissibleParams(
            f"no admissible delta within the float range for p={p}, q={q}, N={N}"
        ) from None


def _kappas(p: float) -> tuple[float, ...]:
    # endpoints + midpoint of the admissible diffusivity-ratio range [0, p-2]
    return tuple(f * (p - 2.0) for f in (0.0, 0.5, 1.0))


@dataclass(frozen=True)
class SupersolutionCertificate:
    min_residual: float
    ret_min: float
    ing_min: float
    inegs_min: float
    jal_min: float
    per_kappa: dict
    certified: bool


def certify_sampling(eps_values, n_radial: int) -> list[float]:
    """The eps values of a certification as floats, checked together with
    its radial sample count: at least one eps, every eps in [0, 1], at least
    2 radial points."""
    eps = [float(e) for e in eps_values]
    if n_radial < 2:
        raise ValueError("need at least 2 radial points")
    if not eps:
        raise ValueError("need at least one eps value")
    if not all(0.0 <= e <= 1.0 for e in eps):
        raise ValueError("requires eps in [0, 1]")
    return eps


def _residuals(params: BarrierParams, s: np.ndarray, eps: float) -> list[np.ndarray]:
    """The residuals of the module docstring at the collar offsets s: `ret`
    for each kappa of the sweep, then `ing`, `inegs` and `jal`. `ret` uses
    the radial identities for phi(r-rho), the worst-case data-norm bounds
    (|grad v| between phi' -/+ |grad g|, Laplacian contribution of g bounded
    by sqrt(N) |D2 g|), and sweeps the diffusivity ratio kappa over the
    endpoints and midpoint of [0, p-2]. Every residual is elementwise in s."""
    p, q, N = params.p, params.q, params.N
    d, b, rho = params.delta, params.beta, params.rho
    fp = phi_prime(s, d, b)
    fpp = phi_second(s, d, b)
    w_hi = fp + params.grad_g
    w_lo = np.maximum(fp - params.grad_g, 0.0)
    rhs = np.power(w_hi * w_hi + eps, q / 2.0) - eps ** (q / 2.0)
    sqrt_n = math.sqrt(N)
    residuals = []
    for kappa in _kappas(p):
        bracket = (
            -fpp
            - ((N - 1.0 + kappa) / rho) * fp
            - sqrt_n * params.hess_g
            - kappa * params.hess_g
        )
        w_pick = np.where(bracket >= 0, w_lo, w_hi)
        diff = np.power(w_pick * w_pick + eps, (p - 2.0) / 2.0) * bracket
        residuals.append(diff - rhs)
    base = b * d * np.power(s + d, -b - 2.0)
    ing = base - 4.0 ** (q - p + 3.0) * np.power(s + d, -b * (q - p + 2.0))
    inegs = base - 4.0 * (p - 2.0 + sqrt_n) * params.hess_g
    return residuals + [ing, inegs, fp - params.grad_g]


def supersolution_residual(
    params: BarrierParams, eps: float, n_radial: int = 10000
) -> SupersolutionCertificate:
    """Worst-case residuals of the collar supersolution on [rho, rho+eta]:
    the minimum of each of `_residuals` over n_radial offsets from 0 to eta."""
    certify_sampling((eps,), n_radial)
    s = np.linspace(0.0, params.eta, n_radial)
    *ret, ing, inegs, jal = _residuals(params, s, eps)

    per_kappa = {kappa: float(np.min(res)) for kappa, res in zip(_kappas(params.p), ret)}
    ret_min = min(per_kappa.values())
    ing_min = float(np.min(ing))
    inegs_min = float(np.min(inegs))
    jal_min = float(np.min(jal))
    min_residual = min(ret_min, ing_min, inegs_min, jal_min)
    return SupersolutionCertificate(
        min_residual=min_residual,
        ret_min=ret_min,
        ing_min=ing_min,
        inegs_min=inegs_min,
        jal_min=jal_min,
        per_kappa=per_kappa,
        certified=min_residual >= 0.0,
    )


@dataclass(frozen=True)
class ExpBarrierCertificate:
    min_residual: float
    min_diffusion_term: float
    k_condition_ok: bool
    certified: bool


def exp_barrier_residual(
    C: float,
    K: float,
    rho: float,
    p: float,
    q: float,
    N: int,
    eps: float,
    n_radial: int = 10000,
) -> ExpBarrierCertificate:
    """Residual of (C^2 K^2 + 1)^(q/2) t + C (1 - e^(-K(r-rho))) + |g|_inf.

    The profile is affine in time and |g|_inf enters additively, so the
    residual depends on neither. Evaluated on r in [rho, 2 rho] with the
    kappa sweep; reports the minimum residual and the minimum of the
    diffusion term, whose sign is what K > (N+p-3)/rho guarantees.
    """
    if not (C > 0 and K > 0 and rho > 0):
        raise ValueError("C, K, rho must be positive")
    if eps < 0:
        raise ValueError("requires eps >= 0")
    r = np.linspace(rho, 2.0 * rho, n_radial)
    s = r - rho
    psi_p = C * K * np.exp(-K * s)
    psi_pp = -C * K * K * np.exp(-K * s)
    time_term = (C * C * K * K + 1.0) ** (q / 2.0)
    source = np.power(psi_p * psi_p + eps, q / 2.0) - eps ** (q / 2.0)

    min_res = math.inf
    min_diff = math.inf
    for kappa in _kappas(p):
        bracket = (1.0 + kappa) * (-psi_pp) - (N - 1.0) * psi_p / r
        diff = np.power(psi_p * psi_p + eps, (p - 2.0) / 2.0) * bracket
        min_diff = min(min_diff, float(np.min(diff)))
        res = time_term + diff - source
        min_res = min(min_res, float(np.min(res)))

    k_ok = K > (N + p - 3.0) / rho
    return ExpBarrierCertificate(
        min_residual=min_res,
        min_diffusion_term=min_diff,
        k_condition_ok=k_ok,
        certified=min_res >= 0.0 and k_ok,
    )


def collar_lipschitz_bound(params: BarrierParams) -> float:
    """sup of phi' over the collar plus |grad g|: delta^(-beta) + |grad g|."""
    return params.delta ** (-params.beta) + params.grad_g


def t0_window(params: BarrierParams) -> float:
    """Largest T0 keeping the outer comparison below the collar barrier at
    the collar edge: (C^2K^2+1)^(q/2) T0 + C(1-e^(-K eta)) + |g|_inf
    <= 2^(-beta) eta^(1-beta) + min g."""
    edge = 2.0 ** (-params.beta) * params.eta ** (1.0 - params.beta)
    room = edge + params.g_min - params.C * (1.0 - math.exp(-params.K * params.eta)) - params.g_sup
    return max(0.0, room / (params.C**2 * params.K**2 + 1.0) ** (params.q / 2.0))


def certify(
    params: BarrierParams, eps_values=(0.0, 1e-3, 1e-1, 1.0), n_radial: int = 10000
) -> dict:
    """Certification report of the parameters as given (it searches no
    delta): their invariant margins, per-inequality minimum residuals for
    each eps, the Lipschitz bound and the T0 window. Certified when every
    residual is nonnegative and the parameters are admissible.
    `certify_sampling` checks eps_values and n_radial."""
    eps_values = certify_sampling(eps_values, n_radial)
    sup_reports = {}
    exp_reports = {}
    all_ok = True
    for eps in eps_values:
        cert = supersolution_residual(params, eps, n_radial)
        sup_reports[repr(float(eps))] = {
            "min_residual": cert.min_residual,
            "ret_min": cert.ret_min,
            "ing_min": cert.ing_min,
            "inegs_min": cert.inegs_min,
            "jal_min": cert.jal_min,
            "per_kappa": {repr(float(k)): v for k, v in cert.per_kappa.items()},
        }
        ecert = exp_barrier_residual(
            params.C, params.K, params.rho, params.p, params.q, params.N,
            eps, n_radial=n_radial,
        )
        exp_reports[repr(float(eps))] = {
            "min_residual": ecert.min_residual,
            "min_diffusion_term": ecert.min_diffusion_term,
            "k_condition_ok": ecert.k_condition_ok,
        }
        all_ok = all_ok and cert.certified and ecert.certified

    return {
        "params": {
            "rho": params.rho, "delta": params.delta, "eta": params.eta,
            "beta": params.beta, "K": params.K, "C": params.C,
            "p": params.p, "q": params.q, "N": params.N,
            "grad_g": params.grad_g, "hess_g": params.hess_g,
            "g_sup": params.g_sup,
        },
        "invariant_margins": check_invariants(params),
        "collar_lipschitz_bound": collar_lipschitz_bound(params),
        "t0_window": t0_window(params),
        "supersolution": sup_reports,
        "exp_barrier": exp_reports,
        "certified": bool(all_ok and is_admissible(params)),
    }
