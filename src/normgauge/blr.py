"""Warped Bayesian linear regression per region, fit by evidence maximization.

Model for one region: the warped response z = f(y) follows

    z = w^T phi(x) + e,   e ~ N(0, 1/beta),   w ~ N(0, I/alpha)

with f the sinh-arcsinh warp. Hyperparameters theta = (log_alpha, log_beta,
epsilon, log_delta) are chosen by minimizing the negative log marginal
likelihood (evidence)

    NLL(theta) = E(m) + 1/2 log|A| + N/2 log(2 pi)
                 - M/2 log(alpha) - N/2 log(beta) - sum_i log f'(y_i)

where A = alpha I + beta Phi^T Phi is the posterior precision,
m = beta A^{-1} Phi^T z the posterior mean, and
E(m) = beta/2 ||z - Phi m||^2 + alpha/2 m^T m. Gradients are analytic; the
terms through m's dependence on theta vanish because m minimizes E
(envelope theorem), leaving

    dNLL/dlog(alpha) = -M/2 + alpha/2 (m^T m + tr A^{-1})
    dNLL/dlog(beta)  = -N/2 + beta/2 (||r||^2 + tr(A^{-1} Phi^T Phi))
    dNLL/deps        = -beta sum_i r_i cosh(u_i) + sum_i tanh(u_i)
    dNLL/dlog(delta) = beta delta sum_i r_i cosh(u_i) asinh(y_i)
                       - sum_i (1 + delta asinh(y_i) tanh(u_i))

with r = z - Phi m and u = delta asinh(y) - eps.

The fit works in the eigenbasis of G = Phi^T Phi = U diag(s) U^T, computed
once per design with s clipped at 0. There A = U diag(alpha + beta s) U^T,
so log|A|, tr A^{-1} and m need no factorization, and A stays positive
definite even when round-off leaves a rank-deficient G with a tiny negative
eigenvalue. With gamma = sum_j beta s_j / (alpha + beta s_j) the first two
gradients read (alpha m^T m - gamma)/2 and (beta ||r||^2 - (N - gamma))/2.

Each region is fitted twice and keeps whichever reaches the lower NLL, so
the warped model never loses to the plain Gaussian one:

- with the warp pinned to identity, by MacKay's fixed point
  alpha <- gamma / m^T m, beta <- (N - gamma) / ||r||^2 (MacKay 1992,
  "Bayesian Interpolation"), run for all regions of a design at once;
- with all four hyperparameters free, by L-BFGS-B, one region at a time.

The warped fit must beat the identity fit by more than a margin (see
_warp_engagement_margin) before it is kept. _EvidenceProblem evaluates the
same evidence through a Cholesky factor of A; it is the reference that the
public neg_log_evidence functions expose.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import linalg as sla
from scipy.optimize import minimize

from ._version import __version__
from .cohort import Cohort
from .design import DesignMatrix, DesignSchema, ModelConfig, apply_design, fit_design
from .errors import InputError, NumericalError, SchemaError
from .serialize import dump_json, load_json
from .warp import WarpParams, warp_forward, warp_inverse

log = logging.getLogger(__name__)

LN_2PI = float(np.log(2.0 * np.pi))

# box constraints keeping the evidence finite during optimization
_BOUNDS_FREE = ((-20.0, 20.0), (-20.0, 20.0), (-5.0, 5.0), (-3.0, 3.0))
_PENALTY = 1e300


@dataclass(frozen=True)
class Hyperparams:
    """Evidence-optimized quantities: precisions on log scale plus the warp."""

    log_alpha: float = 0.0
    log_beta: float = 0.0
    warp: WarpParams = field(default_factory=WarpParams)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    @property
    def beta(self) -> float:
        return float(np.exp(self.log_beta))

    def to_vector(self) -> np.ndarray:
        return np.array(
            [self.log_alpha, self.log_beta, self.warp.epsilon, self.warp.log_delta]
        )

    @classmethod
    def from_vector(cls, theta: np.ndarray) -> "Hyperparams":
        return cls(
            log_alpha=float(theta[0]),
            log_beta=float(theta[1]),
            warp=WarpParams(epsilon=float(theta[2]), log_delta=float(theta[3])),
        )

    def to_dict(self) -> dict:
        return {
            "log_alpha": float(self.log_alpha),
            "log_beta": float(self.log_beta),
            "warp": self.warp.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        return cls(
            log_alpha=float(d["log_alpha"]),
            log_beta=float(d["log_beta"]),
            warp=WarpParams.from_dict(d["warp"]),
        )


@dataclass(frozen=True)
class OptimizerSettings:
    """Stopping rules of both fits, in L-BFGS-B's terms.

    A run stops once one iteration changes the NLL by at most `tol` relative
    to max(|NLL|, 1), once no projected-gradient component exceeds
    `grad_tol`, or after `max_iter` iterations. L-BFGS-B only ever lowers
    the NLL; the fixed point keeps iterating after a larger rise.
    """

    tol: float = 1e-6
    grad_tol: float = 1e-6
    max_iter: int = 500


@dataclass
class _EvidenceState:
    """Posterior and evidence pieces at one hyperparameter setting."""

    z: np.ndarray
    m: np.ndarray
    chol: np.ndarray
    residual: np.ndarray
    rss: float
    nll: float


class _EvidenceProblem:
    """Reference evidence of one region through a Cholesky factor of A.

    The fit itself uses the spectral engine below; this class backs the
    public neg_log_evidence functions and the tests that check the engine.
    """

    def __init__(self, phi: np.ndarray, y: np.ndarray):
        self.phi = np.asarray(phi, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.phi.ndim != 2 or self.y.ndim != 1:
            raise InputError("design must be 2-d and responses 1-d")
        if self.phi.shape[0] != self.y.shape[0]:
            raise SchemaError(
                f"design has {self.phi.shape[0]} rows but responses have {self.y.shape[0]}"
            )
        self.n, self.m_dim = self.phi.shape
        self.gram = self.phi.T @ self.phi
        self.asinh_y = np.arcsinh(self.y)
        self.log1p_y2 = np.log1p(np.square(self.y))
        self.eye = np.eye(self.m_dim)

    def _warp_pieces(self, eps: float, log_delta: float):
        if eps == 0.0 and log_delta == 0.0:
            return self.y.copy(), 0.0
        delta = np.exp(log_delta)
        u = delta * self.asinh_y - eps
        z = np.sinh(u)
        log_cosh = np.logaddexp(u, -u) - np.log(2.0)
        log_jac = log_delta + log_cosh - 0.5 * self.log1p_y2
        return z, float(np.sum(log_jac))

    def state(self, h: Hyperparams) -> _EvidenceState:
        alpha, beta = h.alpha, h.beta
        z, log_jac_sum = self._warp_pieces(h.warp.epsilon, h.warp.log_delta)
        a_mat = alpha * self.eye + beta * self.gram
        try:
            chol = sla.cholesky(a_mat, lower=True)
        except sla.LinAlgError:
            raise NumericalError(
                f"posterior precision not positive definite "
                f"(alpha={alpha:.3g}, beta={beta:.3g}, "
                f"cond={np.linalg.cond(a_mat):.3g})"
            ) from None
        m = beta * sla.cho_solve((chol, True), self.phi.T @ z)
        residual = z - self.phi @ m
        rss = float(residual @ residual)
        e_m = 0.5 * (beta * rss + alpha * float(m @ m))
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        nll = (
            e_m
            + 0.5 * logdet
            + 0.5 * self.n * LN_2PI
            - 0.5 * self.m_dim * h.log_alpha
            - 0.5 * self.n * h.log_beta
            - log_jac_sum
        )
        return _EvidenceState(
            z=z, m=m, chol=chol, residual=residual, rss=rss, nll=float(nll)
        )

    def _grad(self, h: Hyperparams, st: _EvidenceState) -> np.ndarray:
        alpha, beta = h.alpha, h.beta
        a_inv = sla.cho_solve((st.chol, True), self.eye)
        tr_a_inv = float(np.trace(a_inv))
        tr_a_inv_gram = float(np.sum(a_inv * self.gram))
        d_log_alpha = -0.5 * self.m_dim + 0.5 * alpha * (float(st.m @ st.m) + tr_a_inv)
        d_log_beta = -0.5 * self.n + 0.5 * beta * (st.rss + tr_a_inv_gram)

        eps, log_delta = h.warp.epsilon, h.warp.log_delta
        delta = np.exp(log_delta)
        u = delta * self.asinh_y - eps
        cosh_u = np.cosh(u)
        tanh_u = np.tanh(u)
        d_eps = -beta * float(st.residual @ cosh_u) + float(np.sum(tanh_u))
        d_log_delta = beta * delta * float(
            st.residual @ (cosh_u * self.asinh_y)
        ) - float(np.sum(1.0 + delta * self.asinh_y * tanh_u))
        return np.array([d_log_alpha, d_log_beta, d_eps, d_log_delta])


def neg_log_evidence(phi: np.ndarray, y: np.ndarray, h: Hyperparams) -> float:
    """Negative log marginal likelihood of one region's data."""
    return _EvidenceProblem(phi, y).state(h).nll


def neg_log_evidence_grad(phi: np.ndarray, y: np.ndarray, h: Hyperparams) -> np.ndarray:
    """Analytic gradient wrt (log_alpha, log_beta, epsilon, log_delta)."""
    problem = _EvidenceProblem(phi, y)
    st = problem.state(h)
    return problem._grad(h, st)


@dataclass(eq=False)
class RegionModel:
    """Fitted posterior for one region; chol_precision is lower-Cholesky of A.

    fit_region documents how `converged` and `nll_path` are set. Only the
    fields written by to_dict survive a bundle round trip.
    """

    region: str
    weights: np.ndarray
    chol_precision: np.ndarray
    hyperparams: Hyperparams
    train_z_mean: float
    train_z_var: float
    n_train: int
    converged: bool = True
    nll: float = float("nan")
    nll_identity: float = field(default=float("nan"), repr=False)
    nll_path: tuple[float, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "region": self.region,
            "weights": [float(v) for v in self.weights],
            "chol_precision": [[float(v) for v in row] for row in self.chol_precision],
            "hyperparams": self.hyperparams.to_dict(),
            "train_z_mean": float(self.train_z_mean),
            "train_z_var": float(self.train_z_var),
            "n_train": int(self.n_train),
            "converged": bool(self.converged),
            "nll": float(self.nll),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegionModel":
        return cls(
            region=d["region"],
            weights=np.asarray(d["weights"], dtype=float),
            chol_precision=np.asarray(d["chol_precision"], dtype=float),
            hyperparams=Hyperparams.from_dict(d["hyperparams"]),
            train_z_mean=float(d["train_z_mean"]),
            train_z_var=float(d["train_z_var"]),
            n_train=int(d["n_train"]),
            converged=bool(d["converged"]),
            nll=float(d["nll"]),
        )


@dataclass(frozen=True)
class _Spectrum:
    """Eigenbasis of G = Phi^T Phi, shared by every region fitted on one design."""

    s: np.ndarray  # (M,) eigenvalues of G, clipped at 0
    u: np.ndarray  # (M, M) eigenvectors as columns
    phi_u: np.ndarray  # (N, M) the design in the eigenbasis, Phi U

    @classmethod
    def of(cls, phi: np.ndarray) -> "_Spectrum":
        s, u = np.linalg.eigh(phi.T @ phi)
        return cls(s=np.maximum(s, 0.0), u=u, phi_u=phi @ u)


@dataclass
class _SpectralState:
    """Identity-warp evidence pieces of D regions at once, one row per region.

    nll leaves out the warp's Jacobian term; grad is (d/dlog_alpha,
    d/dlog_beta). weights is the posterior mean in the eigenbasis (U^T m) and
    lam the eigenvalues of A.
    """

    nll: np.ndarray  # (D,)
    grad: np.ndarray  # (D, 2)
    weights: np.ndarray  # (D, M)
    lam: np.ndarray  # (D, M)
    residual: np.ndarray  # (D, N)
    rss: np.ndarray  # (D,)
    ww: np.ndarray  # (D,) m^T m
    gamma: np.ndarray  # (D,) effective number of weights
    log_det: np.ndarray  # (D,) log|A|


def _spectral_state(
    spectrum: _Spectrum, z: np.ndarray, log_alpha: np.ndarray, log_beta: np.ndarray
) -> _SpectralState:
    """Evidence of the latent rows z (D, N) at per-row (log_alpha, log_beta)."""
    n, m_dim = spectrum.phi_u.shape
    alpha = np.exp(log_alpha)[:, None]
    beta = np.exp(log_beta)[:, None]
    lam = alpha + beta * spectrum.s
    weights = beta * (z @ spectrum.phi_u) / lam
    residual = z - weights @ spectrum.phi_u.T
    rss = np.einsum("dn,dn->d", residual, residual)
    ww = np.einsum("dm,dm->d", weights, weights)
    gamma = np.einsum("dm->d", beta * spectrum.s / lam)
    log_det = np.einsum("dm->d", np.log(lam))
    alpha, beta = alpha[:, 0], beta[:, 0]
    nll = (
        0.5 * (beta * rss + alpha * ww)
        + 0.5 * log_det
        + 0.5 * n * LN_2PI
        - 0.5 * m_dim * log_alpha
        - 0.5 * n * log_beta
    )
    grad = np.column_stack(
        [0.5 * (alpha * ww - gamma), 0.5 * (beta * rss - (n - gamma))]
    )
    return _SpectralState(
        nll=nll,
        grad=grad,
        weights=weights,
        lam=lam,
        residual=residual,
        rss=rss,
        ww=ww,
        gamma=gamma,
        log_det=log_det,
    )


def _projected_gradient(x: np.ndarray, grad: np.ndarray, bounds) -> np.ndarray:
    """Zero the components that point out of the box at an active bound."""
    lo, hi = np.asarray(bounds, dtype=float).T
    blocked = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
    return np.where(blocked, 0.0, grad)


# A projected gradient above this many nats per observation is far from
# stationary: on log(beta) it means a 20% error in the noise variance. Runs
# that stall near their start point end at 0.4-2 per observation; L-BFGS-B
# stops by its `tol` rule below 0.03 on well-behaved regions.
_STATIONARY_GRAD_PER_OBS = 0.1


def _warp_engagement_margin(
    spectrum: _Spectrum, state: _SpectralState, log_alpha: np.ndarray
) -> np.ndarray:
    """Evidence gain the free warp must clear before it replaces the identity fit.

    With epsilon and delta free, the warp can absorb the identity solution's
    location and scale outright: the weights shrink to zero and the refit
    recovers the weight-complexity part of the evidence without changing the
    fitted distribution of y. That bookkeeping gain is bounded by the identity
    fit's own complexity term, 0.5*ln|A| - (M/2)*ln(alpha), plus the prior
    shrinkage cost of about half the effective weight count,
    M - alpha tr A^{-1} = gamma. Requiring the free fit to beat the identity
    fit by more than that (plus a flat 3 nat allowance for two shape
    parameters chasing sample moments) keeps the warp disengaged on Gaussian
    data while leaving genuinely skewed responses, whose gain grows linearly
    with N, far above the bar. Evaluated for every row of `state` at once.
    """
    complexity = 0.5 * state.log_det - 0.5 * spectrum.s.size * log_alpha
    return complexity + 0.5 * state.gamma + 3.0


def _fit_identity(
    spectrum: _Spectrum, y: np.ndarray, x0: np.ndarray, opts: OptimizerSettings
) -> tuple[np.ndarray, _SpectralState, np.ndarray, list[list[float]]]:
    """Identity-warp fits of the rows of y (D, N) by MacKay's fixed point.

    Each iteration sets alpha = gamma / m^T m and beta = (N - gamma) / ||r||^2
    for every region still running, clipped to the box; both updates are
    where the evidence gradient vanishes. A region stops under the rules of
    `opts`. Returns (log_alpha, log_beta) per row, the final state, whether
    each row stopped before max_iter, and each row's NLL per iterate.
    """
    bounds = _BOUNDS_FREE[:2]
    lo, hi = np.asarray(bounds, dtype=float).T
    n = spectrum.phi_u.shape[0]
    theta = np.clip(x0, lo, hi)
    state = _spectral_state(spectrum, y, theta[:, 0], theta[:, 1])
    paths = [[f] for f in state.nll.tolist()]
    running = np.ones(y.shape[0], dtype=bool)
    for _ in range(opts.max_iter):
        if not running.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            target = np.log(
                np.column_stack([state.gamma / state.ww, (n - state.gamma) / state.rss])
            )
        theta = np.where(running[:, None], np.clip(target, lo, hi), theta)
        new = _spectral_state(spectrum, y, theta[:, 0], theta[:, 1])
        scale = np.maximum(np.maximum(np.abs(state.nll), np.abs(new.nll)), 1.0)
        pg = _projected_gradient(theta, new.grad, bounds)
        done = (np.abs(state.nll - new.nll) <= opts.tol * scale) | (
            np.max(np.abs(pg), axis=1) <= opts.grad_tol
        )
        for d in np.flatnonzero(running):
            paths[d].append(float(new.nll[d]))
        running &= ~done
        state = new
    return theta, state, ~running, paths


class _WarpedEvidence:
    """Evidence and gradient of one region over all four hyperparameters.

    Each evaluation warps y and scores it with _spectral_state as a single
    row: two matrix-vector products, no factorization. Every evaluation that
    lowers the best NLL so far is appended to `path`.
    """

    def __init__(self, spectrum: _Spectrum, y: np.ndarray):
        self.spectrum = spectrum
        self.asinh_y = np.arcsinh(y)
        self.half_log1p_y2 = 0.5 * float(np.sum(np.log1p(np.square(y))))
        self.path: list[float] = []

    def evaluate(self, theta: np.ndarray):
        """(state, z, cosh(u), NLL) at theta; overflow yields non-finite values."""
        log_delta = float(theta[3])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u = np.exp(log_delta) * self.asinh_y - float(theta[2])
            exp_u = np.exp(u)
            exp_neg_u = 1.0 / exp_u
            z = 0.5 * (exp_u - exp_neg_u)
            cosh_u = 0.5 * (exp_u + exp_neg_u)
            log_jac = (
                z.size * log_delta + float(np.sum(np.log(cosh_u))) - self.half_log1p_y2
            )
            state = _spectral_state(
                self.spectrum, z[None, :], theta[0:1], theta[1:2]
            )
            nll = float(state.nll[0]) - log_jac
        return state, z, cosh_u, nll

    def value_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        state, z, cosh_u, nll = self.evaluate(theta)
        beta, delta = float(np.exp(theta[1])), float(np.exp(theta[3]))
        with np.errstate(over="ignore", invalid="ignore"):
            r_cosh = state.residual[0] * cosh_u
            tanh_u = z / cosh_u
            d_eps = -beta * float(np.sum(r_cosh)) + float(np.sum(tanh_u))
            d_log_delta = (
                beta * delta * float(r_cosh @ self.asinh_y)
                - z.size
                - delta * float(self.asinh_y @ tanh_u)
            )
        grad = np.array([state.grad[0, 0], state.grad[0, 1], d_eps, d_log_delta])
        if not (np.isfinite(nll) and np.all(np.isfinite(grad))):
            return _PENALTY, np.zeros(4)
        if not self.path or nll < self.path[-1]:
            self.path.append(nll)
        return nll, grad


def _precision_cholesky(spectrum: _Spectrum, lam: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A = U diag(lam) U^T, from a QR of diag(sqrt lam) U^T.

    A = R^T R for the QR's R, so R^T with its diagonal made positive is the
    factor; unlike a Cholesky of the assembled A it cannot fail when A is
    badly conditioned.
    """
    r = np.linalg.qr(np.sqrt(lam)[:, None] * spectrum.u.T, mode="r")
    return (r * np.sign(np.diag(r))[:, None]).T


def _fit_regions(
    phi: np.ndarray,
    responses: np.ndarray,
    regions: Sequence[str],
    opts: OptimizerSettings,
    init: Hyperparams | None = None,
) -> tuple[RegionModel, ...]:
    """Fit each column of responses (N, D) on the design phi (N, M); see fit_region."""
    n = responses.shape[0]
    if phi.shape[0] != n:
        raise SchemaError(f"design has {phi.shape[0]} rows but responses have {n}")
    y_rows = np.ascontiguousarray(responses.T)
    for region, y in zip(regions, y_rows):
        if n < 2:
            raise InputError(f"region '{region}': need at least 2 observations")
        if float(np.ptp(y)) == 0.0:
            raise InputError(f"region '{region}': constant response cannot be fit")
    spectrum = _Spectrum.of(phi)

    if init is not None:
        x0 = np.tile(init.to_vector(), (len(regions), 1))
    else:
        x0 = np.zeros((len(regions), 4))
        x0[:, 1] = -np.log(np.var(y_rows, axis=1))
    theta_id, state, met, paths = _fit_identity(spectrum, y_rows, x0[:, :2], opts)
    margin = _warp_engagement_margin(spectrum, state, theta_id[:, 0])
    pg_id = np.max(
        np.abs(_projected_gradient(theta_id, state.grad, _BOUNDS_FREE[:2])), axis=1
    )
    stationary = _STATIONARY_GRAD_PER_OBS * n

    models = []
    for d, region in enumerate(regions):
        problem = _WarpedEvidence(spectrum, y_rows[d])
        res = minimize(
            problem.value_and_grad,
            x0[d],
            jac=True,
            method="L-BFGS-B",
            bounds=_BOUNDS_FREE,
            options={"maxiter": opts.max_iter, "ftol": opts.tol, "gtol": opts.grad_tol},
        )
        if res.fun < state.nll[d] - margin[d]:
            free, z, _, nll = problem.evaluate(res.x)
            theta, weights, lam, path = res.x, free.weights[0], free.lam[0], problem.path
            pg = np.max(np.abs(_projected_gradient(res.x, res.jac, _BOUNDS_FREE)))
            converged = bool(res.success and pg <= stationary)
            reason = str(res.message)
        else:
            # exact identity warp on fallback
            theta = np.array([theta_id[d, 0], theta_id[d, 1], 0.0, 0.0])
            z, nll = y_rows[d], float(state.nll[d])
            weights, lam, path = state.weights[d], state.lam[d], paths[d]
            pg = pg_id[d]
            converged = bool(met[d] and pg <= stationary)
            reason = "fixed point " + ("met its tolerance" if met[d] else "hit max_iter")
        if not converged:
            log.warning(
                "region '%s': evidence optimization stopped without convergence "
                "(%s; projected gradient %.3g)",
                region,
                reason,
                pg,
            )
        models.append(
            RegionModel(
                region=region,
                weights=spectrum.u @ weights,
                chol_precision=_precision_cholesky(spectrum, lam),
                hyperparams=Hyperparams.from_vector(theta),
                train_z_mean=float(np.mean(z)),
                train_z_var=float(np.var(z)),
                n_train=n,
                converged=converged,
                nll=nll,
                nll_identity=float(state.nll[d]),
                nll_path=tuple(path),
            )
        )
    return tuple(models)


def fit_region(
    phi: np.ndarray,
    y: np.ndarray,
    region: str = "region",
    init: Hyperparams | None = None,
    opts: OptimizerSettings | None = None,
) -> RegionModel:
    """Fit one region by evidence minimization with an identity-warp fallback.

    Both fits start at log_alpha = 0, log_beta = -log Var(y) and the identity
    warp, unless `init` overrides it. The identity fit runs MacKay's fixed
    point on (log_alpha, log_beta); the free fit runs L-BFGS-B on all four
    hyperparameters. The free fit wins only when it beats the identity
    optimum by more than the reparametrization margin (see
    _warp_engagement_margin); otherwise the identity solution is returned.

    `converged` is True only if the chosen fit met its stopping rule (for
    L-BFGS-B, scipy's success flag) and its largest projected-gradient
    component is at most 0.1 nat per observation. `nll_path` is the chosen
    fit's descent: the NLL of each fixed-point iterate, or each L-BFGS-B
    evaluation that lowered the best NLL so far. This is the one-region case
    of the batched engine behind fit_normative.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or y.ndim != 1:
        raise InputError("design must be 2-d and responses 1-d")
    return _fit_regions(
        phi, y[:, None], (region,), opts or OptimizerSettings(), init=init
    )[0]


@dataclass
class RegionPrediction:
    """Per-row latent mean, posterior variance, shared noise variance, and yhat."""

    zhat: np.ndarray
    model_variance: np.ndarray
    noise_variance: float
    yhat: np.ndarray


def predict_region(model: RegionModel, phi_star: np.ndarray) -> RegionPrediction:
    phi_star = np.atleast_2d(np.asarray(phi_star, dtype=float))
    if phi_star.shape[1] != model.weights.shape[0]:
        raise SchemaError(
            f"region '{model.region}': design has {phi_star.shape[1]} columns "
            f"but the model expects {model.weights.shape[0]}"
        )
    zhat = phi_star @ model.weights
    solved = sla.cho_solve((model.chol_precision, True), phi_star.T)
    model_variance = np.maximum(np.einsum("ij,ij->j", phi_star.T, solved), 0.0)
    noise_variance = 1.0 / model.hyperparams.beta
    yhat = warp_inverse(zhat, model.hyperparams.warp)
    return RegionPrediction(
        zhat=zhat,
        model_variance=model_variance,
        noise_variance=noise_variance,
        yhat=yhat,
    )


@dataclass(eq=False)
class NormativeModel:
    """All fitted regions plus the shared design schema and provenance."""

    region_models: tuple[RegionModel, ...]
    config: ModelConfig
    schema: DesignSchema
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for rm in self.region_models:
            if rm.weights.shape[0] != self.schema.n_columns:
                raise SchemaError(
                    f"region '{rm.region}' has {rm.weights.shape[0]} weights "
                    f"but the schema defines {self.schema.n_columns} columns"
                )

    @property
    def region_names(self) -> tuple[str, ...]:
        return tuple(rm.region for rm in self.region_models)


def fit_normative(
    train: Cohort,
    config: ModelConfig | None = None,
    opts: OptimizerSettings | None = None,
    workers: int = 1,
    seed: int | None = None,
    design: DesignMatrix | None = None,
) -> NormativeModel:
    """Fit every region of the training cohort on one shared design.

    Regions are independent models, but they share the design's eigenbasis:
    all identity-warp fits run together as one batched fixed point, then each
    region gets its own free-warp L-BFGS-B run (see fit_region for the rule
    that picks between them). `workers` is accepted for compatibility and
    ignored; results never depended on it. `design` is fit_design(train,
    config) when the caller has built it already, so that it can score the
    training cohort on the same design; otherwise it is built here.
    """
    config = config or ModelConfig()
    if design is None:
        dm = fit_design(train, config)
    elif design.subjects != train.subjects:
        raise ValueError("design was not built from the training cohort")
    else:
        dm = design
    region_models = _fit_regions(
        dm.values, train.responses, train.regions, opts or OptimizerSettings()
    )
    provenance = {
        "cohort_hash": train.content_hash(),
        "seed": seed,
        "version": __version__,
        "n_train": train.n_subjects,
    }
    return NormativeModel(
        region_models=region_models,
        config=config,
        schema=dm.schema,
        provenance=provenance,
    )


@dataclass
class DeviationMatrix:
    """One scoring pass of a cohort against the reference model.

    Columns follow the model's region order. Z = (z - zhat) / sqrt(noise
    variance + model variance) on the latent scale, E = y - yhat in original
    units, and log_loss is the per-cell log loss of the model minus that of
    the training-baseline Gaussian, so its column means are the MSLL. y holds
    the responses, a view of the cohort's when the region orders agree. Fit
    metrics and parity are reductions of this result over rows and columns.
    """

    ids: tuple[str, ...]
    regions: tuple[str, ...]
    Z: np.ndarray
    E: np.ndarray
    yhat: np.ndarray
    log_loss: np.ndarray
    y: np.ndarray


def _check_regions(model: NormativeModel, cohort: Cohort) -> list[int]:
    """Column index into cohort responses for each model region, in model order."""
    cohort_idx = {r: i for i, r in enumerate(cohort.regions)}
    missing = [r for r in model.region_names if r not in cohort_idx]
    extra = [r for r in cohort.regions if r not in set(model.region_names)]
    if missing or extra:
        raise SchemaError(
            f"region mismatch: missing from cohort {missing[:10]}, "
            f"not in model {extra[:10]}"
        )
    return [cohort_idx[r] for r in model.region_names]


def _log_loss_terms(
    z: np.ndarray,
    zhat: np.ndarray,
    var_pred: np.ndarray,
    baseline_mean: float,
    baseline_var: float,
) -> np.ndarray:
    model_ll = 0.5 * np.log(2.0 * np.pi * var_pred) + np.square(z - zhat) / (
        2.0 * var_pred
    )
    base_ll = 0.5 * np.log(2.0 * np.pi * baseline_var) + np.square(
        z - baseline_mean
    ) / (2.0 * baseline_var)
    return model_ll - base_ll


def deviations(
    model: NormativeModel, cohort: Cohort, design: DesignMatrix | None = None
) -> DeviationMatrix:
    """Score a cohort against the reference model: the one scoring pass.

    Builds the design once, unless `design` (the cohort's rows under
    model.schema, such as the training design of a fit) is given, and predicts
    each region once; fit_metrics and parity reduce the result instead of
    scoring again. A design built from other subjects or under another schema
    raises ValueError.
    """
    cols = _check_regions(model, cohort)
    if design is None:
        design = apply_design(cohort.subjects, model.schema)
    elif design.schema != model.schema or design.subjects != cohort.subjects:
        raise ValueError("design does not belong to this model and cohort")
    phi = design.values
    responses = cohort.responses
    if cols != list(range(cohort.n_regions)):
        responses = responses[:, cols]
    z_scores, errors, yhats, log_loss = (np.empty(responses.shape) for _ in range(4))
    for j, rm in enumerate(model.region_models):
        y = responses[:, j]
        pred = predict_region(rm, phi)
        z = warp_forward(y, rm.hyperparams.warp)
        var_pred = pred.noise_variance + pred.model_variance
        z_scores[:, j] = (z - pred.zhat) / np.sqrt(var_pred)
        errors[:, j] = y - pred.yhat
        yhats[:, j] = pred.yhat
        log_loss[:, j] = _log_loss_terms(
            z, pred.zhat, var_pred, rm.train_z_mean, rm.train_z_var
        )
    return DeviationMatrix(
        ids=cohort.ids,
        regions=model.region_names,
        Z=z_scores,
        E=errors,
        yhat=yhats,
        log_loss=log_loss,
        y=responses,
    )


def explained_variance(y: np.ndarray, yhat: np.ndarray) -> float | None:
    """1 - Var(y - yhat)/Var(y) with population variances; None when Var(y) = 0."""
    y = np.asarray(y, dtype=float)
    var_y = float(np.var(y))
    if var_y == 0.0:
        return None
    return 1.0 - float(np.var(y - np.asarray(yhat, dtype=float))) / var_y


def standardized_log_loss(
    z: np.ndarray,
    zhat: np.ndarray,
    var_pred: np.ndarray,
    baseline_mean: float,
    baseline_var: float,
) -> float:
    """Mean log loss of the model minus that of the training-baseline Gaussian.

    The baseline predicts every point with the training latent mean/variance;
    scoring the baseline against itself gives exactly 0.
    """
    z = np.asarray(z, dtype=float)
    terms = _log_loss_terms(z, zhat, var_pred, baseline_mean, baseline_var)
    return float(np.mean(terms))


@dataclass
class RegionFitMetrics:
    region: str
    explained_variance: float | None
    msll: float
    skew: float
    kurtosis: float


def _skew_kurtosis(z: np.ndarray) -> tuple[float, float]:
    """Biased skew and excess kurtosis of one column, as scipy.stats computes them.

    The central moments are formed in scipy's order of operations, so the
    results are bitwise equal to scipy.stats.skew and scipy.stats.kurtosis;
    a column whose variance is zero to within rounding of its mean gives NaN.
    """
    mean = z.mean(keepdims=True)
    d = z - mean
    d2 = d**2
    m2, m3, m4 = np.mean(d2), np.mean(d2 * d), np.mean(d2**2)
    with np.errstate(all="ignore"):
        if m2 <= (np.finfo(float).eps * mean[0]) ** 2:
            return np.nan, np.nan
        return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


def region_metrics(dm: DeviationMatrix) -> list[RegionFitMetrics]:
    """Per-region fit quality: EV, MSLL, and Z-moment diagnostics.

    Each field is a reduction of one column of the scoring pass.
    """
    metrics = []
    for j, region in enumerate(dm.regions):
        skew, kurtosis = _skew_kurtosis(dm.Z[:, j])
        metrics.append(
            RegionFitMetrics(
                region=region,
                explained_variance=explained_variance(dm.y[:, j], dm.yhat[:, j]),
                msll=float(np.mean(dm.log_loss[:, j])),
                skew=skew,
                kurtosis=kurtosis,
            )
        )
    return metrics


def fit_metrics(model: NormativeModel, cohort: Cohort) -> list[RegionFitMetrics]:
    """Per-region fit quality on a cohort: region_metrics of one deviations() pass."""
    return region_metrics(deviations(model, cohort))


MODEL_FILE = "model.json"
REGIONS_FILE = "regions.json"
_BUNDLE_FORMAT = "normgauge-model"


def save_bundle(model: NormativeModel, out_dir: str | Path) -> None:
    """Write model.json (config, schema, provenance) and regions.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(
        {
            "format": _BUNDLE_FORMAT,
            "format_version": 1,
            "config": model.config.to_dict(),
            "design_schema": model.schema.to_dict(),
            "provenance": model.provenance,
            "regions": list(model.region_names),
        },
        out / MODEL_FILE,
    )
    dump_json(
        {"regions": [rm.to_dict() for rm in model.region_models]},
        out / REGIONS_FILE,
    )


def load_bundle(bundle_dir: str | Path) -> NormativeModel:
    """Inverse of save_bundle; numeric state is restored bit-for-bit."""
    bundle = Path(bundle_dir)
    meta = load_json(bundle / MODEL_FILE)
    if meta.get("format") != _BUNDLE_FORMAT:
        raise SchemaError(f"{bundle / MODEL_FILE}: not a model bundle")
    regions_doc = load_json(bundle / REGIONS_FILE)
    region_models = tuple(RegionModel.from_dict(d) for d in regions_doc["regions"])
    if list(meta.get("regions", [])) != [rm.region for rm in region_models]:
        raise SchemaError(f"{bundle}: region lists disagree between bundle files")
    return NormativeModel(
        region_models=region_models,
        config=ModelConfig.from_dict(meta["config"]),
        schema=DesignSchema.from_dict(meta["design_schema"]),
        provenance=meta.get("provenance", {}),
    )
