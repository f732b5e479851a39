"""Warped Bayesian linear regression per region, fit by evidence maximization.

Model for one region: the warped response z = f(y) follows

    z = w^T phi(x) + e,   e ~ N(0, 1/beta),   w ~ N(0, I/alpha)

with f the sinh-arcsinh warp and y the region's response standardized by its
training mean and population SD. The warp and the shared weight prior are not
affine-equivariant, so fitting the standardized column is what keeps a
response's units and offset from changing its fit (warped BLR is fitted on
standardized responses in Fraza et al. 2021, NeuroImage 245:118715). The model
keeps the mean and SD, maps its predictions back to response units, and
reports its NLL in response units, N ln SD above the standardized one.
Hyperparameters theta = (log_alpha, log_beta, epsilon, log_delta) are chosen
by minimizing the negative log marginal likelihood (evidence)

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
  "Bayesian Interpolation");
- with all four hyperparameters free, by projected Newton steps on the
  analytic Hessian, each region inside its own trust region (see _fit_free).

Both run for a block of regions at once, one row per region, but every
product is taken row by row (_rowwise), so a region's model depends only on
its own responses and the design, never on the regions fitted beside it.

The warped fit must beat the identity fit by more than a margin (see
_warp_engagement_margin) before it is kept. A region whose identity
residuals pass a normality screen (half their Jarque-Bera statistic below
_SCREEN_SHARE of the margin) skips the free run and keeps its identity fit.
Fitting needs numpy only. A Cholesky reference of the evidence, independent
of the engine, lives with the tests (tests/evidence_reference.py) as their
oracle.

Scoring (deviations) standardizes each response by its region's mean and SD
before the warp and runs the same way: blocks of _SCORE_BLOCK regions, one
product per region for the latent mean, and for the posterior variance
||L^-1 phi||^2 each region's triangular inverse of its Cholesky factor L
times the design (_predict_block), so a region's scores do not depend on the
regions scored beside it; predict_region is the one-region case. The fit
metrics (region_metrics) and the per-group fit (group_fit: each group's n,
EV and MSLL, which audit's parity takes) reduce the scoring pass along the
rows of region-major copies, which is bitwise the reduction of each column
alone.
Per-region scoring with a general LU solve lives with the tests as the
scoring pass's oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._textio import MODEL_FILE, REGIONS_FILE
from ._version import __version__
from .cohort import Cohort
from .design import DesignSchema, ModelConfig, apply_design, fit_design
from .errors import InputError, NumericalError, SchemaError
from .serialize import _chunk_ranges, _forked_iter, dump_json, load_json
from .warp import WarpParams, _forward, _inverse

log = logging.getLogger(__name__)

LN_2PI = float(np.log(2.0 * np.pi))

# box constraints keeping the evidence finite during optimization
_BOUNDS_FREE = ((-20.0, 20.0), (-20.0, 20.0), (-5.0, 5.0), (-3.0, 3.0))


def _scale_at_bound(theta: np.ndarray) -> bool:
    """Whether a fit (log_alpha, log_beta, ...) is held by a bound of a precision.

    log_beta at either bound caps the noise SD at e^10 or e^-10 of the
    column's SD, and log_alpha at its lower bound caps the weights' prior SD
    at e^10 standardized units; a fit held there has the wrong evidence. On a
    standardized column only a response that is nearly a function of the
    covariates gets there, its residual SD below about 5e-5 of the column's.
    log_alpha at its upper bound is a ridge fit, where the warp absorbs the
    weights, and the warp's own bounds are legitimate optima, so neither
    counts.
    """
    (alpha_lo, _), (beta_lo, beta_hi) = _BOUNDS_FREE[:2]
    return bool(theta[0] <= alpha_lo or theta[1] <= beta_lo or theta[1] >= beta_hi)


def _finite(d: dict, key: str, owner: str, positive: bool = False) -> np.ndarray:
    """d[key] as a float array; SchemaError naming owner and key unless every
    value is finite (and, with `positive`, above zero)."""
    values = np.asarray(d[key], dtype=float)
    if not np.all(np.isfinite(values)) or (positive and not np.all(values > 0)):
        need = "finite and positive" if positive else "finite"
        raise SchemaError(f"{owner}: every '{key}' value must be {need}")
    return values


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
    def from_dict(cls, d: dict, owner: str = "hyperparams") -> "Hyperparams":
        return cls(
            log_alpha=float(_finite(d, "log_alpha", owner)),
            log_beta=float(_finite(d, "log_beta", owner)),
            warp=WarpParams.from_dict(d["warp"]),
        )


def _region_arrays(phi, y) -> tuple[np.ndarray, np.ndarray]:
    """One region's design (N, M) and responses (N,) as float arrays, checked."""
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or y.ndim != 1:
        raise InputError("design must be 2-d and responses 1-d")
    if phi.shape[0] != y.shape[0]:
        raise SchemaError(
            f"design has {phi.shape[0]} rows but responses have {y.shape[0]}"
        )
    return phi, y


@dataclass(eq=False)
class RegionModel:
    """Fitted posterior for one region; chol_precision is lower-Cholesky of A.

    The region is fitted on its training column standardized by that
    column's mean and population SD (response_mean, response_sd), so the
    weights, posterior, hyperparameters and train_z_* are in standardized
    units; the defaults leave a response as it is. fit_region documents how
    `converged`, `nll`, `nll_path` and `screened` (the free-warp run was
    skipped) are set. Only the fields written by to_dict survive a bundle
    round trip.
    """

    region: str
    weights: np.ndarray
    chol_precision: np.ndarray
    hyperparams: Hyperparams
    train_z_mean: float
    train_z_var: float
    n_train: int
    response_mean: float = 0.0
    response_sd: float = 1.0
    converged: bool = True
    nll: float = float("nan")
    nll_identity: float = field(default=float("nan"), repr=False)
    nll_path: tuple[float, ...] = field(default=(), repr=False)
    screened: bool = field(default=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "region": self.region,
            "response_mean": float(self.response_mean),
            "response_sd": float(self.response_sd),
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
        owner = f"region '{d['region']}'"
        return cls(
            region=d["region"],
            weights=_finite(d, "weights", owner),
            chol_precision=_finite(d, "chol_precision", owner),
            hyperparams=Hyperparams.from_dict(d["hyperparams"], owner),
            train_z_mean=float(_finite(d, "train_z_mean", owner)),
            train_z_var=float(_finite(d, "train_z_var", owner, positive=True)),
            n_train=int(d["n_train"]),
            response_mean=float(_finite(d, "response_mean", owner)),
            response_sd=float(_finite(d, "response_sd", owner, positive=True)),
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


def _rowwise(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b as one product per row of a, so a row's result is bitwise the same
    whatever rows stand beside it; one matrix product over all rows is not."""
    stacked = None if out is None else out[:, None, :]
    return np.matmul(a[:, None, :], np.ascontiguousarray(b), out=stacked)[:, 0, :]


def _spectral_state(
    spectrum: _Spectrum,
    z: np.ndarray,
    log_alpha: np.ndarray,
    log_beta: np.ndarray,
    residual: np.ndarray | None = None,
) -> _SpectralState:
    """Evidence of the latent rows z (D, N) at per-row (log_alpha, log_beta).

    Each row's result is bitwise independent of the other rows. The residual
    is written to `residual` when given.
    """
    n, m_dim = spectrum.phi_u.shape
    alpha = np.exp(log_alpha)[:, None]
    beta = np.exp(log_beta)[:, None]
    lam = alpha + beta * spectrum.s
    weights = beta * _rowwise(z, spectrum.phi_u) / lam
    residual = _rowwise(weights, spectrum.phi_u.T, out=residual)
    np.subtract(z, residual, out=residual)
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


def _blocked(x: np.ndarray, grad: np.ndarray, bounds) -> np.ndarray:
    """Where a descent step would leave the box: at a bound, gradient pointing out."""
    lo, hi = np.asarray(bounds, dtype=float).T
    return ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))


def _projected_gradient(x: np.ndarray, grad: np.ndarray, bounds) -> np.ndarray:
    """Zero the components that point out of the box at an active bound."""
    return np.where(_blocked(x, grad, bounds), 0.0, grad)


# A projected gradient above this many nats per observation is far from
# stationary: on log(beta) it means a 20% error in the noise variance. Runs
# that stall near their start point end at 0.4-2 per observation; free fits
# that meet their `tol` rule end below 0.02 (skewed seeds 0 and 5).
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
    M - alpha tr A^{-1} = gamma. On top of that bookkeeping the two shape
    parameters chase sample moments, priced at ln N, the BIC cost of two
    parameters (Schwarz 1978). On a standardized column a region with no
    covariate effect holds alpha at its upper bound, so its complexity and
    gamma are about 0 and ln N is all of its margin. Requiring the free fit
    to beat the identity fit by more than the sum keeps the warp disengaged
    on Gaussian data while leaving genuinely skewed responses, whose gain
    grows linearly with N, far above the bar. The margin depends on the
    region's own N and fit only, never on how many regions are fitted.
    Evaluated for every row of `state` at once.
    """
    complexity = 0.5 * state.log_det - 0.5 * spectrum.s.size * log_alpha
    return complexity + 0.5 * state.gamma + np.log(spectrum.phi_u.shape[0])


def _fit_identity(
    spectrum: _Spectrum, y: np.ndarray, x0: np.ndarray
) -> tuple[np.ndarray, _SpectralState, np.ndarray, list[list[float]]]:
    """Identity-warp fits of the rows of y (D, N) by MacKay's fixed point.

    Each iteration sets alpha = gamma / m^T m and beta = (N - gamma) / ||r||^2
    for every region still running, clipped to the box; both updates are
    where the evidence gradient vanishes. A region stops under the rules of
    _TOL, _GRAD_TOL and _MAX_ITER. Returns (log_alpha, log_beta) per row, the
    final state, whether each row stopped before _MAX_ITER, and each row's
    NLL per iterate.
    """
    bounds = _BOUNDS_FREE[:2]
    lo, hi = np.asarray(bounds, dtype=float).T
    n = spectrum.phi_u.shape[0]
    theta = np.clip(x0, lo, hi)
    state = _spectral_state(spectrum, y, theta[:, 0], theta[:, 1])
    paths = [[f] for f in state.nll.tolist()]
    running = np.ones(y.shape[0], dtype=bool)
    for _ in range(_MAX_ITER):
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
        done = (np.abs(state.nll - new.nll) <= _TOL * scale) | (
            np.max(np.abs(pg), axis=1) <= _GRAD_TOL
        )
        for d in np.flatnonzero(running):
            paths[d].append(float(new.nll[d]))
        running &= ~done
        state = new
    return theta, state, ~running, paths


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a (D, N) with the same row of b."""
    return np.einsum("dn,dn->d", a, b)


class _WarpedEvidence:
    """Evidence of D regions on one design over all four hyperparameters.

    Row d of y (D, N) holds region d's responses and row d of theta (D, 4)
    its (log_alpha, log_beta, epsilon, log_delta). Each evaluation warps the
    rows and scores them with _spectral_state; `rows` picks a subset of the
    regions, in the order of theta's rows. Every quantity is computed row by
    row, bitwise independent of the other rows evaluated with it. Overflow
    is not caught: it shows as a non-finite NLL or derivative in that row
    only, left to the caller.

    The (rows, N) arrays an evaluation returns live in work arrays that the
    next evaluation overwrites: at these sizes, touching fresh memory for
    each temporary costs more than the arithmetic.
    """

    def __init__(self, spectrum: _Spectrum, y: np.ndarray):
        self.spectrum = spectrum
        self.asinh_y = np.arcsinh(y)
        self.half_log1p_y2 = 0.5 * np.sum(np.log1p(np.square(y)), axis=1)
        self._work: dict[str, np.ndarray] = {}

    def _scratch(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        """Work array `key` with `shape`, grown when a block needs more rows."""
        buf = self._work.get(key)
        if buf is None or len(buf) < shape[0]:
            buf = self._work[key] = np.empty(shape)
        return buf[: shape[0]]

    def _warp(self, theta: np.ndarray, rows):
        """asinh(y), z = sinh(u), cosh(u) and the log Jacobian of the rows.

        cosh(u) sits in slot 0 of the "pair" work array, whose slot 1
        derivatives() fills with dz/dlog(delta).
        """
        d, n = len(theta), self.asinh_y.shape[1]
        if isinstance(rows, slice):
            s = self.asinh_y[rows]
        else:
            s = np.take(self.asinh_y, rows, axis=0, out=self._scratch("s", (d, n)))
        log_delta = theta[:, 3]
        tmp = self._scratch("tmp", (d, n))
        u = np.multiply(np.exp(log_delta)[:, None], s, out=tmp)
        u -= theta[:, 2:3]
        exp_u = np.exp(u, out=self._scratch("pair", (d, 2, n))[:, 0])
        exp_neg_u = np.divide(1.0, exp_u, out=tmp)
        z = np.subtract(exp_u, exp_neg_u, out=self._scratch("z", (d, n)))
        z *= 0.5
        cosh_u = np.add(exp_u, exp_neg_u, out=exp_u)
        cosh_u *= 0.5
        log_jac = (
            n * log_delta
            + np.sum(np.log(cosh_u, out=tmp), axis=1)
            - self.half_log1p_y2[rows]
        )
        return s, z, cosh_u, log_jac

    def _state(self, theta: np.ndarray, z: np.ndarray) -> _SpectralState:
        residual = self._scratch("residual", z.shape)
        return _spectral_state(self.spectrum, z, theta[:, 0], theta[:, 1], residual)

    def evaluate(self, theta: np.ndarray, rows=slice(None)):
        """(state, z, cosh(u), NLL) at theta; overflow yields non-finite values."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _, z, cosh_u, log_jac = self._warp(theta, rows)
            state = self._state(theta, z)
            nll = state.nll - log_jac
        return state, z, cosh_u, nll

    def derivatives(self, theta: np.ndarray, rows=slice(None)):
        """NLL (D,), gradient (D, 4) and Hessian (D, 4, 4) at theta.

        With s = asinh(y) and u = delta s - eps, the latent z = sinh(u) has
        dz/deps = -cosh(u) and dz/dlog(delta) = delta s cosh(u). The Gaussian
        part of the NLL is z^T Q z / 2 plus terms free of z, with
        Q = beta (I - beta Phi A^-1 Phi^T) and Q z = beta r, so the warp's
        second derivatives are Q-products of those two z derivatives plus
        beta r against the second derivatives of z. Moving log(alpha) or
        log(beta) moves the weights by -+ v, v = m alpha / lam in the
        eigenbasis, which gives the cross terms (Jones & Pewsey 2009 for the
        warp's derivatives, Fraza et al. 2021 for the warped evidence).
        """
        alpha, beta = np.exp(theta[:, 0]), np.exp(theta[:, 1])
        delta = np.exp(theta[:, 3])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            s, z, cosh_u, log_jac = self._warp(theta, rows)
            state = self._state(theta, z)
            nll = state.nll - log_jac
            n = s.shape[1]
            r = state.residual
            pair = self._scratch("pair", (len(z), 2, n))
            z_t = np.multiply(cosh_u, s, out=pair[:, 1])  # dz/dlog(delta)
            z_t *= delta[:, None]
            tanh_u = np.divide(z, cosh_u, out=self._scratch("tmp", z.shape))
            r_c, r_zt = _rowdot(r, cosh_u), _rowdot(r, z_t)
            s_tanh = _rowdot(s, tanh_u)
            grad = np.column_stack(
                [
                    state.grad,
                    -beta * r_c + np.sum(tanh_u, axis=1),
                    beta * r_zt - n - delta * s_tanh,
                ]
            )
            lam = state.lam
            shrink = beta[:, None] * self.spectrum.s / lam  # beta s_j / lam_j
            keep = alpha[:, None] / lam  # 1 - shrink
            w = state.weights
            v = w * keep
            k = 0.5 * np.sum(shrink * keep, axis=1)
            w_v = np.sum(w * v, axis=1)
            proj = pair @ self.spectrum.phi_u
            p_c, p_t = proj[:, 0], proj[:, 1]
            v_c, v_t = np.sum(v * p_c, axis=1), np.sum(v * p_t, axis=1)

            def q_form(x, y, p_x, p_y):
                return beta * _rowdot(x, y) - beta**2 * np.sum(p_x * p_y / lam, axis=1)

            sech2 = np.divide(1.0, cosh_u, out=tanh_u)
            sech2 *= sech2
            hess = np.empty((len(nll), 4, 4))
            hess[:, 0, 0] = alpha * (0.5 * state.ww - w_v) + k
            hess[:, 0, 1] = alpha * w_v - k
            hess[:, 1, 1] = (
                0.5 * beta * state.rss
                - alpha * state.ww
                + beta * np.sum(self.spectrum.s * w * v, axis=1)
                + k
            )
            hess[:, 0, 2] = -beta * v_c
            hess[:, 0, 3] = beta * v_t
            hess[:, 1, 2] = beta * (v_c - r_c)
            hess[:, 1, 3] = beta * (r_zt - v_t)
            hess[:, 2, 2] = (
                q_form(cosh_u, cosh_u, p_c, p_c)
                + beta * _rowdot(r, z)
                - np.sum(sech2, axis=1)
            )
            hess[:, 2, 3] = (
                -q_form(cosh_u, z_t, p_c, p_t)
                - beta * delta * np.einsum("dn,dn,dn->d", r, s, z)
                + delta * _rowdot(s, sech2)
            )
            hess[:, 3, 3] = (
                q_form(z_t, z_t, p_t, p_t)
                + beta * r_zt
                + beta * delta**2 * np.einsum("dn,dn,dn,dn->d", r, s, s, z)
                - delta * s_tanh
                - delta**2 * np.einsum("dn,dn,dn->d", s, s, sech2)
            )
            lower = np.tril_indices(4, -1)
            hess[:, lower[0], lower[1]] = hess[:, lower[1], lower[0]]
        return nll, grad, hess


# Stopping rules of both fits. A region's fit stops once no projected-gradient
# component exceeds _GRAD_TOL, once the NLL change in view is at most _TOL
# relative to max(|NLL|, 1), or after _MAX_ITER iterations. For the identity
# fit that change is the one its last iteration made. For the free fit it is
# both the drop of its last step and the Newton decrement 1/2 g^T |H|^-1 g,
# the drop a full Newton step predicts. The free fit only ever lowers the
# NLL; the fixed point keeps iterating after a larger rise.
_TOL = 1e-6
_GRAD_TOL = 1e-6
_MAX_ITER = 500

# Trust-region settings of the free fit. Every run starts with a radius of
# 1 (log-scale units); a step that achieves under a quarter of its predicted
# drop shrinks the radius to a quarter of the step, and one that achieves over
# three quarters from the radius's edge doubles it. A step is kept when it
# achieves more than _MIN_RATIO of its predicted drop.
_FIRST_RADIUS = 1.0
_MIN_RATIO = 1e-4
# once a run's radius is below this, no step changes its NLL
_MIN_RADIUS = 1e-10
# Hessian eigenvalues are replaced by their absolute values, floored at this
# share of the largest, so that every step descends
_EIGEN_FLOOR = 1e-8
# Newton iterations on the trust-region shift; a few reach the radius to
# well within 1%, and a step still outside it is scaled back onto it
_SHIFT_ITER = 8
# log_alpha of each region's ridge run, far out where the warp absorbs the
# weights
_RIDGE_LOG_ALPHA = 15.0
# |epsilon| of the warp that a region's second run starts from, leaning
# against the skew of its identity residuals
_LEAN_EPSILON = 2.0

# how a fit stopped: the stop reasons of the not-converged warning
_MET = "met its tolerance"
_HIT_MAX_ITER = "hit max_iter"
_STALLED = "no step lowers the NLL"
_NOT_FINITE = "evidence not finite"
_SCALE_AT_BOUND = "its precision hit a bound of log alpha or log beta"


def _trust_region_steps(
    g_eig: np.ndarray, eig: np.ndarray, vec: np.ndarray, radius: np.ndarray
) -> np.ndarray:
    """Minimizer of g^T s + s^T B s / 2 over ||s|| <= radius, one per row.

    B = vec diag(eig) vec^T is positive definite and g_eig = vec^T g. The step
    is s = -vec (g_eig / (eig + mu)) with the smallest shift mu >= 0 that
    keeps it inside the radius, found by Newton's method on
    1/||s(mu)|| = 1/radius (Nocedal & Wright 2006, algorithm 4.3).
    """
    mu = np.zeros(len(eig))
    for _ in range(_SHIFT_ITER):
        coef = g_eig / (eig + mu[:, None])
        norm = np.sqrt(np.sum(coef * coef, axis=1))
        curve = np.sum(coef * coef / (eig + mu[:, None]), axis=1)
        shift = (norm / radius - 1.0) * norm**2 / curve
        mu = np.where(norm > radius, mu + shift, mu)
    step = -np.einsum("dij,dj->di", vec, g_eig / (eig + mu[:, None]))
    norm = np.linalg.norm(step, axis=1)
    return step * np.minimum(1.0, radius / np.maximum(norm, np.finfo(float).tiny))[:, None]


def _centred(theta: np.ndarray) -> np.ndarray:
    """theta with epsilon replaced by eta = epsilon / delta, so u = delta (asinh y - eta)."""
    return np.column_stack([theta[:, :2], theta[:, 2] / np.exp(theta[:, 3]), theta[:, 3]])


def _uncentred(phi: np.ndarray) -> np.ndarray:
    """Inverse of _centred."""
    return np.column_stack([phi[:, :2], phi[:, 2] * np.exp(phi[:, 3]), phi[:, 3]])


def _all_derivatives(problem: _WarpedEvidence, theta: np.ndarray, rows):
    """NLL, then gradient and Hessian over theta and over phi = _centred(theta).

    In the linear limit of the warp, scaling z by k while alpha and beta fall
    by k^2 leaves the NLL unchanged. Over theta that valley bends, epsilon
    moving with delta; over phi it is a straight line, which Newton steps
    follow where they zigzag across a bent one.
    """
    nll, grad, hess = problem.derivatives(theta, rows)
    delta, eps, g_eps = np.exp(theta[:, 3]), theta[:, 2], grad[:, 2]
    jac = np.zeros_like(hess)  # d theta / d phi
    jac[:, np.arange(4), np.arange(4)] = 1.0
    jac[:, 2, 2], jac[:, 2, 3] = delta, eps
    with np.errstate(over="ignore", invalid="ignore"):
        grad_phi = np.einsum("dki,dk->di", jac, grad)
        hess_phi = np.einsum("dki,dkl,dlj->dij", jac, hess, jac)
        hess_phi[:, 2, 3] += g_eps * delta
        hess_phi[:, 3, 2] += g_eps * delta
        hess_phi[:, 3, 3] += g_eps * eps
    return nll, grad, hess, grad_phi, hess_phi


def _finite_rows(*arrays: np.ndarray) -> np.ndarray:
    """Whether every value of each row is finite, over arrays with rows first."""
    ok = np.ones(len(arrays[0]), dtype=bool)
    for a in arrays:
        ok &= np.all(np.isfinite(a.reshape(len(a), -1)), axis=1)
    return ok


def _newton_steps(theta, grad, hess, grad_phi, hess_phi, centred, nll, last_drop, radius):
    """One trust-region Newton step per run, and which runs stop instead.

    Returns the step and the point, gradient, floored |H| eigenpairs and
    coordinate choice it was taken over (see _fit_free), then two masks: the
    runs that met their stopping rule, and the runs whose step is not finite.
    """
    diag = np.arange(4)
    # a centred run steps over theta while epsilon is held at its bound,
    # whose face is flat over theta only
    blocked = _blocked(theta, grad, _BOUNDS_FREE)
    plain = blocked[:, 2:3] | ~centred
    blocked = np.where(plain, blocked, _blocked(theta, grad_phi, _BOUNDS_FREE))
    x = np.where(plain, theta, _centred(theta))
    g = np.where(blocked, 0.0, np.where(plain, grad, grad_phi))
    h = np.where(plain[:, :, None], hess, hess_phi)
    # blocked coordinates decouple: zero rows and columns, unit diagonal
    h = np.where(blocked[:, :, None] | blocked[:, None, :], 0.0, h)
    h[:, diag, diag] += blocked
    eig, vec = np.linalg.eigh(h)
    eig = np.abs(eig)
    eig = np.maximum(eig, _EIGEN_FLOOR * np.max(eig, axis=1, keepdims=True))
    eig = np.maximum(eig, np.finfo(float).tiny)
    g_eig = np.einsum("dji,dj->di", vec, g)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        decrement = 0.5 * np.sum(g_eig * g_eig / eig, axis=1)
        step = _trust_region_steps(g_eig, eig, vec, radius)
    small = _TOL * np.maximum(np.abs(nll), 1.0)
    met = ((decrement <= small) & (last_drop <= small)) | (
        np.max(np.abs(g), axis=1) <= _GRAD_TOL
    )
    broken = ~met & ~(np.isfinite(decrement) & np.all(np.isfinite(step), axis=1))
    return step, x, g, eig, vec, plain, met, broken


def _leaning_start(theta_id: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Second start of each region's free fit: its identity optimum (D, 2)
    with a warp of |epsilon| = _LEAN_EPSILON whose sign is that of the
    skewness of its identity residuals (D, N)."""
    d = residual - residual.mean(axis=1, keepdims=True)
    skew_sign = np.sign(np.einsum("dn,dn,dn->d", d, d, d))
    lean = _LEAN_EPSILON * skew_sign
    return np.column_stack([theta_id, lean, np.zeros_like(lean)])


def _fit_free(
    problem: _WarpedEvidence, x0: np.ndarray, leaning: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], list[list[float]]]:
    """Free-warp fits of every region (row) of problem, all at once.

    The free NLL has several kinds of local minimum: with fitted weights near
    the identity fit, out on the ridge where alpha is large and the warp
    absorbs the weights, and strongly skewing warps at the epsilon bound. A
    local search ends in whichever its path reaches, so each region runs
    three times and keeps the lowest: from x0 (D, 4), from `leaning` (D, 4;
    see _leaning_start), and from x0 with log_alpha at _RIDGE_LOG_ALPHA. The
    ridge run steps over _centred coordinates, where its valley is
    straight, unless epsilon is held at its bound; the others step over
    theta.

    Each run takes projected Newton steps inside its own trust region.
    Coordinates held at a bound of _BOUNDS_FREE by their gradient drop out
    of the step; the rest follow -|H|^-1 g, where |H| is the Hessian with its
    eigenvalues replaced by their floored absolute values, shifted toward the
    gradient when that step leaves the radius. The trial point is clipped to
    the box. A run stops once no projected-gradient component exceeds
    _GRAD_TOL, or once both its Newton decrement 1/2 g^T |H|^-1 g and its
    last step's drop are at most _TOL relative to max(|NLL|, 1); after
    _MAX_ITER iterations; or when its radius collapses. The runs still going
    share each evaluation, but no run's arithmetic depends on another's, so
    fitting any subset of the rows on its own gives bitwise those rows'
    results.

    Returns theta, NLL and gradient over theta per region, each region's stop
    reason, and the NLL after every step its run kept.
    """
    lo, hi = np.asarray(_BOUNDS_FREE, dtype=float).T
    n_regions = len(x0)
    ridge = x0.copy()
    ridge[:, 0] = _RIDGE_LOG_ALPHA
    theta = np.clip(np.vstack([x0, leaning, ridge]), lo, hi)
    region = np.tile(np.arange(n_regions), 3)  # problem row of each run
    centred = np.repeat([False, False, True], n_regions)[:, None]
    nll, grad, hess, grad_phi, hess_phi = _all_derivatives(problem, theta, region)
    finite = _finite_rows(nll, grad, hess, grad_phi, hess_phi)
    stop = [_HIT_MAX_ITER if ok else _NOT_FINITE for ok in finite]
    paths = [[f] for f in nll.tolist()]
    radius = np.full(len(theta), _FIRST_RADIUS)
    last_drop = np.full(len(theta), np.inf)
    running = finite.copy()
    for iteration in range(_MAX_ITER + 1):
        runs = np.flatnonzero(running)
        if runs.size == 0:
            break
        step, x, g, eig, vec, plain, met, broken = _newton_steps(
            theta[runs], grad[runs], hess[runs], grad_phi[runs], hess_phi[runs],
            centred[runs], nll[runs], last_drop[runs], radius[runs],
        )
        for reason, mask in ((_MET, met), (_NOT_FINITE, broken)):
            for r in runs[mask]:
                stop[r] = reason
        go = ~(met | broken)
        running[runs[~go]] = False
        if iteration == _MAX_ITER or not go.any():
            continue
        runs, f = runs[go], nll[runs[go]]
        step, x, g, eig, vec, plain = step[go], x[go], g[go], eig[go], vec[go], plain[go]
        with np.errstate(over="ignore", invalid="ignore"):
            trial = np.clip(np.where(plain, x + step, _uncentred(x + step)), lo, hi)
            moved = np.where(plain, trial, _centred(trial)) - x
            moved_eig = np.einsum("dji,dj->di", vec, moved)
            predicted = -(
                np.sum(g * moved, axis=1) + 0.5 * np.sum(eig * moved_eig**2, axis=1)
            )
        t_nll, *t_derivatives = _all_derivatives(problem, trial, region[runs])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            ratio = (f - t_nll) / predicted
        keep = (predicted > 0) & (ratio > _MIN_RATIO) & _finite_rows(*t_derivatives)
        length = np.linalg.norm(moved, axis=1)
        edge = np.linalg.norm(step, axis=1) >= 0.99 * radius[runs]
        radius[runs] = np.where(
            ~keep | ~(ratio >= 0.25),
            0.25 * np.where(np.isfinite(length), length, radius[runs]),
            np.where((ratio > 0.75) & edge, 2.0 * radius[runs], radius[runs]),
        )
        kept = runs[keep]
        last_drop[kept] = f[keep] - t_nll[keep]
        theta[kept], nll[kept] = trial[keep], t_nll[keep]
        for state, new in zip((grad, hess, grad_phi, hess_phi), t_derivatives):
            state[kept] = new[keep]
        for r, value in zip(kept, t_nll[keep].tolist()):
            paths[r].append(value)
        stalled = runs[radius[runs] < _MIN_RADIUS]
        for r in stalled:
            stop[r] = _STALLED
        running[stalled] = False

    # per region, the lowest run; one not finite at its start never wins
    lowest = np.argmin(np.where(finite, nll, np.inf).reshape(3, n_regions), axis=0)
    best = lowest * n_regions + np.arange(n_regions)
    return (
        theta[best],
        nll[best],
        grad[best],
        [stop[r] for r in best],
        [paths[r] for r in best],
    )


def _precision_cholesky(spectrum: _Spectrum, lam: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of A = U diag(lam) U^T, from a QR of diag(sqrt lam) U^T.

    A = R^T R for the QR's R, so R^T with its diagonal made positive is the
    factor; unlike a Cholesky of the assembled A it cannot fail when A is
    badly conditioned.
    """
    r = np.linalg.qr(np.sqrt(lam)[:, None] * spectrum.u.T, mode="r")
    return (r * np.sign(np.diag(r))[:, None]).T


# regions named in the not-converged warning; the rest are only counted
_FLAGGED_SHOWN = 5

# A region skips its free-warp run when the normality statistic of its
# identity residuals is below this share of its engagement margin. Checked on
# the standardized columns of seeds 0-3 of the paper and skewed benchmark
# cohorts, with the ln N margin: there the free runs it skips gained at most
# 0.42 of their margin, and every engaged region's statistic was at least
# 1.24 times its margin.
_SCREEN_SHARE = 0.25


def _normality_statistic(residual: np.ndarray) -> np.ndarray:
    """Half the Jarque-Bera statistic, N/12 (S^2 + K^2/4), of each row (D, N).

    S is the skewness and K the excess kurtosis, both from population moments
    (Jarque & Bera 1980). It tracks the evidence a free warp can gain over the
    identity fit; a row with zero variance gives NaN.
    """
    # residuals above about 1e50 overflow the moments, and the NaN or inf
    # statistic that results never screens the region
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = residual - residual.mean(axis=1, keepdims=True)
        d2 = d * d
        m2, m3, m4 = d2.mean(axis=1), (d2 * d).mean(axis=1), (d2 * d2).mean(axis=1)
        skew2, kurt = m3 * m3 / m2**3, m4 / (m2 * m2) - 3.0
        return residual.shape[1] / 12.0 * (skew2 + 0.25 * kurt * kurt)


def _fit_block(
    spectrum: _Spectrum,
    y_rows: np.ndarray,
    mean: np.ndarray,
    sd: np.ndarray,
    regions: Sequence[str],
) -> tuple[list[RegionModel], list[str]]:
    """Fit each row of y_rows (D, N), standardized by its `mean` and `sd`
    (D,), on the design of spectrum; see fit_region.

    Returns the region models and a note for each region not converged. A
    region's model depends only on its own row: every product is row by row.
    """
    n = y_rows.shape[1]
    # the NLL in response units is the standardized one plus N ln SD
    to_response = n * np.log(sd)
    x0 = np.zeros((len(regions), 4))
    x0[:, 1] = -np.log(np.var(y_rows, axis=1))
    theta_id, state, met, paths = _fit_identity(spectrum, y_rows, x0[:, :2])
    margin = _warp_engagement_margin(spectrum, state, theta_id[:, 0])
    pg_id = np.max(
        np.abs(_projected_gradient(theta_id, state.grad, _BOUNDS_FREE[:2])), axis=1
    )
    stationary = _STATIONARY_GRAD_PER_OBS * n
    # a NaN or inf statistic compares False, so it never skips a run
    screened = _normality_statistic(state.residual) < _SCREEN_SHARE * margin

    # one free fit for every region the screen lets through
    won = {}
    rows = np.flatnonzero(~screened)
    if rows.size:
        problem = _WarpedEvidence(spectrum, y_rows[rows])
        leaning = _leaning_start(theta_id[rows], state.residual[rows])
        theta_free, nll_free, grad_free, stop_free, paths_free = _fit_free(
            problem, x0[rows], leaning
        )
        pg_free = np.max(
            np.abs(_projected_gradient(theta_free, grad_free, _BOUNDS_FREE)), axis=1
        )
        wins = np.flatnonzero(nll_free < state.nll[rows] - margin[rows])
        free, z_free, _, nll_won = problem.evaluate(theta_free[wins], wins)
        won = {rows[k]: (k, i) for i, k in enumerate(wins)}

    models = []
    flagged = []
    for d, region in enumerate(regions):
        if d in won:
            k, i = won[d]
            theta, z, nll = theta_free[k], z_free[i], nll_won[i]
            weights, lam, path = free.weights[i], free.lam[i], paths_free[k]
            pg, reason = pg_free[k], stop_free[k]
        else:
            # exact identity warp on fallback
            theta = np.array([theta_id[d, 0], theta_id[d, 1], 0.0, 0.0])
            z, nll = y_rows[d], state.nll[d]
            weights, lam, path = state.weights[d], state.lam[d], paths[d]
            pg, reason = pg_id[d], _MET if met[d] else _HIT_MAX_ITER
        if _scale_at_bound(theta):
            reason = _SCALE_AT_BOUND
        converged = bool(reason == _MET and pg <= stationary)
        if not converged:
            flagged.append(f"'{region}' ({reason}; projected gradient {pg:.3g})")
        shift = float(to_response[d])
        models.append(
            RegionModel(
                region=region,
                weights=spectrum.u @ weights,
                chol_precision=_precision_cholesky(spectrum, lam),
                hyperparams=Hyperparams.from_vector(theta),
                train_z_mean=float(np.mean(z)),
                train_z_var=float(np.var(z)),
                n_train=n,
                response_mean=float(mean[d]),
                response_sd=float(sd[d]),
                converged=converged,
                nll=float(nll) + shift,
                nll_identity=float(state.nll[d]) + shift,
                nll_path=tuple(f + shift for f in path),
                screened=bool(screened[d]),
            )
        )
    return models, flagged


def _fit_regions(
    phi: np.ndarray, responses: np.ndarray, regions: Sequence[str]
) -> tuple[RegionModel, ...]:
    """Fit each column of responses (N, D) on the design phi (N, M); see fit_region.

    Each column is standardized by its mean and population SD, both reduced
    along the rows of the region-major (D, N) copy, so that a column's
    statistics, and with them its model, are bitwise the same whatever
    columns stand beside it (a reduction along axis 0 of (N, D) is not).
    The regions are cut into one contiguous chunk per usable CPU, and every
    chunk after the first is fitted in a forked child
    (serialize._forked_iter). Forked chunks run as every forked iteration
    does: OpenBLAS on one thread, and each chunk held to a usable CPU of its
    own where it does. A region's model does not depend on the regions fitted
    with it, nor on the BLAS thread count, so neither the cut nor the thread
    count changes a bit. Regions flagged as not converged are reported in one
    warning at the end. A region whose squared responses overflow, even as a
    sum, or whose deviations from their mean underflow when squared, cannot be
    fit in double precision and raises NumericalError before any fit runs.
    """
    if not regions:
        raise InputError("no regions to fit: the responses have no region columns")
    n = responses.shape[0]
    y_rows = np.ascontiguousarray(responses.T)
    with np.errstate(over="ignore"):
        sum_sq = np.sum(np.square(y_rows), axis=1)
    for region, y, ss in zip(regions, y_rows, sum_sq):
        if n < 2:
            raise InputError(f"region '{region}': need at least 2 observations")
        # checked before the range, which itself overflows near the largest double
        if np.isinf(ss):
            raise NumericalError(
                f"region '{region}': responses up to {np.max(np.abs(y)):.3g} "
                "overflow when squared; rescale this feature"
            )
        if float(np.ptp(y)) == 0.0:
            raise InputError(f"region '{region}': constant response cannot be fit")
    mean, var = np.mean(y_rows, axis=1), np.var(y_rows, axis=1)
    for region, v in zip(regions, var):
        if v < np.finfo(float).tiny:
            raise NumericalError(
                f"region '{region}': responses vary by an SD of {np.sqrt(v):.3g}, "
                "whose square underflows; rescale this feature"
            )
    sd = np.sqrt(var)
    y_rows = (y_rows - mean[:, None]) / sd[:, None]
    spectrum = _Spectrum.of(phi)
    parts = list(_forked_iter(
        lambda chunk: _fit_block(
            spectrum, y_rows[chunk], mean[chunk], sd[chunk], [regions[d] for d in chunk]
        ),
        _chunk_ranges(len(regions)),
    ))
    flagged = [note for _, notes in parts for note in notes]
    if flagged:
        log.warning(
            "%d region(s) flagged as not converged: %s%s",
            len(flagged),
            ", ".join(flagged[:_FLAGGED_SHOWN]),
            ", ..." if len(flagged) > _FLAGGED_SHOWN else "",
        )
    return tuple(model for models, _ in parts for model in models)


def fit_region(phi: np.ndarray, y: np.ndarray, region: str = "region") -> RegionModel:
    """Fit one region by evidence minimization with an identity-warp fallback.

    The fit runs on y standardized by its mean and population SD, which the
    model keeps as response_mean and response_sd: a response's units and
    offset do not change its fit, and its weights, posterior,
    hyperparameters and train_z_* are in standardized units. `nll`,
    `nll_identity` and `nll_path` are in response units, the standardized
    NLL plus N ln SD. Both fits start at log_alpha = 0, log_beta = -log Var
    of the standardized column and the identity warp. The identity fit runs
    MacKay's fixed point on (log_alpha, log_beta); the free fit runs
    projected trust-region Newton steps on all four hyperparameters from
    that start, from the identity optimum with a warp that leans against the
    skew of its residuals, and from far out on the ridge where the warp
    absorbs the weights, and keeps the lowest of the three (see _fit_free).
    The free fit wins only when it beats the identity optimum by more than
    the reparametrization margin (see _warp_engagement_margin); otherwise
    the identity solution is returned. The free fit is skipped, and
    `screened` set, when half the Jarque-Bera statistic of the identity
    fit's residuals, N/12 (S^2 + K^2/4) with S the skew and K the excess
    kurtosis, is below a quarter of the margin: on residuals that close to
    Gaussian the free fit gains far less than the margin. A non-finite
    statistic never skips it.

    `converged` is True only if the chosen fit met its stopping rule, its
    largest projected-gradient component is at most 0.1 nat per
    observation, and no precision is held at a bound: log_beta at either
    bound or log_alpha at its lower one, where a response that is nearly a
    function of the covariates ends (see _scale_at_bound). A free fit that
    hit max_iter, or whose trust region collapsed first, is not converged.
    `nll_path` is the chosen fit's descent: the NLL of each fixed-point
    iterate, or of the kept run's start and each Newton step it kept, so it
    falls strictly. A fit that is not converged is logged as a warning with
    its stop reason and projected gradient. Responses whose squares overflow,
    or whose SD squared underflows, raise NumericalError. This is the
    one-region case of the engine behind fit_normative, which logs one such
    warning for all its regions; fit_normative gives each region bitwise
    this model.
    """
    phi, y = _region_arrays(phi, y)
    return _fit_regions(phi, y[:, None], (region,))[0]


@dataclass
class RegionPrediction:
    """Per-row latent mean, posterior variance, shared noise variance, and yhat."""

    zhat: np.ndarray
    model_variance: np.ndarray
    noise_variance: float
    yhat: np.ndarray


# regions scored together in one block of a scoring pass; its temporaries
# hold about (M + 10) * _SCORE_BLOCK values per scored row
_SCORE_BLOCK = 16


def _lower_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of each lower-triangular factor of the stack chol (B, M, M).

    Forward substitution, one row of the inverses per step and one product
    per factor, so a factor's inverse is bitwise the same whatever factors
    stand beside it.
    """
    b, m_dim, _ = chol.shape
    inv = np.zeros_like(chol)
    for i in range(m_dim):
        row = np.zeros((b, m_dim))
        row[:, i] = 1.0
        if i:
            row -= np.matmul(chol[:, i : i + 1, :i], inv[:, :i, :])[:, 0, :]
        inv[:, i, :] = row / chol[:, i, i, None]
    return inv


def _warp_rows(
    values: np.ndarray, warps: Sequence[WarpParams], inverse: bool
) -> np.ndarray:
    """warp_forward (or warp_inverse) of each row of values (B, N) by its own
    warp, bitwise as those functions give it; identity rows are copied."""
    out = values.copy()
    rows = [d for d, w in enumerate(warps) if not w.is_identity()]
    if rows:
        epsilon = np.array([[warps[d].epsilon] for d in rows])
        delta = np.array([[np.exp(warps[d].log_delta)] for d in rows])
        out[rows] = (_inverse if inverse else _forward)(values[rows], epsilon, delta)
    return out


def _standardization(models: Sequence[RegionModel]) -> tuple[np.ndarray, np.ndarray]:
    """Each region's response mean and SD as (B, 1) columns."""
    return (
        np.array([[rm.response_mean] for rm in models]),
        np.array([[rm.response_sd] for rm in models]),
    )


def _predict_block(
    models: Sequence[RegionModel], phi_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zhat, posterior variance and yhat (each B, N) of the regions `models`
    at the design rows phi_t.T (phi_t is M, N).

    zhat is one product per region (_rowwise). The posterior variance
    phi^T A^-1 phi is ||L^-1 phi||^2 for the lower Cholesky factor L of A:
    each region's triangular inverse times phi_t, squared and summed over
    its M rows in order. Both are in the latent units of the standardized
    column; yhat, the inverse warp of zhat mapped back by the region's mean
    and SD, is in response units. Nothing mixes regions, so a region's rows
    are bitwise the same in any block.
    """
    weights = np.array([rm.weights for rm in models])
    zhat = _rowwise(weights, phi_t)
    chol = np.array([rm.chol_precision for rm in models])
    half = np.matmul(_lower_inverse(chol), phi_t)
    model_variance = np.square(half[:, 0])
    for i in range(1, half.shape[1]):
        model_variance += np.square(half[:, i])
    mean, sd = _standardization(models)
    yhat = _warp_rows(zhat, [rm.hyperparams.warp for rm in models], inverse=True)
    return zhat, model_variance, mean + sd * yhat


def predict_region(model: RegionModel, phi_star: np.ndarray) -> RegionPrediction:
    """Predict rows phi_star; the posterior variance phi^T A^-1 phi is ||L^-1 phi||^2
    for the bundle's lower Cholesky factor L of A, so it cannot go negative.

    zhat, the posterior variance and the noise variance are in the latent
    units of the region's standardized column: a response y maps to
    z = warp((y - response_mean) / response_sd). yhat is in response units,
    response_mean + response_sd * warp_inverse(zhat). This is the
    one-region case of the engine behind deviations: L^-1 by forward
    substitution, then one product with the design, and the scoring pass
    gives each region bitwise these values.
    """
    phi_star = np.atleast_2d(np.asarray(phi_star, dtype=float))
    if phi_star.shape[1] != model.weights.shape[0]:
        raise SchemaError(
            f"region '{model.region}': design has {phi_star.shape[1]} columns "
            f"but the model expects {model.weights.shape[0]}"
        )
    phi_t = np.ascontiguousarray(phi_star.T)
    zhat, model_variance, yhat = _predict_block([model], phi_t)
    return RegionPrediction(
        zhat=zhat[0],
        model_variance=model_variance[0],
        noise_variance=1.0 / model.hyperparams.beta,
        yhat=yhat[0],
    )


@dataclass(eq=False)
class NormativeModel:
    """All fitted regions plus the shared design schema and provenance."""

    region_models: tuple[RegionModel, ...]
    config: ModelConfig
    schema: DesignSchema
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        m_dim = self.schema.n_columns
        for rm in self.region_models:
            if rm.weights.shape != (m_dim,) or rm.chol_precision.shape != (m_dim, m_dim):
                raise SchemaError(
                    f"region '{rm.region}' has weights of shape {rm.weights.shape} and "
                    f"chol_precision of shape {rm.chol_precision.shape}, but the schema "
                    f"defines {m_dim} columns"
                )

    @property
    def region_names(self) -> tuple[str, ...]:
        return tuple(rm.region for rm in self.region_models)


def fit_normative(
    train: Cohort,
    config: ModelConfig | None = None,
    workers: int = 1,
    seed: int | None = None,
) -> NormativeModel:
    """Fit every region of the training cohort on one shared design.

    Regions are independent models that share the design's eigenbasis. The
    regions are cut into one contiguous chunk per usable CPU (one chunk
    unless on Linux with no other Python thread running), and every chunk
    after the first is fitted in a forked child (see serialize._forked_iter).
    Within a chunk, all identity-warp fits run together as one batched fixed
    point, then all regions whose identity residuals fail the normality
    screen run their free-warp fits together as one batched Newton solve.
    Each region is fitted on its column standardized by the column's own
    mean and SD (see fit_region for the standardization, the screen, what
    `converged` and `nll_path` mean, and the rule that picks between the
    fits). Every product is taken row by row, so each region's model is
    bitwise that of fit_region on its column alone, for any cut. No option selects the cut. `workers`
    is accepted for compatibility and ignored; results never depended on
    it. Regions that did not converge are reported in one warning. A cohort
    with no regions raises InputError. Clamped ages are not reported here:
    deviations counts them for each cohort it scores, so
    fit_metrics(model, train) reports the training cohort's.
    """
    config = config or ModelConfig()
    dm = fit_design(train, config)
    region_models = _fit_regions(dm.values, train.responses, train.regions)
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
    variance + model variance) on the latent scale, where a response y maps
    to z = warp((y - response_mean) / response_sd); E = y - yhat in response
    units; and log_loss is the per-cell log loss of the model minus that of
    the training-baseline Gaussian, so its column means are the MSLL. y holds
    the responses, a view of the cohort's when the region orders agree, and
    clamped counts the ages clamped to the model's knot range. Fit metrics
    and parity are reductions of this result over rows and columns.
    """

    ids: tuple[str, ...]
    regions: tuple[str, ...]
    Z: np.ndarray
    E: np.ndarray
    yhat: np.ndarray
    log_loss: np.ndarray
    y: np.ndarray
    clamped: int = 0


def _check_regions(model: NormativeModel, cohort: Cohort) -> list[int]:
    """Column index into cohort responses for each model region, in model order."""
    cohort_idx = {r: i for i, r in enumerate(cohort.regions)}
    names = model.region_names
    missing = [r for r in names if r not in cohort_idx]
    in_model = set(names)
    extra = [r for r in cohort.regions if r not in in_model]
    if missing or extra:
        raise SchemaError(
            f"region mismatch: missing from cohort {missing[:10]}, "
            f"not in model {extra[:10]}"
        )
    return [cohort_idx[r] for r in names]


def _log_loss_terms(
    z: np.ndarray,
    zhat: np.ndarray,
    var_pred: np.ndarray,
    baseline_mean: float,
    baseline_var: float,
) -> np.ndarray:
    """Per-cell log loss of the model minus that of the training-baseline Gaussian."""
    model_ll = 0.5 * np.log(2.0 * np.pi * var_pred) + np.square(z - zhat) / (
        2.0 * var_pred
    )
    base_ll = 0.5 * np.log(2.0 * np.pi * baseline_var) + np.square(
        z - baseline_mean
    ) / (2.0 * baseline_var)
    return model_ll - base_ll


def _score_block(
    models: Sequence[RegionModel], phi_t: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Z, E, yhat and log loss (each B, N) of the responses y (B, N), one row
    per region of `models`, at the design rows phi_t.T; see deviations."""
    zhat, model_variance, yhat = _predict_block(models, phi_t)
    mean, sd = _standardization(models)
    z = _warp_rows((y - mean) / sd, [rm.hyperparams.warp for rm in models], inverse=False)
    noise = np.array([[1.0 / rm.hyperparams.beta] for rm in models])
    var_pred = noise + model_variance
    log_loss = _log_loss_terms(
        z,
        zhat,
        var_pred,
        np.array([[rm.train_z_mean] for rm in models]),
        np.array([[rm.train_z_var] for rm in models]),
    )
    return (z - zhat) / np.sqrt(var_pred), y - yhat, yhat, log_loss


def deviations(model: NormativeModel, cohort: Cohort) -> DeviationMatrix:
    """Score a cohort against the reference model: the one scoring pass.

    Builds the design once and scores the regions in blocks of _SCORE_BLOCK:
    each block takes its responses region-major, predicts every region of
    it at once (_predict_block: one product per region for zhat, and its
    triangular inverse of the Cholesky factor times the design for the
    posterior variance), warps only its non-identity regions, and writes
    its columns of the four (N, D) results, so temporaries stay at N times
    the block. No product mixes regions: a region's columns are bitwise
    those of a one-region model, and predict_region gives bitwise its zhat,
    variance and yhat. fit_metrics and parity reduce the result instead of
    scoring again. Ages outside the model's knot range are clamped, and
    their count is logged here, once per pass, as a warning.
    """
    cols = _check_regions(model, cohort)
    design = apply_design(cohort, model.schema)
    if design.clamp_count:
        log.warning("clamped %d age(s) outside the fitted range", design.clamp_count)
    phi_t = np.ascontiguousarray(design.values.T)
    responses = cohort.responses
    if cols != list(range(cohort.n_regions)):
        responses = responses[:, cols]
    results = tuple(np.empty(responses.shape) for _ in range(4))
    for start in range(0, responses.shape[1], _SCORE_BLOCK):
        block = slice(start, start + _SCORE_BLOCK)
        y = np.ascontiguousarray(responses[:, block].T)
        for out, rows in zip(results, _score_block(model.region_models[block], phi_t, y)):
            out[:, block] = rows.T
    z_scores, errors, yhats, log_loss = results
    return DeviationMatrix(
        ids=cohort.ids,
        regions=model.region_names,
        Z=z_scores,
        E=errors,
        yhat=yhats,
        log_loss=log_loss,
        y=responses,
        clamped=design.clamp_count,
    )


def _region_major(*columns: np.ndarray, rows=slice(None)):
    """Region-major copies of `rows` of the (N, D) arrays `columns`, a block
    of _SCORE_BLOCK regions at a time: yields each block's list of
    contiguous (B, rows) arrays. A reduction along their rows is bitwise that
    of the same column alone; one along the columns of an (N, D) array is
    not."""
    for start in range(0, columns[0].shape[1], _SCORE_BLOCK):
        block = slice(start, start + _SCORE_BLOCK)
        yield [np.ascontiguousarray(a[rows, block].T) for a in columns]


def _explained_variances(y: np.ndarray, yhat: np.ndarray) -> list[float | None]:
    """explained_variance of each row of y and yhat (B, n)."""
    var_y = np.var(y, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = 1.0 - np.var(y - yhat, axis=1) / var_y
    return [None if v == 0.0 else float(e) for v, e in zip(var_y, ev)]


def explained_variance(y: np.ndarray, yhat: np.ndarray) -> float | None:
    """1 - Var(y - yhat)/Var(y) with population variances; None when Var(y) = 0."""
    y = np.asarray(y, dtype=float)
    return _explained_variances(y[None, :], np.asarray(yhat, dtype=float)[None, :])[0]


@dataclass
class RegionFitMetrics:
    region: str
    explained_variance: float | None
    msll: float
    skew: float
    kurtosis: float


def _skew_kurtosis(z: np.ndarray) -> list[tuple[float, float]]:
    """Biased skew and excess kurtosis of each row of z (B, n), as scipy.stats
    computes them.

    The central moments are formed in scipy's order of operations, so the
    results are bitwise equal to scipy.stats.skew and scipy.stats.kurtosis;
    a row whose variance is zero to within rounding of its mean gives NaN.
    """
    mean = z.mean(axis=1, keepdims=True)
    d = z - mean
    d2 = d**2
    m2, m3, m4 = np.mean(d2, axis=1), np.mean(d2 * d, axis=1), np.mean(d2**2, axis=1)
    out = []
    with np.errstate(all="ignore"):
        # scalar powers: an array power rounds differently from scipy's
        for mu, m2, m3, m4 in zip(mean[:, 0], m2, m3, m4):
            if m2 <= (np.finfo(float).eps * mu) ** 2:
                out.append((np.nan, np.nan))
            else:
                out.append((float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)))
    return out


def region_metrics(dm: DeviationMatrix) -> list[RegionFitMetrics]:
    """Per-region fit quality: EV, MSLL, and Z-moment diagnostics.

    Each field is a reduction of one column of the scoring pass, taken
    along the rows of a region-major copy (_region_major).
    """
    evs, mslls, moments = [], [], []
    for y, yhat, log_loss, z in _region_major(dm.y, dm.yhat, dm.log_loss, dm.Z):
        evs += _explained_variances(y, yhat)
        mslls += np.mean(log_loss, axis=1).tolist()
        moments += _skew_kurtosis(z)
    return [
        RegionFitMetrics(
            region=region,
            explained_variance=ev,
            msll=msll,
            skew=skew,
            kurtosis=kurtosis,
        )
        for region, ev, msll, (skew, kurtosis) in zip(dm.regions, evs, mslls, moments)
    ]


def fit_metrics(model: NormativeModel, cohort: Cohort) -> list[RegionFitMetrics]:
    """Per-region fit quality on a cohort: region_metrics of one deviations() pass."""
    return region_metrics(deviations(model, cohort))


def group_fit(dm: DeviationMatrix, groups: Sequence[str]) -> dict[str, dict]:
    """Per-group fit quality of a scoring pass, the model half of group_parity.

    groups labels the pass's rows. For each distinct label, in sorted order:
    its row count n, the mean over regions of the explained variance of its
    rows (regions whose responses do not vary there are left out; None if
    none is left) and its MSLL, the mean over regions of each region's mean
    log loss. Each region's metric is reduced along the rows of a
    region-major copy (_region_major), bitwise as explained_variance and
    np.mean give it for the group's rows of that column alone.
    """
    group_arr = np.asarray(list(groups))
    if group_arr.shape[0] != dm.y.shape[0]:
        raise InputError(
            f"{group_arr.shape[0]} group labels for {dm.y.shape[0]} scored rows"
        )
    fit: dict[str, dict] = {}
    for label in sorted(set(group_arr.tolist())):
        mask = group_arr == label
        evs, mslls = [], []
        for y, yhat, log_loss in _region_major(dm.y, dm.yhat, dm.log_loss, rows=mask):
            evs += _explained_variances(y, yhat)
            mslls.append(np.mean(log_loss, axis=1))
        evs = [ev for ev in evs if ev is not None]
        fit[label] = {
            "n": int(np.count_nonzero(mask)),
            "explained_variance": float(np.mean(evs)) if evs else None,
            "msll": float(np.mean(np.concatenate(mslls))),
        }
    return fit


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
    """Inverse of save_bundle; numeric state is restored bit-for-bit.

    A missing key or a bad value in a bundle file raises SchemaError naming it.
    """
    bundle = Path(bundle_dir)
    read = bundle / MODEL_FILE  # the file being read when an error is raised
    meta = load_json(read)
    try:
        if meta.get("format") != _BUNDLE_FORMAT:
            raise SchemaError("not a model bundle")
        try:
            config = ModelConfig.from_dict(meta["config"])
        except InputError as exc:  # a value BasisConfig or ModelConfig rejects
            raise SchemaError(str(exc)) from None
        schema = DesignSchema.from_dict(meta["design_schema"])
        listed = list(meta["regions"])
        provenance = meta["provenance"]
        read = bundle / REGIONS_FILE
        region_models = tuple(
            RegionModel.from_dict(d) for d in load_json(read)["regions"]
        )
    except SchemaError as exc:
        raise SchemaError(f"{read}: {exc}") from None
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise SchemaError(
            f"{read}: malformed model bundle ({type(exc).__name__}: {exc})"
        ) from None
    if listed != [rm.region for rm in region_models]:
        raise SchemaError(f"{bundle}: region lists disagree between bundle files")
    return NormativeModel(
        region_models=region_models,
        config=config,
        schema=schema,
        provenance=provenance,
    )
