"""Cholesky reference of the warped evidence, and per-region scoring: the
oracles for the fitting and scoring engines.

normgauge.blr evaluates the evidence in the eigenbasis of Phi^T Phi with the
warp inlined. This module evaluates the same NLL and gradient the textbook
way, through a Cholesky factor of A = alpha I + beta Phi^T Phi, and warps
through warp_forward and warp_log_jacobian. A test that compares the two
checks the engine's algebra and its inlined warp against the warp module.

warp_derivative and warp_log_jacobian are the closed forms of the warp's
derivative, the oracle for the Jacobian that the engine computes inline;
engine_evidence evaluates the engine itself at one region and one setting.

reference_deviations scores a cohort one region at a time, as deviations did
before it scored blocks of regions: the posterior variance from a general LU
solve against the Cholesky factor, and each column standardized by its
region's response mean and SD, then warped by warp_forward and warp_inverse.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from normgauge import (
    Cohort,
    DeviationMatrix,
    Hyperparams,
    NormativeModel,
    WarpParams,
    apply_design,
    warp_forward,
    warp_inverse,
)
from normgauge.blr import _Spectrum, _WarpedEvidence
from normgauge.errors import NumericalError

LN_2PI = float(np.log(2.0 * np.pi))


def warp_derivative(y: np.ndarray | float, params: WarpParams) -> np.ndarray | float:
    """df/dy evaluated at y; strictly positive."""
    y = np.asarray(y, dtype=float)
    if params.is_identity():
        return np.ones_like(y)
    delta = np.exp(params.log_delta)
    u = delta * np.arcsinh(y) - params.epsilon
    return delta * np.cosh(u) / np.sqrt(1.0 + np.square(y))


def warp_log_jacobian(y: np.ndarray | float, params: WarpParams) -> np.ndarray | float:
    """log f'(y), computed without overflow for large |u| via logaddexp."""
    y = np.asarray(y, dtype=float)
    if params.is_identity():
        return np.zeros_like(y)
    delta = np.exp(params.log_delta)
    u = delta * np.arcsinh(y) - params.epsilon
    log_cosh = np.logaddexp(u, -u) - np.log(2.0)
    return params.log_delta + log_cosh - 0.5 * np.log1p(np.square(y))


def engine_evidence(phi: np.ndarray, y: np.ndarray, h: Hyperparams):
    """NLL and gradient of one region at h, from the engine that fits.

    The gradient is wrt (log_alpha, log_beta, epsilon, log_delta).
    """
    theta = np.array([[h.log_alpha, h.log_beta, h.warp.epsilon, h.warp.log_delta]])
    spectrum = _Spectrum.of(np.asarray(phi, dtype=float))
    y_rows = np.asarray(y, dtype=float)[None, :]
    nll, grad = _WarpedEvidence(spectrum, y_rows).derivatives(theta)[:2]
    return float(nll[0]), grad[0]


@dataclass
class EvidenceState:
    """Posterior and evidence pieces at one hyperparameter setting."""

    z: np.ndarray
    m: np.ndarray
    chol: np.ndarray
    residual: np.ndarray
    rss: float
    nll: float


class CholeskyEvidence:
    """Evidence of one region, design phi (N, M) and responses y (N,)."""

    def __init__(self, phi: np.ndarray, y: np.ndarray):
        self.phi = np.asarray(phi, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.n, self.m_dim = self.phi.shape
        self.gram = self.phi.T @ self.phi
        self.asinh_y = np.arcsinh(self.y)
        self.eye = np.eye(self.m_dim)

    def state(self, h: Hyperparams) -> EvidenceState:
        alpha, beta = h.alpha, h.beta
        z = warp_forward(self.y, h.warp)
        log_jac_sum = float(np.sum(warp_log_jacobian(self.y, h.warp)))
        a_mat = alpha * self.eye + beta * self.gram
        try:
            chol = sla.cholesky(a_mat, lower=True)
        except sla.LinAlgError:
            raise NumericalError(
                f"posterior precision not positive definite "
                f"(alpha={alpha:.3g}, beta={beta:.3g})"
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
        return EvidenceState(
            z=z, m=m, chol=chol, residual=residual, rss=rss, nll=float(nll)
        )

    def grad(self, h: Hyperparams, st: EvidenceState) -> np.ndarray:
        """Analytic gradient wrt (log_alpha, log_beta, epsilon, log_delta)."""
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


def reference_deviations(model: NormativeModel, cohort: Cohort) -> DeviationMatrix:
    """The scoring pass of deviations, one region at a time."""
    phi = apply_design(cohort, model.schema).values
    columns = [cohort.regions.index(r) for r in model.region_names]
    responses = cohort.responses[:, columns]
    z_scores, errors, yhats, log_loss = (np.empty(responses.shape) for _ in range(4))
    for j, rm in enumerate(model.region_models):
        warp = rm.hyperparams.warp
        y = responses[:, j]
        zhat = phi @ rm.weights
        half_solved = np.linalg.solve(rm.chol_precision, phi.T)
        var_pred = 1.0 / rm.hyperparams.beta + np.einsum("ij,ij->j", half_solved, half_solved)
        z = warp_forward((y - rm.response_mean) / rm.response_sd, warp)
        yhats[:, j] = rm.response_mean + rm.response_sd * warp_inverse(zhat, warp)
        z_scores[:, j] = (z - zhat) / np.sqrt(var_pred)
        errors[:, j] = y - yhats[:, j]
        model_ll = 0.5 * np.log(2.0 * np.pi * var_pred) + (z - zhat) ** 2 / (2.0 * var_pred)
        base_ll = 0.5 * np.log(2.0 * np.pi * rm.train_z_var) + (z - rm.train_z_mean) ** 2 / (
            2.0 * rm.train_z_var
        )
        log_loss[:, j] = model_ll - base_ll
    return DeviationMatrix(
        ids=cohort.ids,
        regions=model.region_names,
        Z=z_scores,
        E=errors,
        yhat=yhats,
        log_loss=log_loss,
        y=responses,
    )
