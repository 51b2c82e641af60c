"""Null tetrad algebra: Weyl duals and null decomposition, Gauss-equation
closure and the exterior-zone frame-transformation identities for the
sphere-adapted tetrads.

Orientation convention: the volume form is fixed by eps_{0123} = +sqrt(-det g)
in coordinates (t, x1, x2, x3).  The sign of sigma flips with orientation, so
identities stated as vanishing are asserted on |sigma|.

Null decomposition (e4 = L-like, e3 = Lb-like, eA orthonormal on the sphere):

    alphab(A,B) = W(e_A, e_3, e_B, e_3)     betab(A) = W(e_A, e_3, e_3, e_4)/2
    varrho      = W(e_3, e_4, e_3, e_4)/4   sigma    = *W(e_3, e_4, e_3, e_4)/4
    beta(A)     = W(e_A, e_4, e_3, e_4)/2   alpha(A,B) = W(e_A, e_4, e_B, e_4)
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadTetrad, Horizon, OutsideZs
from .foliation import _sphere_pairs, frames_at
from .metric import _optical_mass_terms, curvature_at

TETRAD_TOL = 1e-9


def _levi_civita4():
    eps = np.zeros((4, 4, 4, 4))
    from itertools import permutations
    for p in permutations(range(4)):
        sign = 1.0
        pl = list(p)
        for i in range(4):
            for j in range(i + 1, 4):
                if pl[i] > pl[j]:
                    sign = -sign
        eps[p] = sign
    return eps

_EPS4 = _levi_civita4()


@dataclass
class NullTetrad:
    e4: np.ndarray
    e3: np.ndarray
    eA: np.ndarray          # (2, 4)

    def validate(self, g):
        e4, e3, eA = self.e4, self.e3, self.eA
        checks = [
            abs(e4 @ g @ e3 + 2.0),
            abs(e4 @ g @ e4),
            abs(e3 @ g @ e3),
            abs(eA[0] @ g @ eA[0] - 1.0),
            abs(eA[1] @ g @ eA[1] - 1.0),
            abs(eA[0] @ g @ eA[1]),
            abs(eA[0] @ g @ e3), abs(eA[0] @ g @ e4),
            abs(eA[1] @ g @ e3), abs(eA[1] @ g @ e4),
        ]
        if max(checks) > TETRAD_TOL:
            raise BadTetrad(f"tetrad residual {max(checks):.3e} exceeds "
                            f"{TETRAD_TOL:g}")


@dataclass
class WeylNull:
    alpha: np.ndarray       # (2,2) symmetric trace-free
    beta: np.ndarray        # (2,)
    varrho: float
    sigma: float
    betab: np.ndarray
    alphab: np.ndarray


def left_dual(W, g_inv, sqrt_det):
    """*W_abcd = (1/2) eps_abmn W^mn_cd with eps_0123 = +sqrt(-det g)."""
    Wud = np.einsum('ma,nb,abcd->mncd', g_inv, g_inv, W)
    return 0.5 * sqrt_det * np.einsum('abmn,mncd->abcd', _EPS4, Wud)


def right_dual(W, g_inv, sqrt_det):
    Wud = np.einsum('cm,dn,abmn->abcd', g_inv, g_inv, W)
    return 0.5 * sqrt_det * np.einsum('abmn,mncd->abcd', Wud, _EPS4)


def null_decompose(jet, tetrad):
    """Null decomposition of the jet's Weyl tensor at its point."""
    W = jet.weyl
    tetrad.validate(jet.g)
    e4, e3, eA = tetrad.e4, tetrad.e3, tetrad.eA
    Wd = left_dual(W, jet.g_inv, jet.sqrt_det)
    c = lambda T, a, b, cc, d: np.einsum('abcd,a,b,c,d->', T, a, b, cc, d)
    alpha = np.array([[c(W, eA[A], e4, eA[B], e4) for B in range(2)]
                      for A in range(2)])
    alphab = np.array([[c(W, eA[A], e3, eA[B], e3) for B in range(2)]
                       for A in range(2)])
    beta = 0.5 * np.array([c(W, eA[A], e4, e3, e4) for A in range(2)])
    betab = 0.5 * np.array([c(W, eA[A], e3, e3, e4) for A in range(2)])
    varrho = 0.25 * c(W, e3, e4, e3, e4)
    sigma = 0.25 * c(Wd, e3, e4, e3, e4)
    return WeylNull(alpha=alpha, beta=beta, varrho=float(varrho),
                    sigma=float(sigma), betab=betab, alphab=alphab)


def gauss_residual(K, trchi, trchib, chihat, chibhat, w_llbllb):
    """Residual of the sphere Gauss equation in vacuum, where the angular
    Schouten term vanishes: K + trchi trchib / 4 - chihat.chibhat / 2
    + W(L,Lb,L,Lb)/4, over the leading axes of its arguments."""
    dot = np.sum(np.asarray(chihat) * np.asarray(chibhat), axis=(-2, -1))
    return K + 0.25 * trchi * trchib - 0.5 * dot + 0.25 * w_llbllb


def schwarzschild_closed_forms(M, r):
    """Exterior-zone closed forms for the static sphere-adapted tetrad."""
    if r <= 2.0 * M:
        raise Horizon(f"r={r:.6g} is at or inside the horizon 2M={2*M:.6g}")
    R = r + 2.0 * M
    return {
        "varrho_hat_n4": -4.0 * M / R**3,
        "trchi_s": 2.0 / R,
        "trchib_s": -2.0 / R,
        "K_sphere": 1.0 / R**2,
        "gamma_r": r + _optical_mass_terms(M, r)[0],
    }


def hat_tetrad(jet):
    """Static canonical tetrad {n^-1 Lhat, n^-1 Lbhat, ehat_A} at the jet point."""
    x = jet.x
    r = float(np.linalg.norm(x[1:]))
    n = float(jet.lapse)
    rad = np.zeros(4)
    rad[1:] = x[1:] / r
    Lhat = np.zeros(4)
    Lhat[0] = 1.0
    Lhat[1:] = n * n * rad[1:]
    Lbhat = np.zeros(4)
    Lbhat[0] = 1.0
    Lbhat[1:] = -n * n * rad[1:]
    # sphere pair: the spatial axes least aligned with rad, orthogonalized
    # against the g-unit radial vector
    g = jet.g
    radu = rad / np.sqrt(rad @ g @ rad)
    eA = _sphere_pairs(g[None], radu[None, None])[0]
    return NullTetrad(e4=Lhat / n, e3=Lbhat / n, eA=eA)


def intrinsic_tetrad(frames):
    """Canonical tetrad {L, Lb, eA} of the hyperboloidal foliation."""
    return NullTetrad(e4=frames.L, e3=frames.Lb, eA=frames.eA)


def varrho_consistency(model, rec, rho):
    """Two computation paths for varrho in the exterior zone, plus betab.

    Direct: null decomposition of the pointwise Weyl tensor in the intrinsic
    tetrad.  Formula: varrho = n^-4 varrho_hat (1 + (3/2)(n^-2 varpi^2 - 1)),
    betab_A = -(3/2) n^-6 varpi varrho_hat e_A(r).
    """
    frames = frames_at(model, rec, rho)
    r, varpi, snr = frames.r, frames.varpi, frames.snr
    if model.kind != "schwarzschild" and r < model.r_out:
        raise OutsideZs(f"r={r:.6g} below the exterior zone r_out={model.r_out:.6g}")
    jet = curvature_at(model, frames.x)
    dec = null_decompose(jet, intrinsic_tetrad(frames))
    n = float(jet.lapse)
    vr_hat_n4 = -4.0 * model.mass / (r + 2.0 * model.mass) ** 3
    varrho_formula = vr_hat_n4 * (1.0 + 1.5 * ((varpi / n) ** 2 - 1.0))
    betab_formula = -1.5 * vr_hat_n4 * varpi * snr / n**2
    return {
        "varrho_direct": dec.varrho,
        "varrho_formula": float(varrho_formula),
        "betab_direct": dec.betab,
        "betab_formula": betab_formula,
        "dec": dec,
        "varpi": varpi,
        "snr": snr,
    }
