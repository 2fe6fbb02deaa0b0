"""Gauss-Jacobi rules for the weight (1-x)^alpha (1+x)^beta on (-1, 1).

One Golub-Welsch start (Golub and Welsch, Math. Comp. 23, 1969) and one Newton
polish, in numpy alone, serve both of the package's rules: the grid's nodes
(``zonal``) and the radial moments' rules (``bubbles``).  The start is
float64; the polish runs in the dtype of the nodes it is given.
"""

import numpy as np


def jacobi_start(size: int, alpha: float, beta: float) -> np.ndarray:
    """The zeros of P_size^(alpha, beta), ascending, to float64 accuracy.

    They are the eigenvalues of the symmetric Jacobi matrix of the monic
    recurrence: the diagonal (beta^2 - alpha^2) / (s (s+2)), s = 2k+alpha+beta,
    which is (beta - alpha) / (alpha + beta + 2) at k = 0, and the couplings
    2/s sqrt(k (k+alpha) (k+beta) (k+alpha+beta) / ((s+1)(s-1))) of rows k-1
    and k.
    """
    k = np.arange(1, size, dtype=float)
    s = 2 * k + alpha + beta
    diag = np.r_[(beta - alpha) / (alpha + beta + 2),
                 (beta - alpha) * (beta + alpha) / (s * (s + 2))]
    off = 2 / s * np.sqrt(k * (k + alpha) * (k + beta) * (k + alpha + beta) / ((s + 1) * (s - 1)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def jacobi_polish(x: np.ndarray, alpha, beta, size: int) -> tuple[np.ndarray, np.ndarray]:
    """One Newton step toward the zeros of P_size^(alpha, beta), in x's dtype,
    as (x', w): the stepped nodes and the Gauss weights at x up to a common
    factor, w = 1 / ((1-x^2) P'(x)^2).

    One pass of the three-term recurrence (DLMF 18.9.2) ends with P_{N-1} and
    P_N, and (2N+alpha+beta)(1-x^2) P_N'
    = N (alpha-beta - (2N+alpha+beta) x) P_N + 2 (N+alpha)(N+beta) P_{N-1}
    gives the derivative.  Pass alpha and beta in x's dtype: the recurrence's
    coefficients are formed from them.
    """
    ab = alpha + beta
    prev, cur = np.ones_like(x), ((ab + 2) * x + (alpha - beta)) / 2
    for k in range(2, size + 1):
        s = 2 * k + ab
        scale = 2 * k * (k + ab) * (s - 2)
        prev, cur = cur, ((s - 1) * (alpha * alpha - beta * beta + s * (s - 2) * x) * cur
                          - 2 * (k + alpha - 1) * (k + beta - 1) * s * prev) / scale
    s = 2 * size + ab
    deriv = (size * (alpha - beta - s * x) * cur
             + 2 * (size + alpha) * (size + beta) * prev) / (s * (1 - x * x))
    return x - cur / deriv, 1 / ((1 - x * x) * deriv * deriv)
