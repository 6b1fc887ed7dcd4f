"""The tests' one exact oracle: every reference computed past float precision.

Each function reads only the floats it is handed (a point set's rows and
masses, or a pencil's poles, frame and centre) and nothing of ``confocalfit``.
It works in one mpmath context at ``DIGITS`` digits, and so does a test's own
arithmetic on the numbers it returns, such as ``abs(want - got)``.
"""

import mpmath
import numpy as np

# a root within 1e-40 of a pole of size 1 keeps 40 digits of its distance to it
DIGITS = 80
mp = mpmath.MPContext()
mp.dps = DIGITS


def _numbers(values):
    return [mp.mpf(v) for v in np.asarray(values, dtype=float).tolist()]


def centroid(rows, masses):
    """The mass-weighted mean of the rows."""
    masses = _numbers(masses)
    return [mp.fdot(masses, col) / mp.fsum(masses) for col in np.transpose(rows).tolist()]


def scatter(rows, masses, point):
    """A(P) = sum_j m_j (x_j - P)(x_j - P)^T, summed from the rows as given;
    A(c) is ``scatter(rows, masses, centroid(rows, masses))``."""
    d = [[mp.mpf(x) - p for x in col] for col, p in zip(np.transpose(rows).tolist(), point)]
    md = [[m * v for m, v in zip(_numbers(masses), col)] for col in d]
    return mp.matrix([[mp.fdot(a, b) for b in d] for a in md])


def eigen(a):
    """Ascending eigenvalues of the symmetric ``a`` and its eigenvector columns."""
    values, vectors = mp.eigsy(mp.matrix(a))
    return list(values), [list(vectors[:, i]) for i in range(vectors.cols)]


def from_principal(origin, frame, x):
    """The point origin + frame x."""
    return [o + mp.fdot(row, x) for o, row in zip(origin, np.asarray(frame).tolist())]


def row_moment(rows, masses, flat):
    """``(moment, spread)`` of ``flat`` as stored, summed over the rows: its
    moment, and sum_j m_j |r_j| s_j, where the distance r_j of row j cancels
    terms of size s_j (|n_i x_i| and |d| for a hyperplane {n.x = d}, |x - b|
    for a flat through b)."""
    moment = spread = mp.mpf(0)
    for x, m in zip(np.asarray(rows).tolist(), _numbers(masses)):
        if hasattr(flat, "normal"):
            terms = [mp.mpf(a) * b for a, b in zip(flat.normal.tolist(), x)]
            r, s = mp.fsum(terms) - flat.offset, mp.fsum(map(abs, terms)) + abs(flat.offset)
        else:
            diff = mp.matrix(x) - mp.matrix(flat.base_point.tolist())
            basis = mp.matrix(flat.basis.tolist())
            r, s = mp.norm(diff - basis * (basis.T * diff)), mp.norm(diff)
        moment += m * r * r
        spread += m * abs(r) * s
    return moment, spread


def directional(rows, masses, point, w):
    """``(moment, normal)`` of the directional fit through ``point``: the
    minimum over n of n^T A(P) n |w|^2 / (w.n)^2 is |w|^2 / (w^T A(P)^-1 w),
    at n along A(P)^-1 w."""
    w = mp.matrix(list(w))
    x = mp.lu_solve(scatter(rows, masses, point), w)
    return (w.T * w)[0] / (w.T * x)[0], [v / mp.norm(x) for v in x]


def whitened_minimum(rows, masses, point, cov):
    """The smallest eigenvalue of W A(P) W, with W = cov^(-1/2)."""
    values, vectors = mp.eigsy(mp.matrix(np.asarray(cov).tolist()))
    white = vectors * mp.diag([1 / mp.sqrt(v) for v in values]) * vectors.T
    return eigen(white * scatter(rows, masses, point) * white)[0][0]


def secular(z, poles):
    """Ascending roots of sum_i z_i/(p_i - lam) = 1, the differences
    p_i - lam_j, and each root's rounding radius (sum_i |t_i| + 1) / g' with
    t_i = z_i/(p_i - lam): the distance over which rounding each term once
    moves the root.  The roots are the eigenvalues of diag(p) - x x^T with
    x_i = sqrt(z_i) (Golub 1973)."""
    x = mp.matrix([mp.sqrt(v) for v in z])
    p = [mp.mpf(v) for v in poles]
    roots = sorted(mp.eigsy(mp.diag(p) - x * x.T, eigvals_only=True))
    radii = []
    for lam in roots:
        terms = [xi**2 / (pi - lam) for xi, pi in zip(x, p)]
        slope = mp.fsum(t / (pi - lam) for t, pi in zip(terms, p))
        radii.append((mp.fsum(abs(t) for t in terms) + 1) / slope)
    return roots, [[pi - lam for lam in roots] for pi in p], radii


def caustics(pencil, line):
    """Ascending tangency parameters of a line, from the pencil's poles, frame
    and centre (with its residual) and the line's base point and direction:
    the eigenvalues of U^T (diag(p) - q q^T) U, where q is the base point in
    the principal frame and U spans the complement of the direction."""
    frame = mp.matrix(pencil.frame.tolist())
    base = zip(line.base_point.tolist(), pencil.center.tolist(), pencil.center_residual.tolist())
    q = frame.T * mp.matrix([mp.mpf(b) - c - r for b, c, r in base])
    v = frame.T * mp.matrix(line.basis[:, 0].tolist())
    cols = mp.eye(len(pencil.poles))
    cols[:, 0] = v / mp.norm(v)
    u = mp.qr(cols)[0][:, 1:]
    return eigen(u.T * (mp.diag(pencil.poles.tolist()) - q * q.T) * u)[0]


def f_tail(x, df1, df2):
    """P(F_{df1, df2} > x), or for an infinite ``df2`` the chi-square limit
    P(chi2_df1 > df1 x)."""
    x, d1 = mp.mpf(x), mp.mpf(df1)
    if mp.isinf(df2):
        return mp.gammainc(d1 / 2, d1 * x / 2, mp.inf, regularized=True)
    a, b, z = mp.mpf(df2) / 2, d1 / 2, df2 / (df2 + d1 * x)
    try:
        return mp.betainc(a, b, 0, z, regularized=True)
    except mp.NoConvergence:  # deep tails at large df2: positive-term series
        series = mp.hyp2f1(a + b, 1, a + 1, z, maxterms=10**6)
        return z**a * (1 - z) ** b * series / (a * mp.beta(a, b))
