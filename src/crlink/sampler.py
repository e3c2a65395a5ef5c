"""Float sampling of chain segments and tetrahedron faces, with numpy.

The float edge of the package, used by mesh export and the face-disjointness
witness and never by a certificate.  Inputs are float points (z, t) of
machine numbers, or None for infinity; sampled curves are arrays of shape
(n, 3) holding (Re z, Im z, t).  Each chain is solved once, and the chains
of all rays of a face are solved together as arrays.

numpy is imported with this module, which `crlink.tetra` loads on the first
sampling call, so the exact code paths never import it.
"""

from __future__ import annotations

import math

import numpy as np

from .heisenberg import DEFAULT_FLOAT_TOL as TOL
from .heisenberg import CoincidentPointsError, GeometryError

TWO_PI = 2 * math.pi


def unit_params(count: int) -> np.ndarray:
    """`count` parameters in [0, 1] with both ends; one sample sits at the midpoint."""
    if count == 1:
        return np.array([0.5])
    return np.arange(count) / (count - 1)


def _coords(z, t) -> np.ndarray:
    """Stack (Re z, Im z, t) on a last axis; z broadcasts against t."""
    out = np.empty(np.shape(t) + (3,))
    out[..., 0] = np.real(z)
    out[..., 1] = np.imag(z)
    out[..., 2] = t
    return out


def _chains(pz: complex, pt: float, qz: np.ndarray, qt: np.ndarray):
    """Centre m, height c and squared radius r2 of the finite chains through
    (pz, pt) and each (qz, qt): the polar vector ((r2 - |m|^2 + ic)/2, m, 1)
    is orthogonal to both lifts."""
    p_abs2 = (pz * np.conj(pz)).real
    rhs = (p_abs2 - 1j * pt - (qz * np.conj(qz)).real + 1j * qt) / 2
    m_conj = rhs / (pz - qz)
    u_conj = (p_abs2 - 1j * pt) / 2 - pz * m_conj
    m = np.conj(m_conj)
    r2 = 2 * u_conj.real + (m * m_conj).real
    c = -2 * u_conj.imag
    if np.any(r2 <= TOL):
        raise GeometryError("degenerate chain: nonpositive squared radius")
    return m, c, r2


def _arcs(m, c, r2, az, bz, count: int, orientation: int):
    """Samples from projection az to each bz along the chains (m, c, r2).

    Default arc: the shorter way round; an orientation of +1/-1 forces the
    counterclockwise/clockwise arc.  Returns z and t of shape (chains, count).
    """
    r = np.sqrt(r2)
    ta = np.angle((az - m) / r)
    tb = np.angle((bz - m) / r)
    delta = np.fmod(tb - ta, TWO_PI)
    delta = np.where(delta > math.pi, delta - TWO_PI, delta)
    delta = np.where(delta <= -math.pi, delta + TWO_PI, delta)
    if orientation > 0:
        delta = np.where(delta < 0, delta + TWO_PI, delta)
    elif orientation < 0:
        delta = np.where(delta > 0, delta - TWO_PI, delta)
    if np.any(np.abs(delta) < 1e-12) or (
        orientation == 0 and np.any(np.abs(np.abs(delta) - math.pi) < 1e-9)
    ):
        raise GeometryError(
            "ambiguous chain segment: endpoints antipodal, set an orientation flag"
        )
    theta = ta[:, None] + delta[:, None] * unit_params(count)
    z = m[:, None] + r[:, None] * (np.cos(theta) + 1j * np.sin(theta))
    # the imaginary part of the membership equation fixes the height
    t = c[:, None] - 2 * (z * np.conj(m)[:, None]).imag
    return z, t


def _max_residual(m, c, r2, z, t) -> float:
    """Largest relative residual of <lift(z, t), polar> = 0 over the samples."""
    polar1 = (r2 - (m * np.conj(m)).real + 1j * c) / 2
    lift1 = (1j * t - (z * np.conj(z)).real) / 2
    val = lift1 + z * np.conj(m)[:, None] + np.conj(polar1)[:, None]
    scale = np.maximum(np.maximum(np.abs(polar1), np.abs(m)), 1.0)
    return float((np.abs(val) / scale[:, None]).max())


def segment(a, b, count: int, span: float, orientation: int = 0) -> np.ndarray:
    """`count` samples of the chain segment from float point a to b, shape (count, 3).

    A segment to or from infinity is the vertical ray of height `span` above
    the finite end; stacked points are joined by a vertical segment, all
    others by an arc of their finite chain.
    """
    if a is None and b is None:
        raise GeometryError("no segment between two copies of infinity")
    f = unit_params(count)
    if a is None:
        return _coords(b[0], b[1] + span * f)[::-1]
    if b is None:
        return _coords(a[0], a[1] + span * f)
    (az, at), (bz, bt) = a, b
    if abs(az - bz) <= TOL:
        if abs(at - bt) <= TOL:
            raise CoincidentPointsError("chain through a repeated point")
        return _coords(az, at + (bt - at) * f)
    bz, bt = np.array([bz]), np.array([bt])
    m, c, r2 = _chains(az, at, bz, bt)
    z, t = _arcs(m, c, r2, az, bz, count, orientation)
    return _coords(z[0], t[0])


def face(apex, a, b, count: int, rays: int, span: float,
         edge_flag: int, ray_flag: int):
    """Polylines of one diverging-rays face and their largest chain residual.

    `count` targets sampled along the segment from a to b (oriented by
    `edge_flag`), and a chain ray of `rays` samples from the apex to each
    (oriented by `ray_flag`).  A target that coincides with the apex is
    skipped.  Rays from infinity are vertical and run top-down.
    """
    base = segment(a, b, count, span, edge_flag)
    tz = base[:, 0] + 1j * base[:, 1]
    tt = base[:, 2]
    f = unit_params(rays)
    if apex is None:
        return list(_coords(tz[:, None], tt[:, None] + span * f[::-1])), 0.0
    az, at = apex
    stacked = np.abs(az - tz) <= TOL
    keep = ~(stacked & (np.abs(at - tt) <= TOL))
    tz, tt, stacked = tz[keep], tt[keep], stacked[keep]
    out = np.empty((len(tz), rays, 3))
    out[stacked] = _coords(az, at + (tt[stacked, None] - at) * f)
    worst = 0.0
    arc = ~stacked
    if arc.any():
        m, c, r2 = _chains(az, at, tz[arc], tt[arc])
        z, t = _arcs(m, c, r2, az, tz[arc], rays, ray_flag)
        out[arc] = _coords(z, t)
        worst = _max_residual(m, c, r2, z, t)
    return list(out), worst


# ---------------------------------------------------------------------------
# distances between sampled clouds
# ---------------------------------------------------------------------------


def cloud(polylines) -> np.ndarray:
    return np.concatenate(polylines, axis=0)


def _cross_dist2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # |a-b|^2 = |a|^2 + |b|^2 - 2 a.b via one BLAS call
    d2 = (
        (a * a).sum(axis=1)[:, None]
        + (b * b).sum(axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _away_from(points: np.ndarray, obstacles, exclusion: float) -> np.ndarray:
    keep = np.ones(len(points), dtype=bool)
    for obs in obstacles:
        keep &= np.sqrt(_cross_dist2(points, obs).min(axis=1)) > exclusion
    return points[keep]


def min_distance(a: np.ndarray, b: np.ndarray, obstacles, exclusion: float) -> float:
    """Least distance between two clouds, ignoring points within `exclusion`
    of any obstacle cloud; infinite when either side is left empty."""
    if exclusion > 0:
        a = _away_from(a, obstacles, exclusion)
        b = _away_from(b, obstacles, exclusion)
    if len(a) == 0 or len(b) == 0:
        return math.inf
    return math.sqrt(float(_cross_dist2(a, b).min()))
