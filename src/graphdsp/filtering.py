"""Polynomial filters in the normalized graph shift.

A filter is a polynomial h(A/|lambda_max|) = h0 I + h1 A_norm + ... +
hL A_norm^L of the adjacency scaled to unit spectral radius, applied to a
signal with L shift multiplications (Horner's rule) instead of ever forming
matrix powers.  Its response at an eigenvalue ``lam`` is
h(lam/|lambda_max|).  Design runs the other way: pick desired response
values on the normalized spectrum and solve the Vandermonde system for the
taps in the least-squares sense.  Ideal low/high/band-pass targets are
expressed through the variation ordering of the frequencies, so they make
sense for complex spectra too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphSignal, _check_bound, _freeze, _nonzero_radius
from .spectral import FrequencyOrdering, Spectrum, order_frequencies

DISTINCT_FREQ_TOL = 1e-12
DEDUP_FREQ_TOL = 1e-10
EXACT_FIT_RTOL = 1e-8

FILTER_KINDS = ("lowpass", "highpass", "bandpass")


@dataclass(frozen=True, eq=False)
class GraphFilter:
    """Tap vector (h0 ... hL) of a degree-L polynomial filter."""

    taps: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.taps)
        t = t.astype(complex) if np.iscomplexobj(t) else t.astype(float)
        if t.ndim != 1 or t.shape[0] < 1:
            raise ValueError("taps must be a non-empty vector")
        if not np.all(np.isfinite(t)):
            raise ValueError("taps must be finite")
        object.__setattr__(self, "taps", _freeze(t))

    @property
    def degree(self):
        return self.taps.shape[0] - 1

    def __repr__(self):
        return f"GraphFilter(degree={self.degree})"


def _first_distinct(values, order, tol):
    """Indices of ``values`` kept by a walk in ``order`` that drops each value
    within ``tol`` of an earlier kept one.

    Kept values are filed in square cells of side 2*tol, so each value is
    compared only with the kept values of its own cell and the 8 around it.
    The cell keys stay floats: a key that overflows to +-inf still files a
    finite value, where an integer key could not.  A difference that
    overflows reads as inf, which is far apart.
    """
    kept, filed = [], {}
    with np.errstate(over="ignore"):
        cells = np.floor(np.column_stack([values.real, values.imag]) / (2.0 * tol))
        cells = cells.tolist()
        for i in order:
            x, y = cells[i]
            near = [j for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0)
                    for j in filed.get((x + dx, y + dy), ())]
            if not near or np.abs(values[near] - values[i]).min() > tol:
                kept.append(i)
                filed.setdefault((x, y), []).append(i)
    return kept


@dataclass(frozen=True, eq=False)
class TargetResponse:
    """Desired filter values attached to pairwise-distinct spectrum points."""

    frequencies: np.ndarray
    desired: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=complex)
        d = np.asarray(self.desired, dtype=complex)
        if f.ndim != 1 or f.shape[0] < 1 or f.shape != d.shape:
            raise ValueError("frequencies and desired must be matching vectors")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(d))):
            raise ValueError("target response must be finite")
        if len(_first_distinct(f, range(f.size), DISTINCT_FREQ_TOL)) < f.size:
            with np.errstate(over="ignore"):
                gap = min(np.abs(f[k + 1:] - f[k]).min() for k in range(f.size - 1))
            raise ValueError(
                f"frequencies must be pairwise distinct "
                f"(closest pair {gap:.3e} apart)"
            )
        object.__setattr__(self, "frequencies", _freeze(f))
        object.__setattr__(self, "desired", _freeze(d))

    @property
    def m(self):
        return self.frequencies.shape[0]


@dataclass(frozen=True, eq=False)
class FilterDesign:
    """Least-squares fit of a tap vector to a target response."""

    filter: GraphFilter
    residual: float
    achieved: np.ndarray
    target: TargetResponse


def apply_filter(g: Graph, f: GraphFilter, s: GraphSignal) -> GraphSignal:
    """Filter a signal: h(A/|lambda_max|)s through iterated shifts, Horner
    style."""
    _check_bound(g, s)
    a = g.adjacency / _nonzero_radius(g)
    taps = f.taps
    out = taps[-1] * s.values
    for h in taps[-2::-1]:
        out = a @ out + h * s.values
    return GraphSignal(out, g)


def frequency_response(b: Spectrum, f: GraphFilter) -> np.ndarray:
    """Filter value h(lam/|lambda_max|) at every eigenvalue of the spectrum,
    in its order: the factor by which apply_filter scales each Fourier
    coefficient."""
    return np.polyval(f.taps[::-1], b.eigenvalues / b.lambda_max_abs)


def design_filter(t: TargetResponse, degree: int) -> FilterDesign:
    """Fit taps to a target response via the M x (degree+1) Vandermonde system.

    Solved by an SVD least-squares fit (LAPACK ``gelsd``), never the normal
    equations; underdetermined systems get the minimum-norm tap vector.
    When the system should be solvable exactly (M <= degree+1) but the fit
    misses by more than a relative 1e-8, the design is refused instead of
    returning silently wrong taps.
    """
    if degree < 0:
        raise ValueError(f"filter degree must be >= 0, got {degree}")
    vand = np.vander(t.frequencies, degree + 1, increasing=True)
    taps = np.linalg.lstsq(vand, t.desired, rcond=None)[0]
    achieved = vand @ taps
    residual = float(np.linalg.norm(achieved - t.desired))
    if t.m <= degree + 1 and residual > EXACT_FIT_RTOL * np.linalg.norm(t.desired):
        raise ValueError(
            f"Vandermonde system too ill-conditioned for an exact fit "
            f"(residual {residual:.3e} with M={t.m}, L={degree})"
        )
    if np.iscomplexobj(taps) and np.all(taps.imag == 0.0):
        taps = taps.real
    return FilterDesign(filter=GraphFilter(taps), residual=residual,
                        achieved=_freeze(achieved), target=t)


def _distinct_by_rank(eigenvalues, order):
    """Walk the spectrum in rank order, keeping first representatives of
    numerically repeated eigenvalues: a value within DEDUP_FREQ_TOL of an
    earlier-ranked kept value is dropped."""
    return eigenvalues[_first_distinct(eigenvalues, order, DEDUP_FREQ_TOL)]


def ideal_response(ordering: FrequencyOrdering, eigenvalues, kind,
                   band=None) -> TargetResponse:
    """Ideal pass/stop target over the distinct frequencies of a spectrum.

    ``kind`` is "lowpass" (unit response on the floor(M/2) lowest-variation
    frequencies), "highpass" (the elementwise complement), or "bandpass"
    with ``band=(lo, hi)`` passing the inclusive rank interval of the
    variation ordering.
    """
    w = np.asarray(eigenvalues, dtype=complex)
    order = np.asarray(ordering.order)
    if sorted(order.tolist()) != list(range(w.shape[0])):
        raise ValueError("ordering is not a permutation of the spectrum indices")
    freqs = _distinct_by_rank(w, order)
    m = freqs.shape[0]
    desired = np.zeros(m)
    kind = str(kind).lower()
    if kind != "bandpass" and band is not None:
        raise ValueError(f"band is only meaningful for bandpass, not {kind}")
    if kind == "lowpass":
        desired[: m // 2] = 1.0
    elif kind == "highpass":
        desired[m // 2:] = 1.0
    elif kind == "bandpass":
        if band is None:
            raise ValueError("bandpass needs a band=(lo, hi) rank interval")
        lo, hi = (int(v) for v in band)
        if not 0 <= lo <= hi < m:
            raise ValueError(
                f"band ({lo}, {hi}) is empty or out of range for {m} frequencies"
            )
        desired[lo:hi + 1] = 1.0
    else:
        raise ValueError(f"kind must be one of {FILTER_KINDS}, got {kind!r}")
    if not desired.any():
        raise ValueError(f"{kind} band is empty for {m} distinct frequencies")
    return TargetResponse(freqs, desired)


def design_ideal_filter(b: Spectrum, kind, degree: int,
                        band=None) -> FilterDesign:
    """Order the spectrum, build the ideal target, and fit taps.

    The target sits on the normalized frequencies lambda/|lambda_max|, where
    apply_filter evaluates the taps; the Vandermonde entries stay bounded by
    one in modulus.
    """
    target = ideal_response(order_frequencies(b), b.eigenvalues / b.lambda_max_abs,
                            kind, band)
    return design_filter(target, degree)
