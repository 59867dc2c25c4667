"""Orthonormal 2D DCT-II by basis multiplication, plus a literal reference.

The hashing kernel multiplies by :func:`basis_rows` itself, for just the
coefficients it reads; :func:`dct2` and :func:`idct2` are its oracles.
The forward transform anchors every matrix at its top-left cell before
transforming and adds the anchor's analytically-known DC contribution back
afterwards. A constant matrix then has an exactly-zero residual, so all of
its AC coefficients come out as exact 0.0 rather than +/-1e-14 rounding
noise — which keeps the strict sign rule downstream stable for the
degenerate single-base inputs. For everything else the split only perturbs
results at the last-ulp level.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def basis_rows(n: int, count: int) -> np.ndarray:
    """The first ``count`` rows of the orthonormal N-point DCT-II basis.

    Row k holds s(k) * cos((2x+1) k pi / 2N) with s(0) = sqrt(1/N) and
    s(k>0) = sqrt(2/N); the full (N, N) matrix is orthogonal, T @ T.T = I.
    """
    x = np.arange(n)
    k = np.arange(count)[:, None]
    t = np.cos((2 * x + 1) * k * np.pi / (2 * n))
    t[0] *= math.sqrt(1.0 / n)
    t[1:] *= math.sqrt(2.0 / n)
    t.flags.writeable = False
    return t


def _as_square(m) -> np.ndarray:
    a = np.asarray(getattr(m, "cells", m), dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix (or stack of them), got shape {a.shape}")
    if a.shape[-1] < 2:
        raise ValueError("matrix side must be at least 2")
    return a


def dct2(m) -> np.ndarray:
    """2D orthonormal DCT-II of a square matrix or an (..., N, N) stack.

    Accepts a PixelMatrix or any array-like; returns float64 coefficients
    of the same shape. For non-negative input with at least one positive
    cell the (0, 0) coefficient is strictly positive.
    """
    a = _as_square(m)
    n = a.shape[-1]
    anchor = a[..., :1, :1]
    t = basis_rows(n, n)
    coeffs = t @ (a - anchor) @ t.T
    coeffs[..., 0, 0] += anchor[..., 0, 0] * n
    return coeffs


def idct2(c) -> np.ndarray:
    """Inverse of :func:`dct2` (orthonormal DCT-III, applied separably)."""
    a = _as_square(c)
    t = basis_rows(a.shape[-1], a.shape[-1])
    return t.T @ a @ t


def dct2_reference(m) -> np.ndarray:
    """Literal per-coefficient double sum; O(N^4), for checking dct2.

    out[i, j] = s(i) s(j) * sum_x sum_y m[x, y]
                * cos((2x+1) i pi / 2N) * cos((2y+1) j pi / 2N)

    Kept deliberately naive and independent of the basis helper; intended
    for sides up to about 64.
    """
    a = _as_square(m)
    if a.ndim != 2:
        raise ValueError("the reference transform takes a single matrix, not a stack")
    n = a.shape[0]
    x = np.arange(n)
    scale = np.full(n, math.sqrt(2.0 / n))
    scale[0] = math.sqrt(1.0 / n)
    out = np.empty((n, n))
    for i in range(n):
        ci = np.cos((2 * x + 1) * i * np.pi / (2 * n))
        for j in range(n):
            cj = np.cos((2 * x + 1) * j * np.pi / (2 * n))
            out[i, j] = scale[i] * scale[j] * np.sum(a * np.outer(ci, cj))
    return out
