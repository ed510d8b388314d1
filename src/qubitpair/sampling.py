"""Random state generators used by the self-test and property suites.

All samplers take a caller-owned ``numpy.random.Generator`` and are
deterministic for a fixed generator state.  ``random_xform`` is the
checked ``XForm`` of one ``_xform_draw``, which the self-test calls
draw by draw and gates once.
"""

from __future__ import annotations

import math

import numpy as np

from .states import TRIPLET_BASIS, XForm


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Hilbert-Schmidt random state: :func:`hilbert_schmidt_states` of one
    ``(2, dim, dim)`` draw of standard normals."""
    return hilbert_schmidt_states(rng.normal(size=(2, dim, dim)))


def hilbert_schmidt_states(normals: np.ndarray) -> np.ndarray:
    """States G G^dag / tr from standard normals: ``(..., 2, d, d)`` to ``(..., d, d)``.

    Normals ``[..., 0]`` and ``[..., 1]`` are the real and imaginary parts
    of the complex Ginibre matrix G.
    """
    normals = np.asarray(normals, dtype=float)
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / rho.trace(axis1=-2, axis2=-1).real[..., None, None]


def random_symmetric_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random state supported on the triplet subspace.

    A 3x3 Hilbert-Schmidt random state in the triplet basis is embedded
    back into the two-qubit space; the result commutes with SWAP and has
    zero singlet weight.
    """
    rho3 = random_density_matrix(rng, dim=3)
    return TRIPLET_BASIS @ rho3 @ TRIPLET_BASIS.conj().T


def random_xform(rng: np.random.Generator) -> XForm:
    """Random valid special-pattern state: the :class:`XForm` of one
    :func:`_xform_draw`.

    (a, 2c, d) is uniform on the probability simplex and b is uniform in
    the disc of radius sqrt(a d), which is exactly the PSD region.
    """
    return XForm(*_xform_draw(rng))


def _xform_draw(rng: np.random.Generator) -> tuple:
    """The parameters ``(a, b, c, d)`` of one :func:`random_xform` draw, on
    its stream, unchecked: a, c and d Python floats, b a numpy complex."""
    w = rng.exponential(size=3)
    a, d, two_c = (w / w.sum()).tolist()
    # math.sqrt and np.sqrt both round the square root correctly.
    radius = math.sqrt(a * d) * math.sqrt(rng.uniform())
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return a, radius * np.exp(1j * phase), two_c / 2.0, d
