"""Random state generators used by the self-test and property suites.

All samplers take a caller-owned ``numpy.random.Generator`` and are
deterministic for a fixed generator state.  ``_xform_draws`` draws k
special-pattern states as ``(k,)`` parameter arrays with one generator
call per kind of variate; the self-test calls it once and gates its
draws once.  ``random_xform`` is the checked ``XForm`` of its one-row
case, which is the stream ``random_xform`` has always taken.
"""

from __future__ import annotations

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
    """Random valid special-pattern state: the :class:`XForm` of the one
    row of :func:`_xform_draws` at k = 1.

    (a, 2c, d) is uniform on the probability simplex and b is uniform in
    the disc of radius sqrt(a d), which is exactly the PSD region.
    """
    a, b, c, d = (column[0] for column in _xform_draws(1, rng))
    return XForm(float(a), b, float(c), float(d))


def _xform_draws(count: int, rng: np.random.Generator) -> tuple:
    """The parameters of ``count`` :func:`random_xform` draws as ``(count,)``
    arrays a, b, c and d, unchecked.

    The generator calls, in order: ``(count, 3)`` exponentials, each row
    normalized to (a, d, 2c); ``count`` uniforms for the radius; ``count``
    uniforms in [0, 2 pi) for the phase of b.
    """
    w = rng.exponential(size=(count, 3))
    a, d, two_c = (w / w.sum(axis=1, keepdims=True)).T
    radius = np.sqrt(a * d) * np.sqrt(rng.uniform(size=count))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return a, radius * np.exp(1j * phase), two_c / 2.0, d
