"""Central tolerance table.

The matrix, symmetry, pattern and sign gates read their bands from here
(one band per rule: triplet support is SYMMETRY wherever it is decided,
and a vanishing I4 is SIGN_ZERO_BAND),
and none of them takes a per-call override, so the tolerance policy can
be audited (and tightened) in one place.

``STATE_ENTRY`` is derived from the matrix-level bands rather than set:
it is the largest entry modulus a state that passes them can have.

A few literals stay local to the code they bound: in ``states``,
``XForm``'s -1e-12 diagonal floor and 1e-10 corner-block slack, and
``BlochForm``'s 1e-9 bound on the Pauli expectations;
``SeparableEnsemble``'s 1e-12 on the weights and Bloch-vector norms; in
``models._family_gates``, the family rule's 1e-12 test that a Dicke 2M is
an integer; the -1e-10 discriminant floor of
``t_eigenvalues_from_invariants``; and the self-test's ``_I4_FLOOR``.
"""

# Matrix-level gates
HERMITICITY = 1e-10
UNITARITY = 1e-10
TRACE = 1e-10

# Density matrices may sit exactly on the PSD boundary (rank-deficient
# model states), so the floor is looser than the Hermiticity gate.
PSD_FLOOR = -1e-9

# Largest entry modulus of a state: |rho_ij| <= lambda_max + HERMITICITY
# (the anti-Hermitian part adds at most half the defect), and
# lambda_max <= 1 + TRACE - 3 PSD_FLOOR, since the four eigenvalues sum to
# the trace and the other three are at least PSD_FLOOR.  An entry above it
# is refused before the eigen solve, which would overflow on it.
STATE_ENTRY = 1.0 + TRACE - 3.0 * PSD_FLOOR + HERMITICITY

# Triplet support (states._triplet_gate): the singlet population and every
# singlet-triplet coherence, on the matrix.  It is the one band of the
# symmetry hypothesis on every path.
SYMMETRY = 1e-10

# Off-pattern leakage allowed when reading off the special four-parameter form.
XFORM_PATTERN = 1e-10

# Sign criteria are strict inequalities; values inside the band count as zero.
SIGN_ZERO_BAND = 1e-10

# Local-unitary invariance gate: relative with an absolute floor.
INVARIANCE_REL = 1e-9
INVARIANCE_ABS = 1e-12

# Crossover for the relative-vs-absolute comparison rule used in checks:
# compare relatively when the reference magnitude exceeds this, absolutely
# otherwise.
REL_SWITCH = 1e-6


def matches(value: float, reference: float, tol: float) -> bool:
    """Compare `value` to `reference` relatively above REL_SWITCH, absolutely below."""
    scale = max(abs(value), abs(reference))
    if scale > REL_SWITCH:
        return abs(value - reference) <= tol * scale
    return abs(value - reference) <= tol
