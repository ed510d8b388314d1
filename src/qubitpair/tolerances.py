"""Central tolerance table.

The matrix, symmetry, pattern and sign gates read their bands from here
(one band per rule: triplet support is SYMMETRY wherever it is decided,
and a vanishing I4 is SIGN_ZERO_BAND),
and none of them takes a per-call override, so the tolerance policy can
be audited (and tightened) in one place.  The table holds bands only: a
rule that reads one, such as the relation check's relative-or-absolute
comparison on REL_SWITCH, is written where it is used.

Positivity has one band, PSD_FLOOR, on every path: the eigen solve of
``assert_density_matrix`` and of ``evidence_stack``, and ``XForm``'s
closed-form minimum eigenvalue.  ``PAULI_BOUND`` is derived from it rather
than set: it is the largest Pauli expectation a matrix that passes the
matrix-level bands can have.

A few literals stay local to the code they bound:
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

# Largest Pauli expectation of a matrix that passes the gates above: for
# the Hermitian part H and a Pauli product sigma (eigenvalues +-1),
# |tr(H sigma)| <= tr|H| = tr H + 2 (sum of |negative eigenvalues|)
# <= 1 + TRACE + 2 * 3 * |PSD_FLOOR|, since at most three eigenvalues are
# negative and each is at least PSD_FLOOR.  An expectation above it shows
# that the matrix is not positive semidefinite.
PAULI_BOUND = 1.0 + TRACE - 6.0 * PSD_FLOOR

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

# Crossover of invariants.xform_relation_check's comparison: relative when
# the larger magnitude exceeds this, absolute otherwise.
REL_SWITCH = 1e-6
