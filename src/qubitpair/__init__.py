"""Local-unitary entanglement invariants of two-qubit states.

Computes the complete set of 18 polynomial invariants, the six-invariant
reduction for exchange-symmetric states, sign criteria for
non-separability cross-checked against the partial-transpose spectrum,
and closed-form reduced pair states for three multi-qubit families
(collective Dicke states, one-axis twisting, nearest-neighbour chains).

Each public name is written once, in ``_EXPORTS`` under its module, which
``__getattr__`` (PEP 562) imports on the name's first use.
"""

import importlib

__version__ = "0.1.0"

#: The public names of each module.
_EXPORTS = {
    "errors": (
        "EntryOverflow", "I4Zero", "InconsistentClassification", "InvalidDensityMatrix",
        "InvalidDicke", "NoRealSpectrum", "NotHermitian", "NotPositive", "NotSpecialUnitary",
        "NotSymmetricState", "NotUnitary", "NotXForm", "QubitPairError", "StateFileError",
    ),
    "invariants": (
        "InvariantSet", "SymmetricSix", "i10_diagonal_frame", "makhlin_all", "symmetric_six",
        "t_eigenvalues_from_invariants", "xform_invariants", "xform_relation_check",
    ),
    "models": (
        "DickeInvariants", "FamilyInvariants", "dicke_invariants", "dicke_pair",
        "ising_invariants", "ising_pair", "oat_invariants", "oat_pair",
    ),
    "qmat": ("haar_su2", "hermitian_eigenvalues", "kron", "su2_to_so3"),
    "sampling": ("random_density_matrix", "random_symmetric_density_matrix", "random_xform"),
    "selftest": ("SelfTestReport", "format_report", "run_selftest"),
    "separability": (
        "CRITERION_I12", "CRITERION_I12_MINUS_I4SQ", "CRITERION_I14", "Classification",
        "EvidenceStack", "PptResult", "SeparableEnsemble", "classify", "evidence",
        "evidence_stack", "invariant_criteria", "partial_transpose", "ppt_check",
        "sample_separable_symmetric", "xform_equivalence_check", "xform_pt_eigenvalues",
    ),
    "states": (
        "BlochForm", "XForm", "apply_local_unitary", "assert_density_matrix", "bloch_compose",
        "bloch_decompose", "is_symmetric", "xform_extract",
    ),
    "stateio": ("read_state_file", "write_state_file"),
    "tolerances": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """A module of the table, or a public name's current value in its module.

    The value is not cached here, so a binding that is patched in its
    module and restored (a test's monkeypatch, a tracer's wrapper) is read
    as it stands, and no stale copy is left in the package."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
