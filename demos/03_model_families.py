"""Invariant trends across the three physical model families.

Prints small tables for pairs drawn from collective Dicke states,
one-axis-twisted (spin-squeezed) states, and the nearest-neighbour
sigma_x sigma_x chain, highlighting which sign criterion flags each
family and how the Dicke pair approaches separability at large N, then
holds the twisting pair against the exact evolution at N = 5 and N = 1000.

Run:  python demos/03_model_families.py
"""

import numpy as np

import qubitpair as qp

print("--- Dicke pairs: I12 - I4^2 < 0 except at the extremal M ---")
print(f"{'N':>4} {'M':>6} {'I4':>10} {'I12':>10} {'I14':>10} {'I12-I4^2':>11} verdict")
for n, m in [(4, 2), (4, 1), (8, 2), (8, 4), (20, 5), (20, 10)]:
    inv = qp.dicke_invariants(n, m)
    verdict = qp.classify(qp.dicke_pair(n, m).to_matrix()).verdict
    print(f"{n:>4} {m:>6.1f} {inv.i4:>10.5f} {inv.i12:>10.5f} {inv.i14:>10.5f} "
          f"{inv.i12_minus_i4sq:>11.6f} {verdict}")

print("\napproach to separability at quarter filling (M = N/4):")
for n in (8, 32, 128, 512):
    gap = qp.dicke_invariants(n, n / 4.0).i12_minus_i4sq
    print(f"  N = {n:>4}: I12 - I4^2 = {gap:+.6e}")

print("\n--- one-axis twisting: I14 < 0 throughout the squeezing window ---")
print(f"{'chi*t':>8} {'I4':>10} {'I12':>10} {'I14':>12} verdict")
for chi_t in np.linspace(0.15, 1.35, 7):
    inv = qp.oat_invariants(10, chi_t)
    verdict = qp.classify(qp.oat_pair(10, chi_t).to_matrix()).verdict
    print(f"{chi_t:>8.3f} {inv.i4:>10.6f} {inv.i12:>10.6f} {inv.i14:>12.3e} {verdict}")

print("\n--- chain pairs: entangled strictly between the revival nodes ---")
print(f"{'chi*t':>8} {'I14':>12} {'min PT eig':>12} verdict")
for chi_t in np.linspace(0.0, np.pi, 7):
    x = qp.ising_pair(5, chi_t)
    inv = qp.ising_invariants(5, chi_t)
    ppt = qp.ppt_check(x.to_matrix())
    verdict = "Separable" if ppt.separable else "Entangled"
    print(f"{chi_t:>8.3f} {inv.i14:>12.3e} {ppt.min_eig:>12.3e} {verdict}")

print("\n--- twisting pair vs the exact evolution in the Dicke subspace ---")
# exp(-i chi t Sx^2) keeps the state inside the N + 1 collective states
# |N/2, M>, so the exact pair is read off <Sz>, <Sz^2> and <S+^2> there.
# The exact b is the conjugate of the model's, a local-unitary gauge.
print(f"{'N':>5} {'chi*t':>6} {'gap, exponent N-2':>18} {'gap, printed N-1':>17}")
for n in (5, 1000):
    k = np.arange(n + 1)
    m = k - n / 2.0  # the diagonal of Sz and the spectrum of Sx
    raise1 = np.sqrt((n - k[:-1]) * (k[:-1] + 1.0))  # <M+1|S+|M>
    _, vectors = np.linalg.eigh(np.diag(raise1 / 2.0, 1) + np.diag(raise1 / 2.0, -1))
    for chi_t in (0.05, 0.8):
        psi = vectors @ (np.exp(-1j * chi_t * m * m) * vectors[0])  # from M = -N/2
        p = np.abs(psi) ** 2
        sz, sz2 = p @ m, p @ (m * m)
        sp2 = np.sum(np.conj(psi[2:]) * raise1[1:] * raise1[:-1] * psi[:-2])
        pairs = n * (n - 1.0)
        z, zz = 2.0 * sz / n, (4.0 * sz2 - n) / pairs
        exact = qp.XForm.from_abc(a=(1.0 + 2.0 * z + zz) / 4.0, b=np.conj(sp2) / pairs,
                                  c=(n * n / 4.0 - sz2) / pairs).to_matrix()
        gaps = [np.max(np.abs(exact - np.conj(qp.oat_pair(n, chi_t, paper_literal=literal)
                                              .to_matrix()))) for literal in (False, True)]
        print(f"{n:>5} {chi_t:>6.2f} {gaps[0]:>18.2e} {gaps[1]:>17.2e}")
print("(the default N-2 agrees to rounding; the printed N-1 misses wherever "
      "cos^N(chi t) is not negligible)")
