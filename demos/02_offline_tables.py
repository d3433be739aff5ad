"""The offline half: projected matrices and chaos coefficient tables.

For a scalar mean-reverting signal observed through its position we
assemble the projected matrices, solve the triangular coefficient flows
for every multi-index, and sanity-check the table three independent
ways: matrix exponential at the empty index, closed-form quadrature at
the first layer, and the mass identity against the exact moment flow.
The same identity, taken over every start, certifies the truncation.
"""

import numpy as np
from scipy.linalg import expm

from chaosfilter import (assemble, brownian_second_moment, build_basis, closed_form_order1,
                         cosine_basis, dissipativity_gap, gauss_hermite_grid, ou_linear,
                         parseval_mass, precompute_table, project, truncation_certificate)
from chaosfilter.multiindex import MultiIndex

bundle = ou_linear(a=-1.0, sigma=1.0, hslope=1.0)
basis = build_basis(d=1, K=8)
grid = gauss_hermite_grid(d=1, m=64)
system = assemble(bundle.filter_model, basis, grid)
print(f"assembled K={system.K} matrices; dissipativity gap {dissipativity_gap(system):+.3f}")

delta, N, n = 0.25, 3, 6
tbasis = cosine_basis(delta, n)
table = precompute_table(system, tbasis, N, n)
print(f"table: {len(table.indices)} indices for |alpha| <= {N}, modes <= {n}")

# check 1: the empty index must reproduce the deterministic flow
err = np.max(np.abs(table.matrices[0] - expm(system.A * delta)))
print(f"empty index vs scaling-and-squaring exponential: {err:.2e}")

# check 2: first-layer flows against direct quadrature of their integral form
zeta = project(bundle.filter_model.p0, basis, grid)
alpha = MultiIndex.from_dict({(2, 1): 1}, r=1)
cf = closed_form_order1(system, tbasis, alpha, zeta)
tv = table.matrix_for(alpha) @ zeta
print(f"order-1 flow (mode 2) vs closed form: {np.max(np.abs(cf - tv)):.2e}")

# check 3: chaos mass approaches the exact second moment from below
total, layers = parseval_mass(table, zeta)
exact = brownian_second_moment(system, delta, zeta)
print(f"\ntruncated chaos mass {total:.8f} vs exact second moment {exact:.8f}")
print("per-layer masses:")
for ell, m in sorted(layers.items()):
    print(f"  |alpha| = {ell}: {m:.3e}")

# the worst start over all zeta: the largest share of E|U|^2 the table misses
rho = truncation_certificate(system, table)
print(f"\ntruncation certificate rho = {rho:.3e} (this start misses {1 - total / exact:.3e})")
