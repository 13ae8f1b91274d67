"""The classical commutator equations emerge from the symplectic inversion.

Nothing in the flow code knows the equations governing simple-pole systems;
the right-hand side is assembled by pairing the residue of the quadratic
trace form against the chart symplectic form and solving the Gram system.
The commutator expressions fall out, and transported monodromy confirms the
flow is deformation-invariant.
"""
import numpy as np

from isomonodromy import (
    Direction,
    FlowPath,
    FlowState,
    PoleData,
    induced_polar_variations,
    integrate_flow,
    isomonodromic_rhs,
    verify_isomonodromy,
)

rng = np.random.default_rng(12)
ts = [-2.1, -0.35, 1.15, 2.6]
mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for _ in range(4)]
mean = sum(mats) / 4
mats = [0.5 * (M - mean) for M in mats]    # balanced residues, moderate size
state = FlowState(2, tuple(PoleData(t, 1, np.eye(2), M)
                           for t, M in zip(ts, mats)))

i = 1
d = isomonodromic_rhs(Direction.translation(i), state)
var = induced_polar_variations(d.d_chart, state)
print(f"moving pole {i}: emergent residue velocities vs commutators")
for j in range(4):
    if j == i:
        want = -sum((mats[i] @ mats[k] - mats[k] @ mats[i]) / (ts[i] - ts[k])
                    for k in range(4) if k != i)
    else:
        want = (mats[i] @ mats[j] - mats[j] @ mats[i]) / (ts[i] - ts[j])
    err = np.max(np.abs(var[j][0] - want))
    print(f"  pole {j}: max deviation {err:.2e}")
print()

print("integrating a semicircular motion of the pole (arc length ~1)...")
path = FlowPath.semicircle(state, i, diameter=2 / np.pi)
traj = integrate_flow(state, path, tol=1e-10, n_samples=5)
print("status:", traj.status)
print("pole track:", [f"{st.poles[i].t:.3f}" for st in traj.states])

report = verify_isomonodromy(traj, tol=1e-10)
print()
print("transported-monodromy drift across the samples:",
      f"{report.max_drift:.2e}")
print("(the monodromy representation is the conserved object)")
