#!/usr/bin/env python3
"""Perturbing an isolated singularity deep in the maximal ideal changes nothing.

For f with Jacobian ideal primary to the origin there are explicit orders
N < M (from the characteristic and the Jacobian length) past which adding
any h in m^N preserves the F-pure threshold, and any h in m^M preserves
every test ideal below parameter 1.  Here both are exercised at desk scale.
"""

from fptkit import (
    PolyRing,
    constancy_report,
    jumping_numbers_unit_interval,
    local_ideal_equal,
    parse_polynomial,
    singularity_profile,
)

ring = PolyRing(7, ["x", "y"])
f = parse_polynomial("x^2 + y^3", ring)
profile = singularity_profile(f)
print(f"f = {f}  over F_7")
print(f"ell = {profile.ell},  fpt stable past order N = {profile.bound_fpt},")
print(f"test ideals stable past order M = {profile.bound_test_ideals}")

# Full-strength check at order N: a monomial perturbation keeps everything
# sparse, so the entire jumping-number walk still runs in milliseconds.
h = ring.monomial((profile.bound_fpt, 0))
base = jumping_numbers_unit_interval(f, profile.ell)
pert = jumping_numbers_unit_interval(f + h, profile.ell)
print(f"\nh = x^{profile.bound_fpt}")
print(f"  fpt(f)     = {base.fpt}")
print(f"  fpt(f + h) = {pert.fpt}")
for lam in base.jumping_numbers:
    a = base.computer.ideal_at(lam)
    b = pert.computer.ideal_at(lam)
    print(f"  tau at {str(lam):>4}: locally equal = {local_ideal_equal(a, b, profile.ell)}")

# Below the guaranteed order the threshold may move, but never by more
# than dim(R)/k; the harness samples random h in m^k and records both
# sides of every comparison.
report = constancy_report(f, [profile.ell + 3, profile.ell + 5], 3, seed=1)
print(f"\nrandom perturbations (seed 1):")
print("  k | h | fpt(f+h) | gap <= bound | jacobian stable")
for r in report.records:
    print(
        f"  {r.exponent} | {r.h} | {r.fpt_perturbed} | "
        f"{r.fpt_gap} <= {r.gap_bound} | {r.jacobian_stable}"
    )
