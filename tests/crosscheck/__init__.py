"""The paper's boundary-value route, kept as cross-checks for the tests.

`duosc` builds every state from its phase-space moments.  The modules here
hold the paper's own construction, which the tests compare it with:

- `modes`: the endpoint-coefficient matrices and classical boundary paths
  through given endpoints, and the quartic and decoupled mode references;
- `particular`: the driven particular solution that vanishes at both
  endpoints, with a Fourier-spectrum route of its own;
- `action`: the classical action's endpoint form by polarization
  quadrature over the boundary paths;
- `forcing`: the drive's endpoint coefficients at one time, read from
  `duosc.action`, and the scalar force moment;
- `influence`: the bath phase over the xi endpoints, per time by omega
  quadrature and over a grid from `duosc.influence.grid_noise`;
- `reduction`: the Gaussian contraction of propagator and initial state
  over the eight endpoints;
- `observables`: the moments of a state by the paper's Gaussian algebra
  (`report_table`, `report`), and by finite differences of rho(x, y);
- `brute`: brute-force double integrals of the bath phase functionals.

Every path here but `brute` divides by sin(Omega_k t) and raises
CausticTime where it vanishes.  These modules import `duosc`; nothing in
`duosc` imports them (`tests/test_layering.py`).
"""
