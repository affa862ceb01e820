"""Physical constants (CODATA 2018 exact values) and unit helpers."""

import math

H = 6.62607015e-34   # Planck constant, J s
C = 2.99792458e8     # speed of light, m/s
K_B = 1.380649e-23   # Boltzmann constant, J/K
HBAR = H / (2.0 * math.pi)

# Wavelengths cross module boundaries in nm; SI conversion happens only
# inside Planck-law evaluation.
NM_TO_M = 1e-9

# SI-adopted maximum luminous efficacy, lm/W; also the efficiency normalizer.
KM_SI = 683.0
