"""dcattack: smallest load perturbations that break DC-OPF feasibility.

Certified minimum-norm attacks (Farkas-based), affine dispatch defenses with
verified safe radii, and upper/lower bound squeezing between the two.
"""

__version__ = "0.1.0"
