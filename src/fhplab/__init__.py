"""fhplab: a desk-scale laboratory for fractional Helly phenomena.

Finite set systems with exact rational intersection-pattern checks, exact LP
for intersection numbers and fractional transversals, VC/shatter analytics,
deterministic counterexample generators, square-free integer arithmetic,
finite-field counting experiments, and finitary type counting.
"""

__version__ = "0.1.0"
