"""Exact quasi-quantum circuit compiler and simulator for verifier pairs.

The package turns dual verifier pairs (boolean accept predicates standing in
for nondeterministic machines) into circuits whose exact amplitudes carry the
machines' branch-count gaps, and verifies the resulting decision guarantees
with zero numerical tolerance: all arithmetic lives in the ring of numbers
(c0 + c1*sqrt(2)) / 2**e with arbitrary-precision integer parts.
"""
