"""Exact enumeration for cluster fans and noncrossing partition lattices.

Computes F-triangles (cone counts of cluster fans refined by positive and
negated-simple spanning roots) and M-triangles (rank-weighted Moebius
generating functions of noncrossing partition lattices) for finite
crystallographic root systems, and verifies the conjectured change of
variables relating the two.  All arithmetic is exact.
"""
