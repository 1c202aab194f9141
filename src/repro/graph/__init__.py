"""Attributed-graph substrate: the DataFrame-based PropertyGraph, and
the walk engine and BFS primitives on its driver-side CSR."""
