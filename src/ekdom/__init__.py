"""ekdom: exact eternal distance-k domination on graphs.

Guards occupy a multiset of vertices that distance-k dominates a graph;
after each attack every guard may move up to distance k, and the new
configuration must dominate and cover the attacked vertex.  This package
computes the least number of guards that survives forever (by greatest-
fixed-point elimination over all configurations of a given size), emits
and verifies explicit strategy certificates, evaluates the closed forms
known for paths, cycles and perfect m-ary trees, applies tree-trimming
reductions with controlled deltas, and computes structural bounds.
"""
__version__ = "0.1.0"
