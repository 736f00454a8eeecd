"""Exact-arithmetic laboratory for the query complexity of the iterated
tie-breaking majority gadget."""

__version__ = "0.1.0"
