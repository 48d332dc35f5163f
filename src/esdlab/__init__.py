"""Deterministic simulation of entanglement sudden death and its
manipulation by local flip operations under amplitude damping."""

# asserted as esdlab.negativity by perfbench's test_tracer_wraps_every_binding_and_restores_it
from .measures import negativity
