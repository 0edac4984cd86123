"""Verification toolkit for two-level self-adaptive transition systems.

A model couples a behaviour machine (concrete states and transitions)
with a structure machine whose states carry constraint formulas over
observables and whose transitions carry invariants.  The package builds
the combined flat semantics, decides weak and strong adaptability both
by greatest-fixpoint relations and by CTL model checking, compares the
two methods, and ships a small text format plus the ``sbcheck`` command
line tool.
"""

__version__ = "0.1.0"
