"""Iterated two-atom cavity postselection: exact dynamics, the induced
quadratic rational map on the Riemann sphere, and the state-discrimination
experiments built on both."""

__version__ = "0.1.0"
