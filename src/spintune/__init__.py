"""Closed-loop tuning of simulated spin-qubit devices.

Gradient-free optimization of readout, shuttling and single-qubit gate
parameters against physics-backed simulated backends, with post-hoc
sensitivity and covariance analysis. Import each name from its module:
``cmaes``, ``dqd``, ``backends``, ``rb``, ``analysis``, ``harness`` or
``cli``, whose ``__all__`` lists what it offers.
"""

__version__ = "0.1.0"
