"""Independent reference implementations the production paths are tested
against.

Nothing in ``src/`` imports these: they exist only so equivalence tests
and benchmark gates compare the engine's optimized paths with a simpler
implementation of the same semantics, instead of with each other.

* :mod:`oracles.naive_engine` — the one-``step``-per-round run loop;
* :mod:`oracles.channels` — the per-``Message`` CONGEST delivery loop and
  the per-listener radio scan;
* :mod:`oracles.surgery` — networkx's ``subgraph(nodes).copy()``, the
  reference for residual-graph surgery.
"""
