"""kstab: exact-arithmetic canonical-metric existence tests for three
families of Fano manifolds.

The core pipeline is: resolve a family member and divisor class into a
rational moment domain plus a factored weight (``families``), integrate
exactly over it (``polytope``, ``quadrature``), and decide the criterion
(``criteria``).  ``verify`` re-derives every published-style claim two
independent ways, and ``cli`` exposes everything as a sweep tool.

The package itself binds no name: import each from the module that
defines it, as in ``from kstab.criteria import ke_classify``.
"""
