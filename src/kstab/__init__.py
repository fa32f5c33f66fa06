"""kstab: exact-arithmetic canonical-metric existence tests for three
families of Fano manifolds.

The core pipeline is: resolve a family member and divisor class into a
rational moment domain plus a factored weight (``families``), integrate
exactly over it (``polytope``, ``quadrature``), and decide the criterion
(``criteria``).  ``verify`` re-derives every published-style claim two
independent ways, and ``cli`` exposes everything as a sweep tool.
"""

from .criteria import (
    CoupledCertificate,
    KEStatus,
    KEVerdict,
    MabuchiStatus,
    MabuchiVerdict,
    MHCertificate,
    coupled_default_endpoints,
    coupled_negative_threshold,
    coupled_residual,
    coupled_search,
    ke_classify,
    mabuchi,
    mh_certificate,
)
from .errors import KstabError
from .families import (
    FamilyInstance,
    FamilyTag,
    anticanonical_divisor,
    blpp_resolve,
    blqq_resolve,
    instance_record,
    quad_resolve,
    resolve_anticanonical,
)
from .poly import AffineForm, FactoredWeight, Poly1, Poly2, Rational, binomial
from .polytope import (
    HalfPlane,
    Polygon,
    Segment,
    polygon_from_halfplanes,
    triangulate,
)
from .quadrature import (
    Moments2,
    barycenter,
    integrate_factored,
    integrate_poly1,
    integrate_poly2_polygon,
    integrate_poly2_triangle,
    moments,
)

__version__ = "0.1.0"

__all__ = [
    "AffineForm",
    "CheckResult",
    "CoupledCertificate",
    "FactoredWeight",
    "FamilyInstance",
    "FamilyTag",
    "HalfPlane",
    "KEStatus",
    "KEVerdict",
    "KstabError",
    "MHCertificate",
    "MabuchiStatus",
    "MabuchiVerdict",
    "Moments2",
    "Poly1",
    "Poly2",
    "Polygon",
    "Rational",
    "Segment",
    "anticanonical_divisor",
    "barycenter",
    "binomial",
    "blpp_resolve",
    "blqq_resolve",
    "coupled_default_endpoints",
    "coupled_negative_threshold",
    "coupled_residual",
    "coupled_search",
    "instance_record",
    "integrate_factored",
    "integrate_poly1",
    "integrate_poly2_polygon",
    "integrate_poly2_triangle",
    "ke_classify",
    "mabuchi",
    "mh_certificate",
    "moments",
    "polygon_from_halfplanes",
    "quad_resolve",
    "resolve_anticanonical",
    "triangulate",
    "verify_theorems",
]


def __getattr__(name: str):
    # verify's two exports load the suites on first use, not with the package
    if name in ("CheckResult", "verify_theorems"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
