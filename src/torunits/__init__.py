"""Exact-arithmetic toolkit for torsion units in integral group rings of PSL(2,q).

The package provides cyclotomic-integer arithmetic over Z[zeta_n], a
distinguished integral basis of the real subring Z[zeta_n + zeta_n^-1]
with closed-form coordinates, integer-divisibility criteria for twisted
coefficient sums, numerical models of PSL(2,q) Brauer character data,
and a certificate-producing case-analysis engine that verifies, for
concrete odd orders n coprime to 2q, that every normalized torsion unit
of order n is rationally conjugate to a group element.  Augmentation
vectors and eigenvalue multiplicities, used only for exploratory
searches, live in torunits.augment, which the package does not import.
"""

from torunits.cyclotomic import CycInt, cyclotomic_poly, eval_at_root, real_trace
from torunits.helpengine import CaseCertificate, OrderVerdict, check_case, verify_order
from torunits.psl2 import GroupProfile, admissible_orders, group_profile

__version__ = "0.1.0"

__all__ = [
    "CaseCertificate",
    "CycInt",
    "GroupProfile",
    "OrderVerdict",
    "admissible_orders",
    "check_case",
    "cyclotomic_poly",
    "eval_at_root",
    "group_profile",
    "real_trace",
    "verify_order",
    "__version__",
]
