"""qrank: exact q-series engine and partition-quadruple rank toolkit."""

from .cyclotomic import CycQ, QQ, cyclotomic_field, is_prime
from .series import (INF, LaurentSeries, PrecisionError, ZLaurentPoly,
                     geometric, jacprod, poch, theta_jtp_sum)
from .lambert import E_series, P_series, TSpec, lambert_T
from .quadruples import class_counts, enumerate_quadruples, rank_counts, rank_table
from .rankgen import (IDENTITY_NAMES, ROUTES, eval_f, eval_g, rank_series,
                      rhs_identity, root_prefactor, ru_at_root, rv_at_root,
                      u_series, v_series)

__version__ = "0.1.0"
