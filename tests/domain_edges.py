"""Values just outside each input domain, keyed by what the domain's refusal
says: each edge itself and a value past it. One table serves the generated
parameter cases of `test_cli.py` and the generated file cases of
`test_input_tables.py`; each takes the rows of the domains its tables use.

A plain module, not a test module: `from domain_edges import OUTSIDE`.
"""
import math

from koopext import core
from koopext.experiments import _config_table

# no number kind takes a number that is not finite, nor an integer beyond
# float range
NOT_FINITE = (math.inf, -math.inf, math.nan, 10**400)
OUTSIDE = {
    # an integer kind takes no float, however whole
    "an integer >= 0": (-1, 0.0, *NOT_FINITE),
    "an integer >= 1": (0, -1, 1.0, *NOT_FINITE),
    "an integer >= 2": (1, 0, -1, *NOT_FINITE),
    "an integer >= 3": (2, 1, 0, -1, *NOT_FINITE),
    "null or an integer >= 0": (-1, 0.0, *NOT_FINITE),
    "1": (0, 2, 1.0, *NOT_FINITE),
    "a finite number": NOT_FINITE,
    "a finite positive number": (0, -1, *NOT_FINITE),
    "a finite nonnegative number": (-1e-9, -1, *NOT_FINITE),
    "null or a finite positive number": (0, -1, *NOT_FINITE),
    "a number in (0, 1)": (0, 1, 1.5, -1, *NOT_FINITE),
    # 2 sigma^2 passes float range just above the first edge and underflows
    # to 0 just below the second
    core._BANDWIDTH.says: (9.480751908109177e+153, 1e170, 1.5717277847026285e-162, 1e-170, 0,
                           -1, *NOT_FINITE),
    "identity or rbf_gaussian": ("gaussian",),
    _config_table()["experiment"][1].says: ("nope",),
    "an array of rows of 2 finite numbers": ([[0.5]], [[0.5, 0.5, 0.5]], [[0.5, math.nan]],
                                             [[math.inf, 0.5]], [[0.5, 10**400]]),
    "a JSON string": (),
    "a JSON object": (),
}
