"""Run the full exact identity suite on a randomly generated
anti-commutable algebroid with an admissible connection.

The fixture has a nonzero locality operator and a locality projector, so
every modified and projected structure is exercised.  Each verdict is
exact: a pass means the residual expands to the zero polynomial.
"""

import random

from algebroids import (
    check_admissible,
    check_bianchi_algebraic,
    check_bianchi_differential,
    check_cartan_structure,
    check_magic_and_derivations,
    check_ricci,
    check_square_laws,
    classify,
    decompose_connection,
)
from algebroids.fixtures import random_anticommutable, random_constant_metric

fx = random_anticommutable(seed=7, dim=2, rank=3, degree=2)
A, conn = fx.algebroid, fx.connection
print("flags:", classify(A))
print("nonzero locality entries:", len(A.loc))

checks = [
    check_admissible(A, conn),
    check_cartan_structure(A, conn),
    check_bianchi_algebraic(A, conn, "projected"),
    check_bianchi_algebraic(A, conn, "general"),
    check_bianchi_differential(A, conn),
    check_ricci(A, conn),
    check_magic_and_derivations(A, conn),
    check_square_laws(A, conn),
]
g = random_constant_metric(random.Random(7), A.dim, A.rank)
checks.append(decompose_connection(A, conn, g)[3])

width = max(len(c.identity) for c in checks)
for report in checks:
    status = "pass" if report.passed else "FAIL"
    note = f"  ({len(report.residuals)} witnesses)" if report.residuals else ""
    print(f"{report.identity:<{width}}  {status}{note}")
    for line in report.assumptions:
        if "associator" in line:
            print(f"{'':<{width}}  note: {line}")
