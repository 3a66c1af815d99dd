"""The paper's primary contribution: pushing constraint selections.

* :mod:`repro.core.predconstraints` -- generation and propagation of
  minimum *predicate constraints* from predicate definitions
  (Section 4.4, Theorems 4.5/4.6).
* :mod:`repro.core.qrp` -- generation of *query-relevant predicate (QRP)
  constraints* from predicate uses (Section 4.2, Theorem 4.2) and their
  propagation by fold/unfold (Section 4.3, Theorems 4.3/4.4).
* :mod:`repro.core.steps` -- the ``pred`` and ``qrp`` steps every
  strategy runs, each with its one degradation ladder.
* :mod:`repro.core.rewrite` -- procedure ``Constraint_rewrite``
  combining the two (Section 4.5, Theorem 4.8).
* :mod:`repro.core.pipeline` -- transformation sequences mixing the two
  rewritings with constraint magic rewriting (Section 7).
* :mod:`repro.core.termination` -- the decidable subclass of Section 5.
* :mod:`repro.core.undecidable` -- the Section 3 reduction construction.
"""

from repro.core.predconstraints import (
    gen_predicate_constraints,
    gen_prop_predicate_constraints,
    is_predicate_constraint,
)
from repro.core.qrp import (
    gen_prop_qrp_constraints,
    gen_qrp_constraints,
)
from repro.core.rewrite import constraint_rewrite
from repro.core.termination import (
    in_terminating_class,
    iteration_bound,
)

__all__ = [
    "gen_predicate_constraints",
    "gen_prop_predicate_constraints",
    "is_predicate_constraint",
    "gen_qrp_constraints",
    "gen_prop_qrp_constraints",
    "constraint_rewrite",
    "in_terminating_class",
    "iteration_bound",
]
