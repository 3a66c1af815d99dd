"""Single source of truth for the pipeline's default caps and sizes.

Every fixpoint in the system is capped (non-termination is a studied
phenomenon of the paper, not a bug), and the caps used to be repeated
as literal defaults across half a dozen signatures -- which is how the
driver and the engine once drifted apart silently.  Any module that
needs a default cap imports it from here; a regression test
(``tests/unit/test_config_defaults.py``) asserts that the public
signatures actually agree with these constants.
"""

from __future__ import annotations

#: Default cap for the constraint-inference (rewrite) fixpoints:
#: ``Gen_predicate_constraints``, ``Gen_QRP_constraints``, and the
#: procedures built on them.
DEFAULT_REWRITE_ITERATIONS = 50

#: Default cap for bottom-up fixpoint evaluation
#: (``repro.engine.fixpoint.evaluate``).
DEFAULT_EVAL_ITERATIONS = 200

#: Default capacity of a session's query-form LRU cache
#: (``repro.service.cache.FormCache``).
DEFAULT_CACHE_SIZE = 64

#: Default cap for the terminating interval-hull widening fallback
#: (``repro.core.widening``); it converges on its own, the cap is a
#: backstop.
DEFAULT_WIDENING_ITERATIONS = 60
