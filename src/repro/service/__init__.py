"""Long-lived query service: compile-once sessions over a warm EDB.

The paper's rewritings specialize a program to *one* query's constraint
selection; a deployment serving many queries must amortize that cost
across queries that share a *form* and differ only in constants (the
parameterized constraint selections of Section 4).  This package
spreads it so:

* :mod:`repro.service.forms` canonicalizes a query into a
  :class:`QueryForm` -- predicate, adornment, and constraint shape with
  constants generalized to parameters;
* :mod:`repro.service.cache` is the bounded LRU of compiled forms;
* :mod:`repro.service.session` owns the warm EDB, per-request budgets,
  incremental fact loading, and error isolation;
* :mod:`repro.service.engine` is the user-facing facade (text in,
  :class:`Response` out);
* :mod:`repro.service.batch` streams the CLI ``--batch`` line protocol.

See ``docs/service.md`` for the full contract.
"""

from repro.service.cache import CacheEntry, FormCache
from repro.service.engine import Engine
from repro.service.forms import QueryForm, canonicalize
from repro.service.session import (
    CompiledForm,
    Response,
    Session,
    WarmState,
)

__all__ = [
    "CacheEntry",
    "CompiledForm",
    "Engine",
    "FormCache",
    "QueryForm",
    "Response",
    "Session",
    "WarmState",
    "canonicalize",
]
