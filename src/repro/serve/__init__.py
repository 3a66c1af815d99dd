"""Supervised concurrent serving over :mod:`repro.service`.

The service layer made the engine *reusable* (compile-once sessions,
warm databases); this layer makes it *operable*: a worker pool behind
bounded admission, retry with backoff for transient failures, per-form
circuit breakers, and crash-safe snapshot/restore.  Entry points:

* :class:`~repro.serve.supervisor.Supervisor` /
  :class:`~repro.serve.supervisor.ServeConfig` -- the pool itself;
* :class:`~repro.serve.retry.RetryPolicy` -- backoff schedule;
* :class:`~repro.serve.breaker.CircuitBreaker` /
  :class:`~repro.serve.breaker.BreakerRegistry` -- quarantine;
* :class:`~repro.serve.snapshot.Snapshotter` -- durability;
* ``repro serve`` (:mod:`repro.serve.cli`) -- the command-line front.
"""

from repro.serve.breaker import BreakerRegistry, CircuitBreaker
from repro.serve.retry import RetryPolicy, is_transient
from repro.serve.snapshot import Snapshotter, program_sha
from repro.serve.supervisor import PendingRequest, ServeConfig, Supervisor

__all__ = [
    "BreakerRegistry",
    "CircuitBreaker",
    "PendingRequest",
    "RetryPolicy",
    "ServeConfig",
    "Snapshotter",
    "Supervisor",
    "is_transient",
    "program_sha",
]
