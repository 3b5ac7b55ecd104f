"""Population serving mode: Zipf catalog + sessions + one shared cache.

The paper evaluates one synthetic transfer at a time; its deployment
story is a cellular gateway serving a whole subscriber population whose
requests overlap in content.  This package is that evaluation mode:

* :mod:`repro.serving.sessions` — seeded Poisson/think-time session
  generator (who asks for what, when);
* :mod:`repro.serving.engine` — drives the generated request stream as
  concurrent flows through one testbed whose gateways each hold one
  shared :class:`repro.core.cache.ByteCache`, and reports
  warm-up-excluded steady-state metrics;
* :mod:`repro.serving.sweep` — users x catalog x cache-budget grids
  through the sweep engine, emitting ``BENCH_serving.json``.
"""

from .engine import ServingSpec, run_serving
from .sessions import Request, SessionSpec, generate_sessions
from .sweep import (SERVING_BENCH_SCHEMA, run_serving_grid,
                    serving_bench_payload, validate_bench_serving)

__all__ = [
    "ServingSpec",
    "run_serving",
    "Request",
    "SessionSpec",
    "generate_sessions",
    "SERVING_BENCH_SCHEMA",
    "run_serving_grid",
    "serving_bench_payload",
    "validate_bench_serving",
]
