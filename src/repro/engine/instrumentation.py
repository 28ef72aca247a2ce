"""Per-query telemetry emitted by the batch engine.

:class:`QueryStats` is declared once, with its fold and summary rules,
in :mod:`repro.telemetry`; this module keeps its historical import
path.
"""

from repro.telemetry import QueryStats

__all__ = ["QueryStats"]
