"""Name of the stepping implementation, echoed in run.txt and benchmark records.

The grid route has one stepper, the numpy recursion in scheme.advance_phase.
"""

from __future__ import annotations

__all__ = ["active"]


def active() -> str:
    """Name of the implementation advance_phase runs."""
    return "numpy"
