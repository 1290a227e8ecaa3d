"""Kernel tier selection.

The mining engine has one counting implementation: the pure-NumPy kernels
of :mod:`repro.bucketing.counting`.  The ``kernel_tier=`` keywords, the
``--kernel-tier`` flag and the ``REPRO_KERNEL_TIER`` environment variable
remain as a validated selector so existing callers keep working: ``"auto"``
and ``"numpy"`` both resolve to ``"numpy"``, and any other name — including
the retired ``"compiled"`` (numba) tier — raises
:class:`~repro.exceptions.KernelError`.  Selection precedence is keyword
argument > ``REPRO_KERNEL_TIER`` > ``"auto"``.
"""

from __future__ import annotations

import os

from repro.exceptions import KernelError

__all__ = [
    "DEFAULT_KERNEL_TIER",
    "KERNEL_TIERS",
    "resolve_kernel_tier",
]

#: Tier names accepted by ``kernel_tier=`` keywords and ``--kernel-tier``.
KERNEL_TIERS = ("auto", "numpy")

#: Tier used when neither the keyword nor ``REPRO_KERNEL_TIER`` is set.
DEFAULT_KERNEL_TIER = "auto"

#: Environment variable consulted when no explicit tier is requested.
KERNEL_TIER_ENV = "REPRO_KERNEL_TIER"


def resolve_kernel_tier(requested: str | None = None) -> str:
    """Resolve a tier request to the concrete tier to run (always ``"numpy"``).

    Parameters
    ----------
    requested:
        ``"auto"``, ``"numpy"``, or ``None``.  ``None`` defers to the
        ``REPRO_KERNEL_TIER`` environment variable and then to ``"auto"``.

    Raises
    ------
    KernelError
        If the tier name is unknown, including ``"compiled"``: the numba
        tier was removed, and the NumPy kernels are the only implementation.
    """
    if requested is None:
        requested = os.environ.get(KERNEL_TIER_ENV) or DEFAULT_KERNEL_TIER
    tier = str(requested).strip().lower()
    if tier == "compiled":
        raise KernelError(
            "the compiled (numba) kernel tier was removed; the NumPy counting "
            "kernel is the only implementation — use kernel_tier='auto' or "
            "'numpy'"
        )
    if tier not in KERNEL_TIERS:
        raise KernelError(
            f"unknown kernel tier {requested!r}; expected one of {KERNEL_TIERS}"
        )
    return "numpy"
