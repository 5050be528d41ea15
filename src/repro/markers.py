"""Runtime markers the static analyses key on.

:func:`checkpointable` declares that a class carries run state which the
durability subsystem snapshots and restores.  The decorator is inert at
runtime (it only stamps ``__checkpointable__``), but it is a *contract*
the whole-program flow analysis enforces: every attribute the class ever
assigns on ``self`` must be captured by one of its snapshot methods
(``state_snapshot`` / ``network_snapshot`` / ``__getstate__`` /
``_snapshot_sections``) or carry a
reasoned suppression saying why a restore does without it::

    self._cache = {}  # repro-lint: disable=flow-snapshot-coverage -- rebuilt lazily on first read

``repro-lint flow`` (see :mod:`repro.analysis.flow`) fails the build on
any attribute that is neither — the machine-checked form of PR 9's
"the network section is the single authority" invariant.

The module sits in the kernel layer (alongside :mod:`repro.errors`) so
any package may mark its classes without bending an import edge.
"""

from __future__ import annotations

from typing import Type, TypeVar

_T = TypeVar("_T")


def checkpointable(cls: Type[_T]) -> Type[_T]:
    """Mark ``cls`` as snapshot-bearing; enforced by ``repro-lint flow``."""
    cls.__checkpointable__ = True  # type: ignore[attr-defined]
    return cls

