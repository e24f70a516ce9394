"""Process-wide observability capture sessions.

The experiment stack funnels every world through
:func:`repro.runtime.build.build`, but its call signatures (experiment
runners, sweep workers, pool processes) don't thread an ``ObsSpec``.  A
*capture session* sidesteps that: :func:`capture` pushes a session onto
a module-level stack, ``build()`` consults :func:`active` and
force-enables observability for every world built inside the ``with``
block, and each built scenario registers itself so
:meth:`ObsSession.write` can emit one artifact directory for the whole
run — including runs that build several worlds.

:func:`observed` runs one call in such a session and returns the call's
result with a :class:`~repro.obs.artifacts.RunArtifact` per world it
built; :func:`repro.parallel.run_in_order` runs every sweep point and
experiment through it (in worker processes too, which each get their own
empty stack) and folds the artifacts in the parent.

This module deliberately has no module-level ``repro.runtime``/
``repro.sim`` imports (it sits below the kernel in the import graph):
the scenarios it holds are duck-typed, and :func:`observed` imports
``ObsSpec`` only when called.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.artifacts import RunArtifact, collect_scenario, write_artifacts


class ObsSession:
    """One capture scope: the forced obs config + the worlds built in it."""

    def __init__(self, obs: Any) -> None:
        self.obs = obs
        self.scenarios: list[Any] = []

    def register(self, scenario: Any) -> None:
        self.scenarios.append(scenario)

    def write(self, directory: str | Path) -> dict[str, Path]:
        """Emit one artifact directory covering every registered world.

        A session that never built a world still writes a valid (empty)
        directory, so downstream tooling can rely on the layout.
        """
        return write_artifacts(
            directory, [collect_scenario(s) for s in self.scenarios]
        )


_ACTIVE: list[ObsSession] = []


def active() -> ObsSession | None:
    """The innermost capture session, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def capture(obs: Any) -> Iterator[ObsSession]:
    """Force-enable observability for every world built in this scope.

    Args:
        obs: The ``ObsSpec`` applied to worlds whose own spec leaves
            observability off (a spec's explicit ``obs`` block wins).
    """
    session = ObsSession(obs)
    _ACTIVE.append(session)
    try:
        yield session
    finally:
        _ACTIVE.pop()


def observed(call: Callable[[Any], Any], item: Any) -> tuple[Any, list[RunArtifact]]:
    """``call(item)`` with every world it builds observed.

    Module-level so a process pool can pickle it.  Returns the call's
    result and one artifact per world, in build order.
    """
    from repro.runtime import ObsSpec

    with capture(ObsSpec(enabled=True)) as session:
        result = call(item)
    return result, [collect_scenario(s) for s in session.scenarios]
