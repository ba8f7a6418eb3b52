"""Exception hierarchy for the simulator.

Three failure families: bad models (rejected before any step runs), model
bugs surfacing mid-run (type errors, null targets, dangling references),
and engine bugs (contract violations between scheduler and executor).
"""

from __future__ import annotations

from dataclasses import dataclass


class SmmError(Exception):
    """Base class for all simulator errors."""


@dataclass(frozen=True)
class Diagnostic:
    """One located problem in a model source or definition."""

    message: str
    line: int | None = None
    column: int | None = None

    def __str__(self) -> str:
        if self.line is None:
            return self.message
        col = 0 if self.column is None else self.column
        return f"{self.line}:{col}: {self.message}"


class ModelError(SmmError):
    """Model rejected by parsing or validation; never starts a run."""

    def __init__(self, diagnostics: list[Diagnostic] | str):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(diagnostics)]
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class ExecError(SmmError):
    """A model-level fault during execution; aborts the run.

    Carries the executing (oid, tid, pc) when known so a failing action can
    be pinpointed in the model source; ``vm.step`` attaches them to every
    error of the action it runs. ``message`` is the text without that
    context, for re-raising with a fuller one.
    """

    def __init__(self, message: str, *, oid: int | None = None,
                 tid: int | None = None, pc: int | None = None):
        self.message = message
        self.oid = oid
        self.tid = tid
        self.pc = pc
        ctx = []
        if oid is not None:
            ctx.append(f"oid={oid}")
        if tid is not None:
            ctx.append(f"tid={tid}")
        if pc is not None:
            ctx.append(f"pc={pc}")
        suffix = f" [{', '.join(ctx)}]" if ctx else ""
        super().__init__(message + suffix)


class InternalError(SmmError):
    """Engine invariant broken; indicates a simulator bug, not a model bug."""
