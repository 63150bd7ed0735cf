"""Operations of a benchmark job and the known open defects they may hit.

Kept free of relaydde imports so the runner can load it before it has
located the package sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: known open defects an operation may hit; their failures are counted and
#: shown but do not make a run incorrect
OPEN_DEFECTS = {
    "edge": "closed form vs simulation at a -> beta_U (ROADMAP item 4)",
    "relaxed": "relaxed pulse whose merge its simulated horizon cannot decide "
               "(HorizonExhausted instead of T = inf with diagnostics)",
}


class Open(str):
    """A check failure caused by the operation's known open defect."""


@dataclass
class Op:
    """One operation of a job: run it, then check what it returned.

    ``check`` returns None when the result is right, else why it is wrong:
    an ``Open`` when the cause is the defect named by ``open_defect``.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    open_defect: Optional[str] = None
    is_cli: bool = True


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str
