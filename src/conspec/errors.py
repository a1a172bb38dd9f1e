"""Exception types shared across the engine.

Every error raised on user input derives from ConspecError so callers (and the
CLI) can catch one base class. Pipeline stages tag errors with ``stage`` when
they re-raise, so a translation failure reports where it happened.
"""

from __future__ import annotations


class ConspecError(Exception):
    """Base class for all engine errors."""

    stage: str | None = None

    def with_stage(self, stage: str) -> "ConspecError":
        self.stage = stage
        return self


class MalformedNetworkError(ConspecError):
    """A network violates a structural invariant (usually a bad anchor)."""


class TreelineParseError(ConspecError):
    """Tree-line text could not be parsed. Carries line and column."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line}, column {self.col})"


class ModelLoadError(ConspecError):
    """A model, corpus, or pair file failed validation while loading."""

    def __init__(
        self,
        message: str,
        path: str = "<inline>",
        line: int | None = None,
        col: int | None = None,
    ):
        super().__init__(message)
        self.path = path
        self.line = line
        self.col = col

    def __str__(self) -> str:
        where = self.path if self.line is None else f"{self.path}:{self.line}"
        if self.line is not None and self.col is not None:
            where += f":{self.col}"
        return f"{where}: {self.args[0]}"


class AffixError(ConspecError):
    """join_affixes received an inapplicable affix sequence."""


class UnrealizableFragmentError(ConspecError):
    """No rule applies to a network fragment in any surviving hypothesis."""

    def __init__(self, fragment_text: str):
        super().__init__(f"no rule realizes fragment: {fragment_text}")
        self.fragment_text = fragment_text


class UnparseableTextError(ConspecError):
    """Surface text has no complete parse under the loaded model."""

    def __init__(self, message: str, best_spans: list[str] | None = None):
        super().__init__(message)
        self.best_spans = best_spans or []


class UntranslatableConceptError(ConspecError):
    """A concept has neither a transfer rule nor a bilingual map entry."""

    def __init__(self, concept_text: str):
        super().__init__(f"no transfer rule or map entry for concept: {concept_text}")
        self.concept_text = concept_text
