"""Model loading: a lexicon, a realization rule set, and pragmas, as one bundle.

Model files use the tree-line statement format (see treeline). Loading is
atomic: the bundle is fully built and validated before being returned, so a
reload that fails leaves the previous bundle untouched. Everything that can
raise runs inside ``load_model_text``, and a load builds nothing whose build
cannot fail and that a caller may never read: the parser's vocabulary, which
``realize`` never reads, is part of the chart index built on the model's
first parse (``ModelBundle.vocab`` reads it there); the undeclared-stemless
lint runs on the first read of ``ModelBundle.lints``; and the lexicon builds
each ancestor set on the first ask. A load reads the statements once, by
their exact type, and builds each record once: the lexicon keeps each
definition statement as read, and ``build_rule`` places a one-node rule part
without the aligner.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ModelLoadError, TreelineParseError
from .lexicon import Definition, Lexicon, lint_networks, undeclared_stemless
from .network import Concept, ConceptNetwork
from .rules import DEFAULT_BEAM, DEFAULT_TAU, Rule, build_rule
from .similarity import DEFAULT_ALPHA
from .treeline import (
    DeclareStmt,
    DefinitionStmt,
    NetworkStmt,
    PragmaStmt,
    RuleStmt,
    parse_document,
)

if TYPE_CHECKING:
    from .parser import Vocabulary


@dataclass(frozen=True)
class Pragmas:
    """Per-model settings. Every way of setting one (a `set` line, a CLI
    override) goes through the range checks here."""

    alpha: float = DEFAULT_ALPHA
    tau: float = DEFAULT_TAU
    beam: int = DEFAULT_BEAM
    orthography: bool = False

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError(f"beam must be at least 1, got {self.beam}")
        # alpha < 1 keeps every analogical derivation below an exact one
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        if not 0 <= self.tau <= 1:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")


@dataclass
class ModelBundle:
    lexicon: Lexicon
    rules: tuple[Rule, ...]
    pragmas: Pragmas
    path: str = "<inline>"
    content_hash: str = ""
    # the reader's notes, and the networks the stemless lint scans, in
    # statement order; ``lints`` reads them
    notes: tuple[str, ...] = field(default=(), repr=False, compare=False)
    scanned: tuple[ConceptNetwork, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def lints(self) -> list[str]:
        """The reader's notes, then each stemless label the model uses that
        its registry does not name, in order of first use. Computed on the
        first read, by this bundle or a ``dataclasses.replace`` copy."""
        undeclared = undeclared_stemless(self.scanned, self.lexicon.stemless_registry)
        return [*self.notes, *(f"undeclared stemless label {{{label}}}" for label in undeclared)]

    @property
    def vocab(self) -> Vocabulary:
        """Surface forms and rule literals for the parser, from its chart index."""
        from .parser import chart_index

        return chart_index(self).vocab


_BOOL = {"on": True, "true": True, "off": False, "false": False}

_PRAGMA_VALUE = {
    "alpha": float,
    "tau": float,
    "beam": int,
    "orthography": lambda text: _BOOL[text.lower()],
}


def _apply_pragma(pragmas: Pragmas, stmt: PragmaStmt, path: str) -> Pragmas:
    convert = _PRAGMA_VALUE.get(stmt.key)
    if convert is None:
        raise ModelLoadError(f"unknown pragma {stmt.key!r}", path, stmt.line)
    try:
        value = convert(stmt.value)
    except (ValueError, KeyError):
        raise ModelLoadError(
            f"bad value {stmt.value!r} for pragma {stmt.key!r}", path, stmt.line
        ) from None
    try:
        return replace(pragmas, **{stmt.key: value})
    except ValueError as exc:
        raise ModelLoadError(
            f"bad value {stmt.value!r} for pragma {stmt.key!r}: {exc}", path, stmt.line
        ) from None


def load_model_text(text: str, path: str = "<inline>") -> ModelBundle:
    try:
        doc = parse_document(text)
    except TreelineParseError as exc:
        raise ModelLoadError(str(exc.args[0]), path, exc.line, exc.col) from exc
    definitions: dict[Concept, Definition] = {}
    declares: dict[str, str] = {}
    pragmas = Pragmas()
    rules: list[Rule] = []
    for stmt in doc.statements:
        kind = type(stmt)
        if kind is DefinitionStmt:
            definitions[stmt.name] = stmt  # the lexicon keeps the statement
        elif kind is RuleStmt:
            rid = f"r{len(rules) + 1}"
            rules.append(build_rule(stmt.lhs, stmt.rhs, rid, stmt.line, path))
        elif kind is DeclareStmt:
            declares[stmt.label] = stmt.description
        elif kind is PragmaStmt:
            pragmas = _apply_pragma(pragmas, stmt, path)
        elif kind is NetworkStmt:
            continue  # bare networks are allowed in model files but carry no behavior
        else:
            raise ModelLoadError(
                f"{type(stmt).__name__} not allowed in a model file (pair files take"
                " transfer rules and map entries)",
                path,
                stmt.line,
            )
    try:
        lex = Lexicon(definitions=definitions)
    except ModelLoadError as exc:  # a definition cycle: name the model file
        raise ModelLoadError(exc.args[0], path, exc.line) from None
    lex.stemless_registry.update(declares)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    scanned = tuple(lint_networks(doc.statements))
    return ModelBundle(lex, tuple(rules), pragmas, path, digest, tuple(doc.lints), scanned)


def _read_file(path: str | Path, what: str) -> str:
    """The text of a UTF-8 file; one that cannot be read or decoded is a
    ModelLoadError naming ``what`` it was meant to be."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelLoadError(f"cannot read {what}: {exc}", str(path)) from exc


def load_model(path: str | Path) -> ModelBundle:
    path = Path(path)
    return load_model_text(_read_file(path, "model"), str(path))


def load_corpus(path: str | Path) -> list[tuple[str, ConceptNetwork, str]]:
    """Corpus file: ``surface<TAB>tree-line`` per line, # comments allowed."""
    from .treeline import parse_network

    path = Path(path)
    text = _read_file(path, "corpus")
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise ModelLoadError("corpus line needs surface<TAB>tree-line", str(path), lineno)
        try:
            net = parse_network(fields[1])
        except TreelineParseError as exc:
            # the network field starts after the surface, its tab and any indent
            start = len(raw) - len(raw.lstrip()) + len(fields[0]) + 1
            raise ModelLoadError(str(exc.args[0]), str(path), lineno, start + exc.col) from exc
        rows.append((fields[0], net, fields[1]))
    return rows
