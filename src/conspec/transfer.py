"""Translation: parse source text, transfer the network, realize receptor text.

A language pair bundles two loaded models with transfer rules and a bilingual
concept map. Pair files::

    source: english.cn
    receptor: sov.cn
    set identity-map on          # optional: concepts fall through unchanged
    trust > [{past}, {agent} > he, {theme} > John] => (shinji > [{agent} > kare, {theme} > Jon]) > {ta}
    map he -> kare

Transfer takes each parse as ``parse_text`` returns it, canonical and with
its anchors checked. Co-reference survives into the receptor language because
each node's anchor annotation is copied into the output, where
``transfer_scored`` checks it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    ModelLoadError,
    TreelineParseError,
    UnparseableTextError,
    UnrealizableFragmentError,
    UntranslatableConceptError,
)
from .lexicon import undeclared_stemless
from .model import _BOOL, ModelBundle, _read_file, load_model
from .parser import parse_text
from .realizer import realize
from .rules import ConceptMap, TransferRule, build_transfer_rule, transfer_scored
from .treeline import (
    DeclareStmt,
    DefinitionStmt,
    MapStmt,
    PragmaStmt,
    RuleStmt,
    TransferRuleStmt,
    _strip_comment,
    parse_document,
)

# Best parses of the source text that go on to transfer; the rest are dropped.
PARSE_CAP = 4


@dataclass
class LanguagePair:
    source_model: ModelBundle
    receptor_model: ModelBundle
    transfer_rules: tuple[TransferRule, ...]
    concept_map: ConceptMap
    path: str = "<inline>"
    lints: list[str] = field(default_factory=list)


def load_pair_text(text: str, path: str = "<inline>", base_dir: str | Path = ".") -> LanguagePair:
    base = Path(base_dir)
    source: ModelBundle | None = None
    receptor: ModelBundle | None = None
    rest: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("source:") or line.startswith("receptor:"):
            key, _, value = _strip_comment(line).partition(":")
            target = (base / value.strip()).resolve()
            model = load_model(target)
            if key == "source":
                source = model
            else:
                receptor = model
            rest.append("")
        else:
            rest.append(raw)
    if source is None or receptor is None:
        raise ModelLoadError("pair file needs 'source:' and 'receptor:' lines", path)
    try:
        doc = parse_document("\n".join(rest))
    except TreelineParseError as exc:
        raise ModelLoadError(str(exc.args[0]), path, exc.line, exc.col) from exc
    cmap = ConceptMap()
    for stmt in doc.statements:
        if isinstance(stmt, MapStmt):
            cmap.entries[stmt.src] = stmt.dst
        elif isinstance(stmt, PragmaStmt):
            if stmt.key == "identity-map":
                identity = _BOOL.get(stmt.value.lower())
                if identity is None:
                    raise ModelLoadError(
                        f"bad value {stmt.value!r} for pair pragma 'identity-map'", path, stmt.line
                    )
                cmap.identity = identity
            else:
                raise ModelLoadError(f"unknown pair pragma {stmt.key!r}", path, stmt.line)
        elif isinstance(stmt, (DefinitionStmt, RuleStmt, DeclareStmt)):
            raise ModelLoadError(
                f"{type(stmt).__name__} not allowed in a pair file (model files take"
                " definitions, realization rules and declare lines)",
                path,
                stmt.line,
            )
    trules = []
    lints: list[str] = []
    registry = source.lexicon.stemless_registry | receptor.lexicon.stemless_registry
    for stmt in doc.of_kind(TransferRuleStmt):
        rid = f"t{len(trules) + 1}"
        trules.append(build_transfer_rule(stmt.src, stmt.dst, cmap, rid, stmt.line, path))
        for label in undeclared_stemless([stmt], registry):
            lints.append(f"transfer rule {rid}: undeclared stemless {{{label}}}")
    return LanguagePair(source, receptor, tuple(trules), cmap, path, lints)


def load_pair(path: str | Path) -> LanguagePair:
    path = Path(path)
    return load_pair_text(_read_file(path, "pair file"), str(path), path.parent)


def translate(pair: LanguagePair, text: str) -> list[tuple[str, float, list[str]]]:
    """Ranked (text, score, trace) translations; score is the stage product.

    Stage errors propagate tagged with the failing stage; a stage only fails
    when every surviving candidate fails there.
    """
    src = pair.source_model
    try:
        parses = parse_text(src, text)
    except UnparseableTextError as exc:
        raise exc.with_stage("parse")
    # the text of the first failure at each stage, which comes from the
    # best-ranked parse that failed there; the error itself is not kept,
    # since its traceback holds this frame
    untranslatable: str | None = None
    unrealizable: str | None = None
    results: dict[str, tuple[str, float, list[str]]] = {}
    for net, p_score, p_trace in parses[:PARSE_CAP]:
        try:
            receptor_nets = transfer_scored(
                pair.transfer_rules,
                pair.concept_map,
                net,
                src.lexicon,
                alpha=src.pragmas.alpha,
                tau=src.pragmas.tau,
                beam=src.pragmas.beam,
            )
        except UntranslatableConceptError as exc:
            if untranslatable is None:
                untranslatable = exc.concept_text
            continue
        for receptor_net, t_score in receptor_nets:
            try:
                realized = realize(pair.receptor_model, receptor_net)
            except UnrealizableFragmentError as exc:
                if unrealizable is None:
                    unrealizable = exc.fragment_text
                continue
            for out_text, r_score, r_trace in realized:
                score = p_score * t_score * r_score
                trace = (
                    [f"parse:{e}" for e in p_trace]
                    + [f"transfer:score={t_score:.6g}"]
                    + [f"realize:{e}" for step in r_trace for e in step]
                )
                prev = results.get(out_text)
                if prev is None or score > prev[1]:
                    results[out_text] = (out_text, score, trace)
    if not results:
        if untranslatable is not None:
            raise UntranslatableConceptError(untranslatable).with_stage("transfer")
        if unrealizable is not None:
            raise UnrealizableFragmentError(unrealizable).with_stage("realize")
        raise UnparseableTextError(f"no translation of {text!r}").with_stage("parse")
    return sorted(results.values(), key=lambda r: (-r[1], len(r[0]), r[0]))
