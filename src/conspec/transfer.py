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

``translate`` sends the best ``PARSE_CAP`` parses to transfer, but first
refuses each parse that holds a concept the map cannot translate and that no
transfer rule's non-slot source node has (``rules.refuses``): every
selection of matches sends that concept through the map, so the parse fails
transfer whatever is selected, and no transfer match is sought for it. A
refused parse still counts toward the cap. A stage fails only when every
candidate that reached it fails there: the transfer error, naming the best
failing parse's concept, only when no parse gets through transfer, and
otherwise the first realize failure.
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
from .network import Concept, ConceptNetwork
from .parser import parse_text
from .realizer import realize
from .rules import (
    ConceptMap,
    TransferRule,
    build_transfer_rule,
    consumed_concepts,
    refuses,
    transfer_scored,
)
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
    # ``consumed_concepts`` of the transfer rules, which ``translate`` reads
    # to refuse a parse; rebuilt by ``dataclasses.replace``
    consumed: frozenset[Concept] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.consumed = consumed_concepts(self.transfer_rules)


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
        for label in undeclared_stemless((stmt.src, stmt.dst), registry):
            lints.append(f"transfer rule {rid}: undeclared stemless {{{label}}}")
    return LanguagePair(source, receptor, tuple(trules), cmap, path, lints)


def load_pair(path: str | Path) -> LanguagePair:
    path = Path(path)
    return load_pair_text(_read_file(path, "pair file"), str(path), path.parent)


def translate(pair: LanguagePair, text: str) -> list[tuple[str, float, list[str]]]:
    """Ranked (text, score, trace) translations; score is the stage product.

    The best ``PARSE_CAP`` parses go on to transfer; one that
    ``rules.refuses`` is skipped before any match is sought, and still
    counts toward the cap.

    Stage errors propagate tagged with the failing stage; a stage only fails
    when every surviving candidate fails there. So the transfer error is
    raised only when no parse gets through transfer, and names the concept
    of the best-ranked parse; otherwise the first realize failure is raised.
    """
    src = pair.source_model
    try:
        parses = parse_text(src, text)
    except UnparseableTextError as exc:
        raise exc.with_stage("parse")
    # the first failure at each stage, which comes from the best-ranked parse
    # that failed there: its text, or at transfer a refused parse, whose text
    # is worked out only if it is reported; the error itself is not kept,
    # since its traceback holds this frame
    untranslatable: str | ConceptNetwork | None = None
    unrealizable: str | None = None
    results: dict[str, tuple[str, float, list[str]]] = {}
    for net, p_score, p_trace in parses[:PARSE_CAP]:
        if refuses(pair.concept_map, pair.consumed, net):
            if untranslatable is None:
                untranslatable = net
            continue
        try:
            receptor_nets = _transfer(pair, net)
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
        if unrealizable is not None:
            raise UnrealizableFragmentError(unrealizable).with_stage("realize")
        if isinstance(untranslatable, ConceptNetwork):
            try:
                _transfer(pair, untranslatable)
            except UntranslatableConceptError as exc:
                untranslatable = exc.concept_text
        if untranslatable is not None:
            raise UntranslatableConceptError(untranslatable).with_stage("transfer")
        raise UnparseableTextError(f"no translation of {text!r}").with_stage("parse")
    return sorted(results.values(), key=lambda r: (-r[1], len(r[0]), r[0]))


def _transfer(pair: LanguagePair, net: ConceptNetwork) -> list[tuple[ConceptNetwork, float]]:
    src = pair.source_model
    return transfer_scored(
        pair.transfer_rules,
        pair.concept_map,
        net,
        src.lexicon,
        alpha=src.pragmas.alpha,
        tau=src.pragmas.tau,
        beam=src.pragmas.beam,
    )
