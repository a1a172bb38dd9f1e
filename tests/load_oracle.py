"""Model loading as it was before the load path was made cheaper, kept
verbatim as an oracle.

``tokenize`` here builds a ``Token`` for every whitespace run, ``_Parser``
bounds-checks every ``peek``, ``parse_document`` builds a fresh ``Concept``
for every concept token, ``_find_embeddings`` walks the whole lhs for each
rule part, and ``_ancestor_chain`` walks from each defined concept to the
top of its chain. ``load_model_text`` is the old load, which filled the
lexicon's ancestor table with that walk and computed the lints with
``undeclared_stemless`` as it was, over the statements. ``build_vocabulary`` is the
parser's vocabulary as the old load built it, from each rule's lhs nodes
indexed by concept, in the ``Vocabulary`` record the parser kept then.
``tests/test_load_oracle.py`` checks ``conspec.model.load_model_text`` and
a loaded model's chart index (``conspec.parser.chart_index``) against
them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from conspec.errors import ModelLoadError, TreelineParseError
from conspec.lexicon import Definition, Lexicon
from conspec.model import ModelBundle, Pragmas, _apply_pragma
from conspec.network import DOWN, STRUCTURAL_CHARS, UP, Anchor, Concept, ConceptNetwork, Node
from conspec.rules import Literal, PatternPart, Rule, _exact_sim
from conspec.similarity import Alignment, align_networks
from conspec.treeline import (
    _BAD_TOKEN,
    _EITHER_OR_SPELLINGS,
    _SENSE,
    MAX_NESTING,
    DeclareStmt,
    DefinitionStmt,
    MapStmt,
    NetworkStmt,
    PragmaStmt,
    RuleStmt,
    Statement,
    TransferRuleStmt,
    TreelineDocument,
    _normalize_label,
    _strip_comment,
    print_network,
)


_TOKEN = re.compile(
    r"(?P<label>(?![ \t\r])(?:[^\n>\[\](){},=<'#-]|-(?!>))+)"
    r"|(?P<space>[ \t\r]+)"
    r"|(?P<punct><=>|=>|->|<<(?!<)|[\[\](),=])"
    r"|(?P<gt>>+)"
    r"|(?P<brace>\{[^}]*\})"
    r"|(?P<literal>'[^']*')"
    rf"|(?P<sense>{_SENSE.pattern})"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<bad><<<|[<{'}])"
)


@dataclass
class Token:
    kind: str  # 'label' 'brace' 'literal' '>' '[' ']' '(' ')' ',' '=' '<=>' '=>' '->' 'up' '<<'
    value: str
    line: int
    col: int


def _split_on(tokens: list[Token], kind: str) -> tuple[list[Token], list[Token]] | None:
    for i, tok in enumerate(tokens):
        if tok.kind == kind:
            return tokens[:i], tokens[i + 1 :]
    return None


def _split_sense(label: str, line: int, col: int) -> tuple[str, int]:
    base, sep, _ = label.partition("#")
    if not sep:
        return label, 1
    sense = _SENSE.fullmatch(label, len(base))
    if base and sense:
        try:
            return base.rstrip(), int(sense[1])
        except ValueError:  # more digits than int() converts
            pass
    raise TreelineParseError(f"bad sense annotation in {label!r}", line, col)


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = start_line, 0

    def err(msg: str) -> TreelineParseError:
        return TreelineParseError(msg, line, col)

    for m in _TOKEN.finditer(text):
        kind, value, col = m.lastgroup, m[0], m.start() - line_start + 1
        if kind == "label":
            label = _normalize_label(value)
            if not label:  # a run of whitespace that str.split() knows, such as '\f'
                raise err(f"unexpected character {value[0]!r}")
            tokens.append(Token("label", label, line, col))
        elif kind == "punct":
            tokens.append(Token(value, value, line, col))
        elif kind == "gt":
            if len(value) > 1 and len(value) % 2:
                raise err(f"ambiguous run of {len(value)} '>' characters")
            tokens.append(Token(">" if value == ">" else "up", value, line, col))
        elif kind == "brace":
            label = _normalize_label(value[1:-1])
            if not label:
                raise err("empty stemless label '{}'")
            bad = STRUCTURAL_CHARS.intersection(label) - {"#"}
            if bad:
                raise err(f"stemless label contains {sorted(bad)[0]!r}")
            tokens.append(Token("brace", label, line, col))
        elif kind == "literal":
            tokens.append(Token("literal", value[1:-1], line, col))
        elif kind == "sense":
            if not tokens or tokens[-1].kind not in ("label", "brace"):
                raise err("sense annotation must follow a concept")
            if "#" in tokens[-1].value:
                raise err("a concept takes one sense annotation")
            tokens[-1].value += value
        elif kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            raise err(_BAD_TOKEN[value])
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], end_line: int = 1):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise TreelineParseError("unexpected end of input", self.end_line, 1)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise TreelineParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def err(self, msg: str, tok: Token | None = None) -> TreelineParseError:
        tok = tok or self.peek()
        if tok is None:
            return TreelineParseError(msg, self.end_line, 1)
        return TreelineParseError(msg, tok.line, tok.col)

    # -- network grammar ---------------------------------------------------
    #
    # ``level`` is the nesting level of the node being built: 1 for a root,
    # one more per specifier step and per step into a capsule body.

    def network(self, capsule_depth: int = 0, level: int = 1) -> ConceptNetwork:
        roots = [self.chain(capsule_depth, level)]
        while self.peek() is not None and self.peek().kind == ",":
            self.next()
            roots.append(self.chain(capsule_depth, level))
        return ConceptNetwork(tuple(roots))

    def chain(self, capsule_depth: int, level: int) -> Node:
        root = self.item(capsule_depth, level)
        current = root
        while self.peek() is not None and self.peek().kind == ">":
            self.next()
            tok = self.peek()
            if tok is None:
                raise self.err("trailing '>'")
            if tok.kind == "[":
                self.next()
                group = self.network(capsule_depth, level + 1)  # commas consumed inside
                self.expect("]")
                current.specifiers = current.specifiers + group.roots
                # chain position stays on the bracket's owner
            else:
                level += 1
                child = self.item(capsule_depth, level)
                current.specifiers = current.specifiers + (child,)
                current = child
        return root

    def item(self, capsule_depth: int, level: int) -> Node:
        anchor: Anchor | None = None
        tok = self.peek()
        if level > MAX_NESTING:
            raise self.err(f"network nested deeper than {MAX_NESTING} levels")
        while tok is not None and tok.kind in ("up", "<<"):
            self.next()
            if anchor is not None and anchor.direction != (UP if tok.kind == "up" else DOWN):
                raise self.err("mixed '>>' and '<<' prefixes", tok)
            if tok.kind == "up":
                depth = (anchor.depth if anchor else 0) + len(tok.value) // 2
                anchor = Anchor(UP, depth)
            else:
                if anchor is not None:
                    raise self.err("repeated '<<' prefix", tok)
                anchor = Anchor(DOWN, 1)
            tok = self.peek()
        if anchor is not None and capsule_depth == 0:
            raise self.err("anchor outside any encapsulation", tok)
        if tok is None:
            raise self.err("expected a concept")
        if tok.kind in ("label", "brace"):
            self.next()
            label, sense = _split_sense(tok.value, tok.line, tok.col)
            if label in _EITHER_OR_SPELLINGS:
                label = "either or"
            return Node(concept=Concept(label, tok.kind == "brace", sense), anchor=anchor)
        if tok.kind == "(":
            self.next()
            body = self.network(capsule_depth + 1, level + 1)
            self.expect(")")
            return Node(capsule=body, anchor=anchor)
        if tok.kind == "[":
            raise self.err("specifier group must follow a concept", tok)
        if tok.kind == "literal":
            raise self.err("quoted literal not allowed inside a network", tok)
        raise self.err(f"unexpected {tok.value!r}", tok)

    # -- rule part list ----------------------------------------------------

    def part_list(self) -> list[tuple[str, object]]:
        self.expect("[")
        parts: list[tuple[str, object]] = []
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "literal":
                parts.append(("lit", self.next().value))
            else:
                parts.append(("pat", ConceptNetwork((self.chain(0, 1),))))
            tok = self.next()
            if tok.kind == "]":
                return parts
            if tok.kind != ",":
                raise self.err(f"expected ',' or ']', found {tok.value!r}", tok)


def _parse_tokens(tokens: list[Token], end_line: int, production=_Parser.network):
    """Parse all of ``tokens`` as one ``production`` of the grammar."""
    parser = _Parser(tokens, end_line)
    result = production(parser)
    tok = parser.peek()
    if tok is not None:
        raise TreelineParseError(f"unexpected trailing {tok.value!r}", tok.line, tok.col)
    return result


def _parse_concept_tokens(tokens: list[Token], line: int) -> Concept:
    if len(tokens) != 1 or tokens[0].kind not in ("label", "brace"):
        where = tokens[0] if tokens else None
        raise TreelineParseError(
            "expected a single concept", where.line if where else line, where.col if where else 1
        )
    tok = tokens[0]
    label, sense = _split_sense(tok.value, tok.line, tok.col)
    if label in _EITHER_OR_SPELLINGS:
        label = "either or"
    return Concept(label, tok.kind == "brace", sense)


def parse_document(text: str, *, collect_errors: list | None = None) -> TreelineDocument:
    """Parse a model file into an ordered statement list.

    Duplicate definition names raise (listing both lines) unless
    ``collect_errors`` is given, in which case problems are appended there and
    parsing continues (lint mode).
    """
    statements: list[Statement] = []
    lints: list[str] = []
    seen_defs: dict[Concept, int] = {}

    def problem(exc: TreelineParseError):
        if collect_errors is not None:
            collect_errors.append(exc)
        else:
            raise exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if "either..." in stripped:
            lints.append(f"line {lineno}: normalized 'either...or' to 'either or'")
        word = stripped.split(None, 1)[0]
        try:
            if word == "declare":
                rest = _strip_comment(stripped[len("declare") :]).strip()
                if not rest.startswith("{"):
                    raise TreelineParseError("declare needs a {label}", lineno, 1)
                end = rest.find("}")
                if end == -1:
                    raise TreelineParseError("unterminated '{'", lineno, 1)
                label = _normalize_label(rest[1:end])
                desc = rest[end + 1 :].strip()
                if desc.startswith('"') and desc.endswith('"') and len(desc) >= 2:
                    desc = desc[1:-1]
                statements.append(DeclareStmt(label, desc, lineno))
                continue
            if word == "set":
                fields = _strip_comment(stripped).split(None, 2)
                if len(fields) < 3:
                    raise TreelineParseError("set needs a key and a value", lineno, 1)
                statements.append(PragmaStmt(fields[1], fields[2].strip(), lineno))
                continue
            if word == "map":
                at = raw.index("map")
                body = raw[:at] + " " * 3 + raw[at + 3 :]  # keep columns aligned
                split = _split_on(tokenize(body, start_line=lineno), "->")
                if split is None:
                    raise TreelineParseError("map needs 'src -> dst'", lineno, 1)
                src = _parse_concept_tokens(split[0], lineno)
                dst = _parse_concept_tokens(split[1], lineno)
                statements.append(MapStmt(src, dst, lineno))
                continue
            tokens = tokenize(raw, start_line=lineno)
            if not tokens:
                continue
            if (split := _split_on(tokens, "<=>")) is not None:
                lhs_toks, rhs_toks = split
                lhs = _parse_tokens(lhs_toks, lineno)
                rhs = _parse_tokens(rhs_toks, lineno, _Parser.part_list)
                statements.append(RuleStmt(lhs, rhs, lineno))
                continue
            if (split := _split_on(tokens, "=>")) is not None:
                src_net = _parse_tokens(split[0], lineno)
                dst_net = _parse_tokens(split[1], lineno)
                statements.append(TransferRuleStmt(src_net, dst_net, lineno))
                continue
            if (split := _split_on(tokens, "=")) is not None:
                name = _parse_concept_tokens(split[0], lineno)
                body = _parse_tokens(split[1], lineno)
                if name in seen_defs:
                    problem(
                        TreelineParseError(
                            f"duplicate definition of {name.text()} "
                            f"(lines {seen_defs[name]} and {lineno})",
                            lineno,
                            1,
                        )
                    )
                else:
                    seen_defs[name] = lineno
                statements.append(DefinitionStmt(name, body, lineno))
                continue
            net = _parse_tokens(tokens, lineno)
            if len(net.roots) > 1:
                lints.append(f"line {lineno}: multi-root network statement")
            statements.append(NetworkStmt(net, lineno))
        except TreelineParseError as exc:
            problem(exc)
    return TreelineDocument(statements, lints)


def _find_embeddings(pattern: ConceptNetwork, lhs: ConceptNetwork) -> list[Alignment]:
    """All exact prefix embeddings of a (single-root) pattern into lhs.

    An lhs node is aligned only if it has the root's concept (None for both
    capsules): ``_exact_sim`` is 0 on any other pair.
    """
    root = pattern.roots[0]
    out = []
    for anchor_node in lhs.iter_nodes():
        if anchor_node.concept != root.concept:
            continue
        target = ConceptNetwork((anchor_node,))
        got = align_networks(pattern, target, _exact_sim, total=False)
        if got is not None:
            out.append(got)
    return out


def build_rule(
    lhs: ConceptNetwork,
    rhs: list[tuple[str, object]],
    rule_id: str,
    line: int = 0,
    path: str = "<inline>",
) -> Rule:
    parts: list[Literal | PatternPart] = []
    part_at: dict[int, int] = {}
    for kind, value in rhs:
        if kind == "lit":
            parts.append(Literal(str(value)))
            continue
        pattern: ConceptNetwork = value  # type: ignore[assignment]
        if len(pattern.roots) != 1:
            raise ModelLoadError("rule part must be a single chain", path, line)
        embeddings = _find_embeddings(pattern, lhs)
        if not embeddings:
            raise ModelLoadError(
                f"rule part {print_network(pattern)!r} does not occur in the rule pattern",
                path,
                line,
            )
        if len(embeddings) > 1:
            raise ModelLoadError(
                f"rule part {print_network(pattern)!r} is ambiguous in the rule pattern"
                " (annotate senses to disambiguate)",
                path,
                line,
            )
        binding = embeddings[0].binding
        if any(id(t) in part_at for t in binding.values()):
            raise ModelLoadError("rule parts overlap on the pattern", path, line)
        part_at.update((id(t), len(parts)) for t in binding.values())
        parts.append(PatternPart(pattern, dict(binding)))
    return Rule(lhs, parts, rule_id, line, part_at)


# The statement fields scanned for stemless labels. A rule's rhs patterns are
# sub-chains of its lhs (build_rule checks), so the lhs covers them.
_NETWORK_FIELDS = {
    NetworkStmt: ("network",),
    DefinitionStmt: ("body",),
    RuleStmt: ("lhs",),
    TransferRuleStmt: ("src", "dst"),
}


def undeclared_stemless(statements: list[Statement], registry: dict[str, str]) -> list[str]:
    """Stemless labels the statements use that neither ``registry`` nor their
    own ``declare`` lines name, in order of first use."""
    declared = set(registry) | {s.label for s in statements if isinstance(s, DeclareStmt)}
    out: list[str] = []
    for stmt in statements:
        for name in _NETWORK_FIELDS.get(type(stmt), ()):
            for c in getattr(stmt, name).concepts():
                if c.stemless and c.label not in declared and c.label not in out:
                    out.append(c.label)
    return out


def _ancestor_chain(self, concept: Concept) -> frozenset[Concept]:
    out = {concept}
    cur = concept
    while True:
        defn = self.definitions.get(cur)
        if defn is None:
            return frozenset(out)
        cur = defn.body.roots[0].head_concept()
        if cur in out:  # cycle guard; _check_cycles makes this unreachable
            return frozenset(out)
        out.add(cur)


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
        if isinstance(stmt, DefinitionStmt):
            definitions[stmt.name] = Definition(stmt.name, stmt.body, stmt.line)
        elif isinstance(stmt, DeclareStmt):
            declares[stmt.label] = stmt.description
        elif isinstance(stmt, PragmaStmt):
            pragmas = _apply_pragma(pragmas, stmt, path)
        elif isinstance(stmt, RuleStmt):
            rid = f"r{len(rules) + 1}"
            rules.append(build_rule(stmt.lhs, stmt.rhs, rid, stmt.line, path))
        elif isinstance(stmt, NetworkStmt):
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
        lex.ancestor_table = {c: _ancestor_chain(lex, c) for c in lex.definitions}
    except ModelLoadError as exc:  # a definition cycle: name the model file
        raise ModelLoadError(exc.args[0], path, exc.line) from None
    lex.stemless_registry.update(declares)
    lints = list(doc.lints)
    for label in undeclared_stemless(doc.statements, lex.stemless_registry):
        lints.append(f"undeclared stemless label {{{label}}}")
    model = ModelBundle(lex, tuple(rules), pragmas, path)
    model.lints = lints  # the old load's list, in place of the first read's
    return model


@dataclass
class Vocabulary:
    surfaces: dict[str, list] = field(default_factory=dict)  # surface -> [Concept], in sense order
    literals: set[str] = field(default_factory=set)  # every rule literal
    affixes: list[str] = field(default_factory=list)  # marker-carrying literals, in rule order
    max_words: int = 1  # words in the longest surface form

    def knows(self, token: str) -> bool:
        return token in self.surfaces or token in self.literals


def build_vocabulary(rules: tuple[Rule, ...], lexicon: Lexicon) -> Vocabulary:
    """The parser's vocabulary as the load built it, taking each rule's
    concepts from its lhs nodes indexed by concept in preorder."""
    vocab = Vocabulary()
    concepts: dict[Concept, None] = {}
    for rule in rules:
        for part in rule.parts:
            if isinstance(part, Literal):
                t = part.text
                vocab.literals.add(t)
                affix = (t.startswith("+") or t.startswith("-") or t.endswith("+")) and len(t) > 1
                if affix and t not in vocab.affixes:
                    vocab.affixes.append(t)
        lhs_nodes: dict[Concept | None, list[Node]] = {}
        for node in rule.lhs.iter_nodes():
            lhs_nodes.setdefault(node.concept, []).append(node)
        concepts.update(dict.fromkeys(c for c in lhs_nodes if c is not None))
    concepts.update(dict.fromkeys(lexicon.definitions))
    for concept in concepts:
        if concept.stemless:
            continue
        vocab.surfaces.setdefault(concept.label, []).append(concept)
        vocab.max_words = max(vocab.max_words, concept.label.count(" ") + 1)
    for senses in vocab.surfaces.values():
        senses.sort(key=lambda c: c.sense)
    return vocab
