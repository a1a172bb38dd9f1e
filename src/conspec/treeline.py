"""Tree-line notation: tokenizer, parser, printer, and model-file statements.

Grammar of a network expression, and of the part list on the right of a
realization rule::

    network   := chain ("," chain)*
    chain     := item (">" item | ">" "[" network "]")*
    item      := anchor* (label sense? | "{" label "}" sense? | "(" network ")")
    anchor    := ">>"... | "<<"
    sense     := "#" ("0".."9")+
    part_list := "[" part ("," part)* "]"
    part      := "'" literal "'" | chain

Each item after ``>`` specifies the previous item; a bracketed group attaches
every root inside it as a specifier of the item before the bracket (the chain
position stays on that item). Parentheses build an encapsulation whose head is
the left-most root. Labels may contain internal spaces ("pick up"); a run of
words is one label until a structural character. ``label#2`` selects sense 2:
a sense is ``#`` and ASCII digits, at most one per concept (``{label#2}``
counts as that one). ``#`` otherwise starts a comment.

Model files hold one statement per line:

    girl = human > [young, female]          definition
    trust > {past} <=> [trust, '+ed']       realization rule
    SRC => DST                              transfer rule
    map he -> kare                          bilingual map entry
    declare {past} "past tense"             stemless registry entry
    set alpha 0.9                           pragma
    <network>                               bare network statement
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import TreelineParseError
from .network import (
    DOWN,
    STRUCTURAL_CHARS,
    UP,
    Anchor,
    Concept,
    ConceptNetwork,
    Node,
)

# Deepest nesting level a parsed network may reach (see _Parser). Tree walks
# across the package recurse a few frames per level; this bound keeps every
# one of them well inside Python's default recursion limit.
MAX_NESTING = 128

# Spellings of "either or" that parsing normalizes to it.
_EITHER_OR_SPELLINGS = {"either...or", "either.. .or", "either. ..or"}

# A sense annotation: '#' and ASCII digits, once per concept.
_SENSE = re.compile(r"#([0-9]+)")

# One alternative per token kind, the common kinds first, each taking the
# whitespace after it, so only leading whitespace is a "space" match. Every
# character starts some alternative, so the matches tile the text; "bad"
# catches the characters that start no well-formed token.
_TOKEN = re.compile(
    r"(?:(?P<label>(?![ \t\r])(?:[^\n>\[\](){},=<'#-]+|-(?!>))+)"
    r"|(?P<punct><=>|=>|->|<<(?!<)|[\[\](),=])"
    r"|(?P<gt>>+)"
    r"|(?P<brace>\{[^}]*\})"
    r"|(?P<literal>'[^']*')"
    rf"|(?P<sense>{_SENSE.pattern})"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<newline>\n)"
    r"|(?P<bad><<<|[<{'}]))[ \t\r]*"
    r"|(?P<space>[ \t\r]+)"
)
_BAD_TOKEN = {
    "<<<": "'<<' anchors deeper than one boundary are not supported",
    "<": "stray '<'",
    "{": "unterminated '{'",
    "'": "unterminated quoted literal",
    "}": "unmatched '}'",
}


@dataclass(slots=True)
class Token:
    kind: str  # 'label' 'brace' 'literal' '>' '[' ']' '(' ')' ',' '=' '<=>' '=>' '->' 'up' '<<'
    value: str
    line: int
    col: int


def _normalize_label(raw: str) -> str:
    return " ".join(raw.split())


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


def _concept(concepts: dict, label: str, stemless: bool, sense: int) -> Concept:
    """Concept(label, stemless, sense), built and validated once per table."""
    key = (label, stemless, sense)
    if key not in concepts:
        concepts[key] = Concept(label, stemless, sense)
    return concepts[key]


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = start_line, 0

    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        value, col = m[kind], m.start() - line_start + 1
        if kind == "label":
            label = _normalize_label(value)
            if not label:  # a run of whitespace that str.split() knows, such as '\f'
                raise TreelineParseError(f"unexpected character {value[0]!r}", line, col)
            tokens.append(Token("label", label, line, col))
        elif kind == "punct":
            tokens.append(Token(value, value, line, col))
        elif kind == "gt":
            if len(value) > 1 and len(value) % 2:
                raise TreelineParseError(f"ambiguous run of {len(value)} '>' characters", line, col)
            tokens.append(Token(">" if value == ">" else "up", value, line, col))
        elif kind == "brace":
            label = _normalize_label(value[1:-1])
            if not label:
                raise TreelineParseError("empty stemless label '{}'", line, col)
            bad = STRUCTURAL_CHARS.intersection(label) - {"#"}
            if bad:
                raise TreelineParseError(f"stemless label contains {sorted(bad)[0]!r}", line, col)
            tokens.append(Token("brace", label, line, col))
        elif kind == "literal":
            tokens.append(Token("literal", value[1:-1], line, col))
        elif kind == "sense":
            if not tokens or tokens[-1].kind not in ("label", "brace"):
                raise TreelineParseError("sense annotation must follow a concept", line, col)
            if "#" in tokens[-1].value:
                raise TreelineParseError("a concept takes one sense annotation", line, col)
            tokens[-1].value += value
        elif kind == "newline":
            line, line_start = line + 1, m.start() + 1
        elif kind == "bad":
            raise TreelineParseError(_BAD_TOKEN[value], line, col)
    return tokens


class _Parser:
    # the tokens end in an 'end' sentinel at (end_line, 1), so peek and next
    # need no bounds check; concepts come from the caller's table (_concept)
    def __init__(self, tokens: list[Token], end_line: int, concepts: dict):
        self.tokens = tokens + [Token("end", "", end_line, 1)]
        self.pos = 0
        self.concepts = concepts

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "end":
            raise TreelineParseError("unexpected end of input", tok.line, tok.col)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise TreelineParseError(f"expected {kind!r}, found {tok.value!r}", tok.line, tok.col)
        return tok

    def err(self, msg: str, tok: Token | None = None) -> TreelineParseError:
        tok = tok or self.peek()
        return TreelineParseError(msg, tok.line, tok.col)

    # -- network grammar ---------------------------------------------------
    #
    # ``level`` is the nesting level of the node being built: 1 for a root,
    # one more per specifier step and per step into a capsule body.

    def network(self, capsule_depth: int = 0, level: int = 1) -> ConceptNetwork:
        roots = [self.chain(capsule_depth, level)]
        while self.tokens[self.pos].kind == ",":
            self.pos += 1
            roots.append(self.chain(capsule_depth, level))
        return ConceptNetwork(tuple(roots))

    def chain(self, capsule_depth: int, level: int) -> Node:
        root = self.item(capsule_depth, level)
        current = root
        while self.tokens[self.pos].kind == ">":
            self.pos += 1
            tok = self.tokens[self.pos]
            if tok.kind == "end":
                raise self.err("trailing '>'")
            if tok.kind == "[":
                self.pos += 1
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
        tok = self.tokens[self.pos]
        if level > MAX_NESTING:
            raise self.err(f"network nested deeper than {MAX_NESTING} levels")
        while tok.kind in ("up", "<<"):
            self.pos += 1
            if anchor is not None and anchor.direction != (UP if tok.kind == "up" else DOWN):
                raise self.err("mixed '>>' and '<<' prefixes", tok)
            if tok.kind == "up":
                depth = (anchor.depth if anchor else 0) + len(tok.value) // 2
                anchor = Anchor(UP, depth)
            else:
                if anchor is not None:
                    raise self.err("repeated '<<' prefix", tok)
                anchor = Anchor(DOWN, 1)
            tok = self.tokens[self.pos]
        if anchor is not None and capsule_depth == 0:
            raise self.err("anchor outside any encapsulation", tok)
        if tok.kind in ("label", "brace"):
            self.pos += 1
            label, sense = _split_sense(tok.value, tok.line, tok.col)
            if label in _EITHER_OR_SPELLINGS:
                label = "either or"
            return Node(_concept(self.concepts, label, tok.kind == "brace", sense), None, anchor)
        if tok.kind == "(":
            self.pos += 1
            body = self.network(capsule_depth + 1, level + 1)
            self.expect(")")
            return Node(capsule=body, anchor=anchor)
        if tok.kind == "end":
            raise self.err("expected a concept")
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
            if tok.kind == "literal":
                self.pos += 1
                parts.append(("lit", tok.value))
            else:
                parts.append(("pat", ConceptNetwork((self.chain(0, 1),))))
            tok = self.next()
            if tok.kind == "]":
                return parts
            if tok.kind != ",":
                raise self.err(f"expected ',' or ']', found {tok.value!r}", tok)


def _parse_tokens(tokens: list[Token], end_line: int, concepts: dict, production=_Parser.network):
    """Parse all of ``tokens`` as one ``production`` of the grammar."""
    parser = _Parser(tokens, end_line, concepts)
    result = production(parser)
    tok = parser.peek()
    if tok.kind != "end":
        raise TreelineParseError(f"unexpected trailing {tok.value!r}", tok.line, tok.col)
    return result


def parse_network(text: str) -> ConceptNetwork:
    """Parse a single tree-line expression.

    The "either...or" spelling normalizes to the "either or" label;
    parse_document adds a lint note when a line uses it.
    """
    end_line = text.count("\n") + 1
    tokens = tokenize(text)
    if not tokens:
        raise TreelineParseError("empty network", end_line, 1)
    return _parse_tokens(tokens, end_line, {})


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _node_text(node: Node) -> str:
    prefix = node.anchor.text() if node.anchor else ""
    if node.concept is not None:
        core = node.concept.text()
    else:
        core = "(" + print_network(node.capsule) + ")"
    spec = node.specifiers
    if not spec:
        return prefix + core
    if len(spec) == 1:
        return prefix + core + " > " + _node_text(spec[0])
    inner = ", ".join(_node_text(s) for s in spec)
    return prefix + core + " > [" + inner + "]"


def print_network(net: ConceptNetwork) -> str:
    """Serialize to tree-line text; parse(print(n)) is equal(., n)."""
    return ", ".join(_node_text(r) for r in net.roots)


# ---------------------------------------------------------------------------
# Documents (model files)
# ---------------------------------------------------------------------------


@dataclass
class NetworkStmt:
    network: ConceptNetwork
    line: int


@dataclass
class DefinitionStmt:
    name: Concept
    body: ConceptNetwork
    line: int


@dataclass
class RuleStmt:
    lhs: ConceptNetwork
    rhs: list[tuple[str, object]]  # ('lit', str) | ('pat', ConceptNetwork)
    line: int


@dataclass
class TransferRuleStmt:
    src: ConceptNetwork
    dst: ConceptNetwork
    line: int


@dataclass
class DeclareStmt:
    label: str
    description: str
    line: int


@dataclass
class PragmaStmt:
    key: str
    value: str
    line: int


@dataclass
class MapStmt:
    src: Concept
    dst: Concept
    line: int


Statement = (
    NetworkStmt
    | DefinitionStmt
    | RuleStmt
    | TransferRuleStmt
    | DeclareStmt
    | PragmaStmt
    | MapStmt
)


@dataclass
class TreelineDocument:
    statements: list[Statement]
    lints: list[str] = field(default_factory=list)

    def of_kind(self, kind) -> list:
        return [s for s in self.statements if isinstance(s, kind)]


def _split_on(tokens: list[Token], kind: str) -> tuple[list[Token], list[Token]] | None:
    for i, tok in enumerate(tokens):
        if tok.kind == kind:
            return tokens[:i], tokens[i + 1 :]
    return None


def _parse_concept_tokens(tokens: list[Token], line: int, concepts: dict) -> Concept:
    if len(tokens) != 1 or tokens[0].kind not in ("label", "brace"):
        where = tokens[0] if tokens else None
        raise TreelineParseError(
            "expected a single concept", where.line if where else line, where.col if where else 1
        )
    tok = tokens[0]
    label, sense = _split_sense(tok.value, tok.line, tok.col)
    return _concept(concepts, label, tok.kind == "brace", sense)


def _strip_comment(line: str) -> str:
    in_quote = None
    for i, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = None
            continue
        if ch in "'\"":
            in_quote = ch
        elif ch == "#" and not _SENSE.match(line, i):
            return line[:i]
    return line


def parse_document(text: str, *, collect_errors: list | None = None) -> TreelineDocument:
    """Parse a model file into an ordered statement list.

    Duplicate definition names raise (listing both lines) unless
    ``collect_errors`` is given, in which case problems are appended there and
    parsing continues (lint mode). A collected error carries no traceback,
    which would hold this call's frame and so the list that holds the error.
    """
    statements: list[Statement] = []
    lints: list[str] = []
    seen_defs: dict[Concept, int] = {}
    concepts: dict[tuple, Concept] = {}  # see _concept; lives for this call only
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
                src = _parse_concept_tokens(split[0], lineno, concepts)
                dst = _parse_concept_tokens(split[1], lineno, concepts)
                statements.append(MapStmt(src, dst, lineno))
                continue
            tokens = tokenize(raw, start_line=lineno)
            if not tokens:
                continue
            if (split := _split_on(tokens, "<=>")) is not None:
                lhs_toks, rhs_toks = split
                lhs = _parse_tokens(lhs_toks, lineno, concepts)
                rhs = _parse_tokens(rhs_toks, lineno, concepts, _Parser.part_list)
                statements.append(RuleStmt(lhs, rhs, lineno))
                continue
            if (split := _split_on(tokens, "=>")) is not None:
                src_net = _parse_tokens(split[0], lineno, concepts)
                dst_net = _parse_tokens(split[1], lineno, concepts)
                statements.append(TransferRuleStmt(src_net, dst_net, lineno))
                continue
            if (split := _split_on(tokens, "=")) is not None:
                name = _parse_concept_tokens(split[0], lineno, concepts)
                body = _parse_tokens(split[1], lineno, concepts)
                if name in seen_defs:
                    why = (
                        f"duplicate definition of {name.text()} "
                        f"(lines {seen_defs[name]} and {lineno})"
                    )
                    if collect_errors is None:
                        raise TreelineParseError(why, lineno, 1)
                    collect_errors.append(TreelineParseError(why, lineno, 1))
                else:
                    seen_defs[name] = lineno
                statements.append(DefinitionStmt(name, body, lineno))
                continue
            net = _parse_tokens(tokens, lineno, concepts)
            if len(net.roots) > 1:
                lints.append(f"line {lineno}: multi-root network statement")
            statements.append(NetworkStmt(net, lineno))
        except TreelineParseError as exc:
            if collect_errors is None:
                raise
            collect_errors.append(exc.with_traceback(None))
    return TreelineDocument(statements, lints)
