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

Reading a text takes one scan by the regex engine per model-file line (per
text for parse_network): one ``findall`` gives the token strings, and _lex
reads each token's kind from its text into parallel lists of kinds and
values that the parser walks. A token's kind and value are worked out once
per document: a token text seen before is one table lookup. So is a concept
token's Concept, looked up by its value in its kind's table; each distinct
concept is built once, without repeating Concept's checks, which the token
pattern has already made. A definition statement is the one record of its
definition: the lexicon keeps it as read. A line that is one comment is
skipped unread. No token carries a position: a token's line and column are
worked out only when an error is raised, by scanning its text again with
the same pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice

from .errors import TreelineParseError
from .network import (
    DOWN,
    STRUCTURAL_CHARS,
    UP,
    Anchor,
    Concept,
    ConceptNetwork,
    Node,
    equal,
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
# whitespace after it, so only leading whitespace matches the last
# alternative. Every character starts some alternative, so the matches tile
# the text. The one group is a token's text, empty for leading whitespace;
# _lex reads the token's kind from that text. A label is a run of the
# characters in _LABEL_CHAR that starts with no [ \t\r] and holds no '->',
# written as its first character, then runs between single '-'s, so that
# the regex engine takes each run in one step.
_LABEL_CHAR = r"[^\n>\[\](){},=<'#\-]"
_TOKEN = re.compile(
    rf"((?:[^\n>\[\](){{}},=<'#\- \t\r]|-(?!>)){_LABEL_CHAR}*(?:-(?!>){_LABEL_CHAR}*)*"  # label
    r"|<=>|=>|->|<<(?!<)|[\[\](),=]"  # punctuation
    r"|>+"  # '>', or an up anchor
    r"|\{[^}]*\}"  # stemless label
    r"|'[^']*'"  # quoted literal
    r"|#[0-9]+"  # sense (_SENSE)
    r"|#[^\n]*"  # comment
    r"|\n"
    r"|<<<|[<{'}]"  # the characters that start no well-formed token
    r")[ \t\r]*|[ \t\r]+"
)
_BAD_TOKEN = {
    "<<<": "'<<' anchors deeper than one boundary are not supported",
    "<": "stray '<'",
    "{": "unterminated '{'",
    "'": "unterminated quoted literal",
    "}": "unmatched '}'",
}
# (kind, value) of the tokens whose kind is their text; a run of two or more
# '>' is an up anchor. Each _Parser's token table starts as a copy.
_PUNCT = {tok: (tok, tok) for tok in ["[", "]", "(", ")", ",", "=", "=>", "<=>", "->", "<<", ">"]}
# First characters of the tokens that are not labels: "" (leading whitespace)
# is in every string, and a token that starts with '-' is a label unless it
# is '->'.
_NOT_LABEL = "\n>[](){},=<'#"


def _normalize_label(raw: str) -> str:
    return " ".join(raw.split())


def _new_concept(fields: tuple[str, bool, int]) -> Concept:
    """The concept of ``fields``, (label, stemless, sense), built without
    ``Concept``'s checks: the token pattern and ``_Parser.split_sense``
    already leave the label nonempty and free of structural characters,
    which is all they check."""
    return tuple.__new__(Concept, fields)


def _error(msg: str, text: str, start_line: int, index: int) -> TreelineParseError:
    """An error at the ``index``-th match of _TOKEN in ``text``, whose first
    line is ``start_line``; the match's line and column are worked out here."""
    line, line_start = start_line, 0
    matches = _TOKEN.finditer(text)
    for m in islice(matches, index):
        if m[1] == "\n":
            line, line_start = line + 1, m.start() + 1
    return TreelineParseError(msg, line, next(matches).start() - line_start + 1)


def _lex(text: str, start_line: int, known: dict) -> tuple[list[str], list[str]]:
    """The kinds and values of the tokens of ``text``, ending in an 'end'.

    A kind is 'label', 'brace', 'literal', 'up' or the punctuation itself.
    A sense annotation joins the value of the concept before it; whitespace,
    newlines and comments make no token. ``start_line`` is the line number
    of the text's first line, for error positions. ``known`` maps the text
    of each token whose kind and value follow from its text alone to them:
    a token seen before in the same document is one lookup.
    """
    kinds: list[str] = []
    values: list[str] = []
    for index, tok in enumerate(_TOKEN.findall(text)):
        got = known.get(tok)
        if got is None:
            first = tok[:1]
            if first not in _NOT_LABEL and tok != "->":
                label = " ".join(tok.split())
                if not label:  # a run of whitespace that str.split() knows, such as '\f'
                    raise _error(f"unexpected character {first!r}", text, start_line, index)
                got = ("label", label)
            elif first == ">":
                if len(tok) % 2:
                    msg = f"ambiguous run of {len(tok)} '>' characters"
                    raise _error(msg, text, start_line, index)
                got = ("up", tok)
            elif first == "'" and tok != "'":
                got = ("literal", tok[1:-1])
            elif first == "{" and tok != "{":
                label = " ".join(tok[1:-1].split())
                if not label:
                    raise _error("empty stemless label '{}'", text, start_line, index)
                bad = STRUCTURAL_CHARS.intersection(label) - {"#"}
                if bad:
                    msg = f"stemless label contains {sorted(bad)[0]!r}"
                    raise _error(msg, text, start_line, index)
                got = ("brace", label)
            elif first == "#" and _SENSE.match(tok):
                if not kinds or kinds[-1] not in ("label", "brace"):
                    msg = "sense annotation must follow a concept"
                    raise _error(msg, text, start_line, index)
                if "#" in values[-1]:
                    raise _error("a concept takes one sense annotation", text, start_line, index)
                values[-1] += tok
                continue
            elif tok in _BAD_TOKEN:
                raise _error(_BAD_TOKEN[tok], text, start_line, index)
            else:  # leading whitespace, a newline or a comment
                continue
            known[tok] = got
        kinds.append(got[0])
        values.append(got[1])
    kinds.append("end")
    values.append("")
    return kinds, values


class _Parser:
    """Recursive descent over the tokens of one text at a time (see _lex).

    ``read`` takes the next text. Parsing stops at an 'end' token, so
    peeking needs no bounds check; a statement's separator is turned into
    one. The tables live as long as the parser, one document: ``known`` is
    _lex's, ``labels`` and ``braces`` map the value of a label or brace
    token to its Concept, and ``concepts`` maps (label, stemless, sense) to
    it, so each distinct concept is built once. A token's line and column
    are worked out only for an error, from the token's index.
    """

    def __init__(self):
        self.known: dict[str, tuple[str, str]] = dict(_PUNCT)
        self.concepts: dict[tuple, Concept] = {}
        self.labels: dict[str, Concept] = {}
        self.braces: dict[str, Concept] = {}

    def read(self, text: str, start_line: int, end_line: int) -> None:
        """Tokenize ``text``, whose lines are ``start_line`` to ``end_line``."""
        self.text = text
        self.start_line = start_line
        self.end_line = end_line
        self.kinds, self.values = _lex(text, start_line, self.known)
        self.pos = 0

    def err(self, msg: str, at: int | None = None) -> TreelineParseError:
        """An error at token ``at``, by default the next one; 'end' is at
        column 1 of the last line."""
        at = self.pos if at is None else at
        if self.kinds[at] == "end":
            return TreelineParseError(msg, self.end_line, 1)
        # the tokens are the matches that are not whitespace, a newline, a
        # comment or a sense annotation
        matches = enumerate(_TOKEN.findall(self.text))
        index = next(islice((i for i, tok in matches if tok and tok[0] not in "\n#"), at, None))
        return _error(msg, self.text, self.start_line, index)

    def next(self) -> int:
        """Consume the next token; return its index."""
        at = self.pos
        if self.kinds[at] == "end":
            raise self.err("unexpected end of input")
        self.pos = at + 1
        return at

    def expect(self, kind: str) -> None:
        at = self.next()
        if self.kinds[at] != kind:
            raise self.err(f"expected {kind!r}, found {self.values[at]!r}", at)

    def parse(self, production, start: int = 0):
        """Parse the tokens from ``start`` up to the next 'end' as one
        ``production`` of the grammar."""
        self.pos = start
        result = production(self)
        if self.kinds[self.pos] != "end":
            raise self.err(f"unexpected trailing {self.values[self.pos]!r}")
        return result

    def split_sense(self, at: int) -> tuple[str, int]:
        """(label, sense) of the concept token ``at``."""
        value = self.values[at]
        base, sep, _ = value.partition("#")
        if not sep:
            return value, 1
        sense = _SENSE.fullmatch(value, len(base))
        if base and sense:
            try:
                return base.rstrip(), int(sense[1])
            except ValueError:  # more digits than int() converts
                pass
        raise self.err(f"bad sense annotation in {value!r}", at)

    def concept(self, at: int) -> Concept:
        """The concept of the label or brace token ``at``."""
        stemless = self.kinds[at] == "brace"
        table = self.braces if stemless else self.labels
        concept = table.get(self.values[at])
        if concept is None:
            label, sense = self.split_sense(at)
            if label in _EITHER_OR_SPELLINGS:
                label = "either or"
            fields = (label, stemless, sense)
            concept = self.concepts.get(fields)
            if concept is None:
                concept = self.concepts[fields] = _new_concept(fields)
            table[self.values[at]] = concept
        return concept

    def single_concept(self, at: int) -> Concept:
        """The concept of token ``at``, which must be followed by an 'end'."""
        if self.kinds[at] not in ("label", "brace") or self.kinds[at + 1] != "end":
            raise self.err("expected a single concept", at)
        return self.concept(at)

    # -- network grammar ---------------------------------------------------
    #
    # ``level`` is the nesting level of the node being built: 1 for a root,
    # one more per specifier step and per step into a capsule body.

    def network(self, capsule_depth: int = 0, level: int = 1) -> ConceptNetwork:
        return ConceptNetwork(self.roots(capsule_depth, level))

    def roots(self, capsule_depth: int, level: int) -> tuple[Node, ...]:
        root = self.chain(capsule_depth, level)
        if self.kinds[self.pos] != ",":
            return (root,)
        roots = [root]
        while self.kinds[self.pos] == ",":
            self.pos += 1
            roots.append(self.chain(capsule_depth, level))
        return tuple(roots)

    def chain(self, capsule_depth: int, level: int) -> Node:
        root = self.item(capsule_depth, level)
        current = root
        kinds = self.kinds
        while kinds[self.pos] == ">":
            self.pos += 1
            kind = kinds[self.pos]
            if kind == "end":
                raise self.err("trailing '>'")
            if kind == "[":
                self.pos += 1
                group = self.roots(capsule_depth, level + 1)  # commas consumed inside
                self.expect("]")
                current.specifiers = current.specifiers + group
                # chain position stays on the bracket's owner
            else:
                level += 1
                child = self.item(capsule_depth, level)
                current.specifiers = current.specifiers + (child,)
                current = child
        return root

    def item(self, capsule_depth: int, level: int) -> Node:
        if level > MAX_NESTING:
            raise self.err(f"network nested deeper than {MAX_NESTING} levels")
        anchor: Anchor | None = None
        kind = self.kinds[self.pos]
        while kind == "up" or kind == "<<":
            at = self.pos
            self.pos += 1
            if anchor is not None and anchor.direction != (UP if kind == "up" else DOWN):
                raise self.err("mixed '>>' and '<<' prefixes", at)
            if kind == "up":
                depth = (anchor.depth if anchor else 0) + len(self.values[at]) // 2
                anchor = Anchor(UP, depth)
            else:
                if anchor is not None:
                    raise self.err("repeated '<<' prefix", at)
                anchor = Anchor(DOWN, 1)
            kind = self.kinds[self.pos]
        if anchor is not None and capsule_depth == 0:
            raise self.err("anchor outside any encapsulation")
        if kind == "label" or kind == "brace":
            at = self.pos
            self.pos = at + 1
            table = self.labels if kind == "label" else self.braces
            return Node(table.get(self.values[at]) or self.concept(at), None, anchor)
        if kind == "(":
            self.pos += 1
            body = self.network(capsule_depth + 1, level + 1)
            self.expect(")")
            return Node(capsule=body, anchor=anchor)
        if kind == "end":
            raise self.err("expected a concept")
        if kind == "[":
            raise self.err("specifier group must follow a concept")
        if kind == "literal":
            raise self.err("quoted literal not allowed inside a network")
        raise self.err(f"unexpected {self.values[self.pos]!r}")

    # -- rule part list ----------------------------------------------------

    def part_list(self) -> list[tuple[str, object]]:
        self.expect("[")
        parts: list[tuple[str, object]] = []
        while True:
            if self.kinds[self.pos] == "literal":
                parts.append(("lit", self.values[self.pos]))
                self.pos += 1
            else:
                parts.append(("pat", ConceptNetwork((self.chain(0, 1),))))
            at = self.next()
            if self.kinds[at] == "]":
                return parts
            if self.kinds[at] != ",":
                raise self.err(f"expected ',' or ']', found {self.values[at]!r}", at)


def parse_network(text: str) -> ConceptNetwork:
    """Parse a single tree-line expression.

    The "either...or" spelling normalizes to the "either or" label;
    parse_document adds a lint note when a line uses it.
    """
    end_line = text.count("\n") + 1
    parser = _Parser()
    parser.read(text, 1, end_line)
    if len(parser.kinds) == 1:
        raise TreelineParseError("empty network", end_line, 1)
    return parser.parse(_Parser.network)


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
    """A definition as read, and as the lexicon keeps it
    (``lexicon.Definition``): equal when the name, line and body are."""

    name: Concept
    body: ConceptNetwork
    line: int = 0

    def __eq__(self, other: object) -> bool:  # ConceptNetwork has no __eq__: compare bodies here
        if not isinstance(other, DefinitionStmt):
            return NotImplemented
        return (self.name, self.line) == (other.name, other.line) and equal(self.body, other.body)

    def __hash__(self) -> int:
        return hash((self.name, self.line))  # equal definitions agree on these


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


# First words of the statements that parse_document reads without the tokenizer
# (map entries are tokenized after their keyword is blanked).
_KEYWORDS = ("declare", "set", "map")


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
    parser = _Parser()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if "either..." in stripped:
            lints.append(f"line {lineno}: normalized 'either...or' to 'either or'")
        if stripped[0] == "#" and raw.lstrip(" \t")[0] == "#" and not _SENSE.match(stripped):
            continue  # spaces or tabs, then one comment token: no statement
        word = stripped.split(None, 1)[0] if stripped.startswith(_KEYWORDS) else None
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
                parser.read(body, lineno, lineno)
                if "->" not in parser.kinds:
                    raise TreelineParseError("map needs 'src -> dst'", lineno, 1)
                at = parser.kinds.index("->")
                parser.kinds[at] = "end"  # each side of a separator parses up to an 'end'
                src = parser.single_concept(0)
                dst = parser.single_concept(at + 1)
                statements.append(MapStmt(src, dst, lineno))
                continue
            parser.read(raw, lineno, lineno)
            kinds = parser.kinds
            if "<=>" in kinds:
                sep = "<=>"
            elif "=>" in kinds:
                sep = "=>"
            elif "=" in kinds:
                sep = "="
            elif len(kinds) == 1:
                continue
            else:
                net = parser.parse(_Parser.network)
                if len(net.roots) > 1:
                    lints.append(f"line {lineno}: multi-root network statement")
                statements.append(NetworkStmt(net, lineno))
                continue
            at = kinds.index(sep)
            kinds[at] = "end"
            if sep == "<=>":
                lhs = parser.parse(_Parser.network)
                rhs = parser.parse(_Parser.part_list, at + 1)
                statements.append(RuleStmt(lhs, rhs, lineno))
                continue
            if sep == "=>":
                src_net = parser.parse(_Parser.network)
                dst_net = parser.parse(_Parser.network, at + 1)
                statements.append(TransferRuleStmt(src_net, dst_net, lineno))
                continue
            name = parser.single_concept(0)
            body = parser.parse(_Parser.network, at + 1)
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
        except TreelineParseError as exc:
            if collect_errors is None:
                raise
            collect_errors.append(exc.with_traceback(None))
    return TreelineDocument(statements, lints)
