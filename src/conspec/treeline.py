"""Tree-line notation: tokenizer, parser, printer, and model-file statements.

Grammar of a network expression::

    network := chain ("," chain)*
    chain   := item (">" item | ">" "[" network "]")*
    item    := anchor* (concept | "{" name "}" | "(" network ")")
    anchor  := ">>"... | "<<"

Each item after ``>`` specifies the previous item; a bracketed group attaches
every root inside it as a specifier of the item before the bracket (the chain
position stays on that item). Parentheses build an encapsulation whose head is
the left-most root. Labels may contain internal spaces ("pick up"); a run of
words is one label until a structural character. ``label#2`` selects sense 2.
``#`` otherwise starts a comment.

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
    rebuild,
)

_LABEL_STOP = set(">[](){},=<'#\n")

# Deepest nesting level a parsed network may reach (see _Parser). Tree walks
# across the package recurse a few frames per level; this bound keeps every
# one of them well inside Python's default recursion limit.
MAX_NESTING = 128


@dataclass
class Token:
    kind: str  # 'label' 'brace' 'literal' '>' '[' ']' '(' ')' ',' '=' '<=>' '=>' '->' 'up' 'down'
    value: str
    depth: int
    line: int
    col: int


def _normalize_label(raw: str) -> str:
    return " ".join(raw.split())


def _split_sense(label: str, line: int, col: int) -> tuple[str, int]:
    if "#" in label:
        base, _, tail = label.rpartition("#")
        if base and tail.isdigit():
            return base.rstrip(), int(tail)
        raise TreelineParseError(f"bad sense annotation in {label!r}", line, col)
    return label, 1


def tokenize(text: str, start_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line, col = start_line, 1
    i, n = 0, len(text)

    def err(msg: str):
        return TreelineParseError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        tline, tcol = line, col
        if ch == "#":
            if i + 1 < n and text[i + 1].isdigit():
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if tokens and tokens[-1].kind in ("label", "brace"):
                    prev = tokens[-1]
                    prev.value = f"{prev.value}#{text[i + 1:j]}"
                    col += j - i
                    i = j
                    continue
                raise err("sense annotation must follow a concept")
            # comment: skip to end of line
            j = text.find("\n", i)
            if j == -1:
                break
            col += j - i
            i = j
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j == -1:
                raise err("unterminated quoted literal")
            tokens.append(Token("literal", text[i + 1 : j], 0, tline, tcol))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == "{":
            j = text.find("}", i + 1)
            if j == -1:
                raise err("unterminated '{'")
            label = _normalize_label(text[i + 1 : j])
            if not label:
                raise err("empty stemless label '{}'")
            bad = STRUCTURAL_CHARS.intersection(label) - {"#"}
            if bad:
                raise err(f"stemless label contains {sorted(bad)[0]!r}")
            tokens.append(Token("brace", label, 0, tline, tcol))
            col += j + 1 - i
            i = j + 1
            continue
        if ch == "<":
            if text.startswith("<=>", i):
                tokens.append(Token("<=>", "<=>", 0, tline, tcol))
                i += 3
                col += 3
                continue
            j = i
            while j < n and text[j] == "<":
                j += 1
            run = j - i
            if run == 2:
                tokens.append(Token("down", "<<", 1, tline, tcol))
                i = j
                col += run
                continue
            if run > 2:
                raise err("'<<' anchors deeper than one boundary are not supported")
            raise err("stray '<'")
        if ch == ">":
            j = i
            while j < n and text[j] == ">":
                j += 1
            run = j - i
            if run == 1:
                tokens.append(Token(">", ">", 0, tline, tcol))
            elif run % 2 == 0:
                tokens.append(Token("up", ">" * run, run // 2, tline, tcol))
            else:
                raise err(f"ambiguous run of {run} '>' characters")
            i = j
            col += run
            continue
        if ch == "=":
            if text.startswith("=>", i):
                tokens.append(Token("=>", "=>", 0, tline, tcol))
                i += 2
                col += 2
                continue
            tokens.append(Token("=", "=", 0, tline, tcol))
            i += 1
            col += 1
            continue
        if ch == "-" and text.startswith("->", i):
            tokens.append(Token("->", "->", 0, tline, tcol))
            i += 2
            col += 2
            continue
        if ch in "[](),":
            tokens.append(Token(ch, ch, 0, tline, tcol))
            i += 1
            col += 1
            continue
        if ch == "}":
            raise err("unmatched '}'")
        # label run
        j = i
        while j < n and text[j] not in _LABEL_STOP:
            if text[j] == "-" and text.startswith("->", j):
                break
            j += 1
        label = _normalize_label(text[i:j])
        if not label:
            raise err(f"unexpected character {ch!r}")
        tokens.append(Token("label", label, 0, tline, tcol))
        col += j - i
        i = j
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

    def network(self, capsule_depth: int, level: int) -> ConceptNetwork:
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
        while tok is not None and tok.kind in ("up", "down"):
            self.next()
            if anchor is not None and anchor.direction != (UP if tok.kind == "up" else DOWN):
                raise self.err("mixed '>>' and '<<' prefixes", tok)
            if tok.kind == "up":
                depth = (anchor.depth if anchor else 0) + tok.depth
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
        if tok.kind == "label":
            self.next()
            label, sense = _split_sense(tok.value, tok.line, tok.col)
            return Node(concept=Concept(label, False, sense), anchor=anchor)
        if tok.kind == "brace":
            self.next()
            label, sense = _split_sense(tok.value, tok.line, tok.col)
            return Node(concept=Concept(label, True, sense), anchor=anchor)
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


def _parse_tokens_network(tokens: list[Token], end_line: int = 1) -> ConceptNetwork:
    parser = _Parser(tokens, end_line)
    net = parser.network(0, 1)
    tok = parser.peek()
    if tok is not None:
        raise TreelineParseError(f"unexpected trailing {tok.value!r}", tok.line, tok.col)
    return _normalize_either_or(net)


def parse_network(text: str) -> ConceptNetwork:
    """Parse a single tree-line expression.

    The "either...or" spelling normalizes to the "either or" label;
    parse_document adds a lint note when a line uses it.
    """
    end_line = text.count("\n") + 1
    tokens = tokenize(text)
    if not tokens:
        raise TreelineParseError("empty network", end_line, 1)
    return _parse_tokens_network(tokens, end_line)


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


def _parse_concept_tokens(tokens: list[Token], line: int) -> Concept:
    if len(tokens) != 1 or tokens[0].kind not in ("label", "brace"):
        where = tokens[0] if tokens else None
        raise TreelineParseError(
            "expected a single concept", where.line if where else line, where.col if where else 1
        )
    tok = tokens[0]
    label, sense = _split_sense(tok.value, tok.line, tok.col)
    return Concept(label, tok.kind == "brace", sense)


def _parse_rule_rhs(tokens: list[Token], line: int) -> list[tuple[str, object]]:
    parser = _Parser(tokens, line)
    parser.expect("[")
    parts: list[tuple[str, object]] = []
    while True:
        tok = parser.peek()
        if tok is None:
            raise TreelineParseError("unterminated rule part list", line, 1)
        if tok.kind == "literal":
            parser.next()
            parts.append(("lit", tok.value))
        else:
            start = parser.pos
            depth = 0
            while parser.peek() is not None:
                t = parser.peek()
                if t.kind in ("(", "["):
                    depth += 1
                elif t.kind == ")":
                    depth -= 1
                elif t.kind == "]":
                    if depth == 0:
                        break
                    depth -= 1
                elif t.kind == "," and depth == 0:
                    break
                parser.next()
            segment = parser.tokens[start : parser.pos]
            if not segment:
                raise parser.err("empty rule part")
            parts.append(("pat", _parse_tokens_network(segment, line)))
        tok = parser.next()
        if tok.kind == "]":
            break
        if tok.kind != ",":
            raise TreelineParseError(f"expected ',' or ']', found {tok.value!r}", tok.line, tok.col)
    if parser.peek() is not None:
        tok = parser.peek()
        raise TreelineParseError(f"unexpected trailing {tok.value!r}", tok.line, tok.col)
    if not parts:
        raise TreelineParseError("rule needs at least one part", line, 1)
    return parts


def _strip_comment(line: str) -> str:
    in_quote = None
    for i, ch in enumerate(line):
        if in_quote:
            if ch == in_quote:
                in_quote = None
            continue
        if ch in "'\"":
            in_quote = ch
        elif ch == "#" and not (i + 1 < len(line) and line[i + 1].isdigit()):
            return line[:i]
    return line


_EITHER_OR_SPELLINGS = {"either...or", "either.. .or", "either. ..or"}


def _normalize_either_or(net: ConceptNetwork) -> ConceptNetwork:
    def fix(c: Concept) -> Concept:
        if c.label in _EITHER_OR_SPELLINGS:
            return Concept("either or", c.stemless, c.sense)
        return c

    if any(n.concept is not None and n.concept.label in _EITHER_OR_SPELLINGS for n in net.iter_nodes()):
        return ConceptNetwork(tuple(rebuild(r, fix) for r in net.roots))
    return net


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
                lhs = _parse_tokens_network(lhs_toks, lineno)
                rhs = _parse_rule_rhs(rhs_toks, lineno)
                statements.append(RuleStmt(lhs, rhs, lineno))
                continue
            if (split := _split_on(tokens, "=>")) is not None:
                src_net = _parse_tokens_network(split[0], lineno)
                dst_net = _parse_tokens_network(split[1], lineno)
                statements.append(TransferRuleStmt(src_net, dst_net, lineno))
                continue
            if (split := _split_on(tokens, "=")) is not None:
                name = _parse_concept_tokens(split[0], lineno)
                body = _parse_tokens_network(split[1], lineno)
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
            net = _parse_tokens_network(tokens, lineno)
            if len(net.roots) > 1:
                lints.append(f"line {lineno}: multi-root network statement")
            statements.append(NetworkStmt(net, lineno))
        except TreelineParseError as exc:
            problem(exc)
    return TreelineDocument(statements, lints)
