"""Command-line entry point.

Subcommands: parse, realize, translate, canon, check, lint, export.
Exit codes: 0 success, 1 check/lint/engine failure, 2 usage, 3 model load
error. CONSPEC_MODEL_PATH supplies the default --model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import replace

from .errors import ConspecError, ModelLoadError, TreelineParseError
from .lexicon import DEFAULT_STEMLESS, lint_networks, undeclared_stemless
from .model import ModelBundle, Pragmas, _read_file, load_corpus, load_model, load_model_text
from .network import (
    ConceptNetwork,
    Node,
    canonicalize,
    equal,
    node_paths,
    resolve_anchors,
    to_json_dict,
)
from .parser import parse_text
from .realizer import realize, trace_rule_ids
from .transfer import load_pair, translate
from .treeline import DeclareStmt, parse_document, parse_network, print_network

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LOAD = 3


class _UsageError(Exception):
    """A command-line input the command cannot read (exit 2)."""


def _read_input(target: str | None) -> str:
    try:
        if target is None or target == "-":
            return sys.stdin.read()
        return _read_file(target, "input")
    except ModelLoadError as exc:
        raise _UsageError(str(exc)) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"<stdin>: cannot read input: {exc}") from None


def _model_path(args) -> str:
    path = args.model or os.environ.get("CONSPEC_MODEL_PATH")
    if not path:
        raise ModelLoadError("no model: pass --model or set CONSPEC_MODEL_PATH")
    return path


def _load(args) -> ModelBundle:
    return _with_overrides(load_model(_model_path(args)), args)


def _with_overrides(model: ModelBundle, args) -> ModelBundle:
    """A new bundle carrying the --beam/--tau overrides; ``model`` is left as is."""
    changes = {
        key: getattr(args, key)
        for key in ("beam", "tau")
        if getattr(args, key, None) is not None
    }
    return replace(model, pragmas=replace(model.pragmas, **changes))


def _pragma_override(key: str, convert):
    """argparse type for a pragma override, range-checked by Pragmas."""

    def parse(text: str):
        try:
            value = convert(text)
            Pragmas(**{key: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad value {text!r}: {exc}") from None
        return value

    return parse


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(net: ConceptNetwork) -> str:
    """Graphviz description of a network: specification edges point
    parent -> child, capsule bodies render as clusters, resolved references
    as dashed edges."""
    paths = node_paths(net)
    names = {pid: f"n{i}" for i, pid in enumerate(paths)}
    lines = ["digraph network {", "  rankdir=TB;", "  node [shape=ellipse];"]
    edges: list[str] = []
    body: list[str] = []
    for r in net.roots:
        _dot_node(r, body, edges, names)
    lines.extend(body)
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines)


def _dot_node(node: Node, cluster: list[str], edges: list[str], names: dict[int, str]) -> None:
    """Append the node statements under ``node`` to ``cluster`` and its edges
    to ``edges``."""
    name = names[id(node)]
    if node.is_capsule:
        cluster.append(f'  subgraph cluster_{name} {{ label=""; style=dashed;')
        cluster.append(f'    {name} [label="( )", shape=point];')
        for r in node.capsule.roots:
            _dot_node(r, cluster, edges, names)
            edges.append(f"  {name} -> {names[id(r)]} [style=dotted, arrowhead=none];")
        cluster.append("  }")
    else:
        label = node.concept.text()
        if node.anchor:
            label = node.anchor.text() + label
        cluster.append(f'  {name} [label="{_dot_escape(label)}"];')
    for s in node.specifiers:
        _dot_node(s, cluster, edges, names)
        edges.append(f"  {name} -> {names[id(s)]};")
    if node.ref is not None:
        edges.append(f"  {name} -> {names[id(node.ref)]} [style=dashed, color=gray];")


def _input_networks(args) -> Iterator[ConceptNetwork]:
    """The canonical network of each non-blank, non-comment input line."""
    for line in _read_input(args.input).splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            yield canonicalize(parse_network(line))


def _cmd_canon(args) -> int:
    for net in _input_networks(args):
        if args.dot:
            print(to_dot(net))
        elif args.json:
            print(json.dumps(to_json_dict(net), ensure_ascii=False))
        else:
            print(print_network(net))
    return EXIT_OK


def _cmd_export(args) -> int:
    for net in map(resolve_anchors, _input_networks(args)):
        if args.json:
            print(json.dumps(to_json_dict(net), ensure_ascii=False))
        else:
            print(to_dot(net))
    return EXIT_OK


def _print_ranked(rows, args, as_network: bool) -> None:
    shown = rows if args.all else rows[:1]
    for value, score, trace in shown:
        text = print_network(value) if as_network else value
        if args.json and as_network:
            text = json.dumps(to_json_dict(value), ensure_ascii=False)
        if args.all:
            print(f"{score:.6f}\t{text}")
        else:
            print(text)
        if args.trace:
            for entry in trace:
                print(f"  # {entry}", file=sys.stderr)


def _cmd_parse(args) -> int:
    model = _load(args)
    text = _read_input(args.input).strip()
    ranked = parse_text(model, text)
    _print_ranked(ranked, args, as_network=True)
    return EXIT_OK


def _cmd_realize(args) -> int:
    model = _load(args)
    text = _read_input(args.input).strip()
    net = parse_network(text)
    ranked = realize(model, net)
    _print_ranked([(s, sc, [e for step in tr for e in step]) for s, sc, tr in ranked], args, as_network=False)
    return EXIT_OK


def _cmd_translate(args) -> int:
    pair = load_pair(args.pair)
    pair = replace(
        pair,
        source_model=_with_overrides(pair.source_model, args),
        receptor_model=_with_overrides(pair.receptor_model, args),
    )
    text = _read_input(args.input).strip()
    ranked = translate(pair, text)
    _print_ranked(ranked, args, as_network=False)
    return EXIT_OK


def _cmd_check(args) -> int:
    model = _load(args)
    corpus = load_corpus(args.corpus)
    failures = 0
    print(f"{'status':6}  {'parse':5}  {'realize':7}  surface")
    for surface, net, _raw in corpus:
        # a row whose anchors do not resolve equals no parse, and realize
        # refuses it: the row fails and the check goes on
        parse_ok = realize_ok = False
        try:
            parses = parse_text(model, surface)
            parse_ok = any(equal(n, net) for n, _, _ in parses[:3])
        except ConspecError:
            parse_ok = False
        try:
            outs = realize(model, net)
            realize_ok = surface in [s for s, _, _ in outs[:3]]
        except ConspecError:
            realize_ok = False
        ok = parse_ok and realize_ok
        failures += 0 if ok else 1
        print(f"{'pass' if ok else 'FAIL':6}  {str(parse_ok):5}  {str(realize_ok):7}  {surface}")
    print(f"{len(corpus) - failures}/{len(corpus)} lines pass")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def _cmd_lint(args) -> int:
    path = _model_path(args)
    text = _read_file(path, "model")
    problems: list[str] = []
    errors: list[TreelineParseError] = []
    doc = parse_document(text, collect_errors=errors)
    for exc in errors:
        problems.append(f"error: {exc}")
    problems.extend(f"note: {l}" for l in doc.lints)
    declared = set(DEFAULT_STEMLESS) | {s.label for s in doc.of_kind(DeclareStmt)}
    for label in undeclared_stemless(lint_networks(doc.statements), declared):
        problems.append(f"warning: undeclared stemless label {{{label}}}")
    model = None
    if not errors:  # a collected parse error is the one loading would fail on
        try:
            model = load_model_text(text, str(path))
        except ModelLoadError as exc:
            problems.append(f"error: {exc}")
    if model is not None:
        if args.corpus:
            used: set[str] = set()
            for surface, net, _raw in load_corpus(args.corpus):
                try:
                    for _, _, trace in realize(model, net):
                        used.update(trace_rule_ids(trace))
                except ConspecError:
                    pass
            for rule in model.rules:
                if rule.rule_id not in used:
                    problems.append(f"warning: unused rule {rule.rule_id} (line {rule.line})")
        else:
            problems.append("note: unused-rule check skipped (no --corpus)")
    for p in problems:
        print(p)
    hard = [p for p in problems if p.startswith(("error:", "warning:"))]
    return EXIT_FAIL if hard else EXIT_OK


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conspec", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        p.add_argument("input", nargs="?", default="-", help="file or - for stdin")
        if model:
            p.add_argument("--model", help="model file (default: $CONSPEC_MODEL_PATH)")
        p.add_argument("--all", action="store_true", help="print the full ranked list")
        p.add_argument("--json", action="store_true", help="emit the JSON graph export")
        p.add_argument("--trace", action="store_true", help="print derivation traces to stderr")
        p.add_argument("--beam", type=_pragma_override("beam", int), help="beam width override")
        p.add_argument("--tau", type=_pragma_override("tau", float), help="match threshold override")

    p = sub.add_parser("canon", help="print canonical tree-line")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--dot", action="store_true", help="emit a DOT graph instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("export", help="export a network as DOT (default) or JSON")
    p.add_argument("input", nargs="?", default="-")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("parse", help="parse surface text into networks")
    common(p)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("realize", help="realize a tree-line network as text")
    common(p)
    p.set_defaults(fn=_cmd_realize)

    p = sub.add_parser("translate", help="translate text through a language pair")
    common(p, model=False)
    p.add_argument("--pair", required=True, help="pair file")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("check", help="run a corpus regression")
    p.add_argument("--model", help="model file (default: $CONSPEC_MODEL_PATH)")
    p.add_argument("--corpus", required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("lint", help="report model problems")
    p.add_argument("--model", help="model file (default: $CONSPEC_MODEL_PATH)")
    p.add_argument("--corpus", help="corpus for the unused-rule check")
    p.set_defaults(fn=_cmd_lint)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelLoadError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except TreelineParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ConspecError as exc:
        stage = f" [stage={exc.stage}]" if exc.stage else ""
        print(f"error{stage}: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
