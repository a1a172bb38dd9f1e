"""Translation as it was before refused parses were skipped, kept verbatim
as an oracle.

``translate`` here sends each of the best ``PARSE_CAP`` parses to
``transfer_scored``, which collects every transfer match before it finds
that no selection can translate the parse. It already raises the transfer
error only when no parse gets through transfer. ``tests/test_transfer_refusal.py``
checks ``conspec.transfer.translate`` against it.
"""

from __future__ import annotations

from conspec.errors import UnparseableTextError, UnrealizableFragmentError, UntranslatableConceptError
from conspec.parser import parse_text
from conspec.realizer import realize
from conspec.rules import transfer_scored
from conspec.transfer import PARSE_CAP, LanguagePair


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
        if unrealizable is not None:
            raise UnrealizableFragmentError(unrealizable).with_stage("realize")
        if untranslatable is not None:
            raise UntranslatableConceptError(untranslatable).with_stage("transfer")
        raise UnparseableTextError(f"no translation of {text!r}").with_stage("parse")
    return sorted(results.values(), key=lambda r: (-r[1], len(r[0]), r[0]))
