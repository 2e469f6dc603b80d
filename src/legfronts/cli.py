"""Command-line interface.

Every subcommand reads fronts in the text format (``L|R|X <height>`` per
line, ``#`` comments); a bare corpus name like ``trefoil`` resolves to the
bundled file of that name.  Exit codes: 0 all checks passed, 1 a check
failed, the input was invalid or an internal consistency check failed,
2 the skein crossing ceiling was hit or, from argparse, a usage error.

A command imports the layers it computes with when it runs, so
``rulings``, ``invariants``, ``validate`` and ``corpus`` never load the
skein or analysis layer, and of them only ``rulings``, which prints
ruling polynomials, loads the Laurent layer.  ``connsum`` loads
``analysis`` but never the skein or Laurent layer; a bare corpus name
also loads ``corpus``.
"""

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fronts, rulings

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RESOURCE = 2


def _load_front(ref: str) -> fronts.FrontDiagram:
    path = Path(ref)
    if path.is_file():
        return fronts.parse_front(path.read_text(), name=path.stem)
    from . import corpus

    if ref in corpus.corpus_names():
        return corpus.load(ref)
    raise FileNotFoundError(f"{ref!r} is neither a file nor a bundled front")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _poly_payload(name, poly):
    return {name: poly.to_terms(), f"{name}_text": str(poly)}


def _add_common(parser: argparse.ArgumentParser, orientable=True, skeinful=False) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")
    if orientable:
        parser.add_argument(
            "--reverse-component",
            type=int,
            action="append",
            default=[],
            metavar="ID",
            help="reverse the orientation of a component (repeatable)",
        )
    if skeinful:
        parser.add_argument(
            "--max-crossings",
            type=int,
            default=fronts.DEFAULT_MAX_CROSSINGS,
            help="ceiling on the input's crossing count for the skein polynomials",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legfronts",
        description="Legendrian front diagrams, normal rulings and skein polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check front files and report violations")
    p.add_argument("fronts", nargs="+")
    p.set_defaults(run=_cmd_validate)
    _add_common(p, orientable=False)

    p = sub.add_parser("invariants", help="tb, rotation numbers, writhe, Maslov data")
    p.add_argument("front")
    p.set_defaults(run=_cmd_invariants)
    _add_common(p)

    p = sub.add_parser("rulings", help="enumerate normal rulings")
    p.add_argument("front")
    p.add_argument("--class", dest="grading", choices=rulings.GRADING_FILTERS, default="ungraded")
    p.set_defaults(run=_cmd_rulings)
    _add_common(p)

    for name, help_text in (
        ("homfly", "Homfly polynomial of the underlying link"),
        ("kauffman", "Dubrovnik-Kauffman polynomial of the underlying link"),
        ("conway", "Conway polynomial (Homfly at v = 1)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("front")
        p.set_defaults(run=_cmd_poly)
        _add_common(p, skeinful=True)

    p = sub.add_parser("rutherford", help="ruling polynomial vs polynomial slices")
    p.add_argument("front")
    p.set_defaults(run=_cmd_rutherford)
    _add_common(p, skeinful=True)

    p = sub.add_parser("rho", help="ruling genus: value, -infinity, or unknown")
    p.add_argument("front")
    p.add_argument("--khovanov-bound", type=int, default=None)
    p.set_defaults(run=_cmd_rho)
    _add_common(p, skeinful=True)

    p = sub.add_parser("tests", help="full analysis report for one front")
    p.add_argument("front")
    p.add_argument("--khovanov-bound", type=int, default=None)
    p.set_defaults(run=_cmd_tests)
    _add_common(p, skeinful=True)

    p = sub.add_parser("connsum", help="splice two fronts and verify multiplicativity")
    p.add_argument("front1")
    p.add_argument("front2")
    p.set_defaults(run=_cmd_connsum)
    _add_common(p)

    p = sub.add_parser("corpus", help="list the bundled fronts")
    p.set_defaults(run=_cmd_corpus)
    _add_common(p, orientable=False)
    return parser


def _cmd_validate(args) -> int:
    worst = EXIT_OK
    for ref in args.fronts:
        path = Path(ref)
        try:
            diagram = _load_front(ref)
        except fronts.FrontFormatError as exc:
            print(f"{ref}:{exc.line}: {exc.message}", file=sys.stderr)
            worst = EXIT_FAIL
            continue
        except FileNotFoundError as exc:
            print(str(exc), file=sys.stderr)
            worst = EXIT_FAIL
            continue
        report = fronts.validate(diagram)
        if args.format == "json":
            print(json.dumps({
                "front": ref,
                "ok": report.ok,
                "violations": [
                    {"event": v.event_index, "message": v.message}
                    for v in report.violations
                ],
            }, indent=2, sort_keys=True))
        elif report.ok:
            print(f"{ref}: ok ({len(diagram.events)} events)")
        for v in report.violations:
            if v.event_index is not None and diagram.lines:
                where = f"{path}:{diagram.lines[v.event_index - 1]}"
            else:
                where = f"{ref}: end of diagram" if v.event_index is None else f"{ref}: event {v.event_index}"
            print(f"{where}: {v.message}", file=sys.stderr)
        if not report.ok:
            worst = EXIT_FAIL
    return worst


def _cmd_invariants(args) -> int:
    diagram = _load_front(args.front)
    sweep = fronts.sweep_front(diagram, args.reverse_component)
    indices = dict(enumerate(sweep.indices, start=1))
    payload = {
        "front": diagram.name,
        "events": str(diagram),
        "components": sweep.num_components,
        "tb": sweep.tb,
        "writhe": sweep.writhe,
        "right_cusps": sweep.num_right_cusps,
        "rotation_per_component": list(sweep.rot_per_component),
        "r": sweep.r,
        "maslov_modulus": sweep.modulus,
        "crossing_signs": list(sweep.crossing_signs),
        "crossing_indices": {str(k): v for k, v in indices.items()},
    }
    _emit(payload, args.format, [
        f"front        {diagram.name}: {diagram}",
        f"components   {sweep.num_components}",
        f"tb           {sweep.tb}   (writhe {sweep.writhe} - {sweep.num_right_cusps} right cusps)",
        f"rotations    {list(sweep.rot_per_component)}   r = {sweep.r}",
        f"maslov mod   {sweep.modulus}",
        f"signs        {list(sweep.crossing_signs)}",
        f"indices      {indices}",
    ])
    return EXIT_OK


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _ruling_json(fields, n: int) -> tuple[str, str]:
    """One entry of the "rulings" array before and after its switch ids,
    laid out as json.dumps(indent=2) at depth 2."""
    _, theta, grading, genus, orientable = fields
    head = (
        f'    {{\n      "genus": {"null" if genus is None else genus},\n      "grading": "{grading}",\n'
        f'      "orientable": {_JSON_WORDS[orientable]},\n      "switches": '
    )
    tail = f',\n      "theta": {theta}\n    }}'
    return (head + "[]", tail) if n == 0 else (head + "[\n        ", "\n      ]" + tail)


def _ruling_text(fields, n: int) -> tuple[str, str]:
    """One line of the text listing before and after its switch ids."""
    _, theta, grading, genus, _ = fields
    return "  switches=[", f"] theta={theta} genus={'-' if genus is None else genus} {grading}"


def _cmd_rulings(args) -> int:
    diagram = _load_front(args.front)
    sweep = fronts.sweep_front(diagram, args.reverse_component)
    cens = rulings._census(sweep)
    poly, count = cens.polynomials[args.grading], cens.count(args.grading)
    render, sep = (_ruling_text, ", ") if args.format == "text" else (_ruling_json, ",\n        ")
    # the listing sweep renders each ruling's ids beside its code string,
    # each id with a separator after it, and the last separator is cut
    names = {cid: f"{cid}{sep}" for cid in range(1, len(sweep.crossings) + 1)}
    cut = -len(sep)
    found = {}  # code string -> finished entry
    for fields, codes, shown in rulings._listing(sweep, args.grading, names, ""):
        ends = {n: render(f, n) for n, f in fields.items()}
        for code, ids in zip(codes, shown):
            head, tail = ends[len(code)]
            found[code] = f"{head}{ids[:cut]}{tail}"
    entries = [found[code] for code in sorted(found)]
    if args.format == "text":
        print("\n".join([f"front {diagram.name}: {count} {args.grading} ruling(s), polynomial {poly}", *entries]))
        return EXIT_OK
    payload = {
        "front": diagram.name,
        "class": args.grading,
        "count": count,
        "rotation_gcd": sweep.r,
        "polynomial": poly.to_terms(),
        "polynomial_text": str(poly),
        "polynomials_by_class": {
            cls: cens.polynomials[cls].to_terms() for cls in rulings.GRADING_FILTERS
        },
    }
    if sweep.r != 0:
        payload["note"] = "r != 0: graded classes use residues mod 2r"
    # "rulings" sorts after every other key, so its array closes the object;
    # the indenting encoder is pure Python, so the array is written by hand
    head = json.dumps(payload, indent=2, sort_keys=True)[:-2]
    if entries:
        print(f'{head},\n  "rulings": [', ",\n".join(entries), "  ]\n}", sep="\n")
    else:
        print(f'{head},\n  "rulings": []\n}}')
    return EXIT_OK


def _cmd_poly(args) -> int:
    from . import skein
    from .laurent import conway

    diagram = _load_front(args.front)
    d = skein.front_to_diagram(diagram, args.reverse_component)
    if args.command == "homfly":
        poly = skein.homfly(d, args.max_crossings)
    elif args.command == "kauffman":
        poly = skein.kauffman_dubrovnik(d, args.max_crossings)
    else:
        poly = conway(skein.homfly(d, args.max_crossings))
    payload = {"front": diagram.name, **_poly_payload(args.command, poly)}
    _emit(payload, args.format, [f"{args.command}({diagram.name}) = {poly}"])
    return EXIT_OK


def _cmd_rutherford(args) -> int:
    from . import analysis

    diagram = _load_front(args.front)
    res = analysis.rutherford_check(diagram, args.max_crossings, args.reverse_component)
    payload = {
        "front": diagram.name,
        "tb": res.tb,
        **res.to_json(),
        "pass": res.passed,
    }
    _emit(payload, args.format, [
        f"front {diagram.name}: tb = {res.tb}",
        f"  two-graded: homfly v^{res.tb + 1} slice = {res.homfly_slice}, "
        f"ruling polynomial = {res.two_graded_poly} "
        f"[{'PASS' if res.two_graded_ok else 'FAIL'}]",
        f"  ungraded:   kauffman v^{res.tb + 1} slice = {res.kauffman_slice}, "
        f"ruling polynomial = {res.ungraded_poly} "
        f"[{'PASS' if res.ungraded_ok else 'FAIL'}]",
    ])
    return EXIT_OK if res.passed else EXIT_FAIL


def _cmd_rho(args) -> int:
    from . import analysis

    diagram = _load_front(args.front)
    res = analysis.rho_report(
        diagram, args.khovanov_bound, args.max_crossings, args.reverse_component
    )
    shown = {"value": str(res.value), "minus_infinity": "-infinity", "unknown": "unknown"}[res.kind]
    payload = {
        "front": diagram.name,
        "rho": {"kind": res.kind, "value": res.value, "reason": res.reason},
    }
    _emit(payload, args.format, [f"rho({diagram.name}) = {shown}   ({res.reason})"])
    return EXIT_OK


def _cmd_tests(args) -> int:
    from . import analysis

    diagram = _load_front(args.front)
    report = analysis.analyze(
        diagram, args.khovanov_bound, args.max_crossings, args.reverse_component
    )
    payload = report.to_json()
    mark = lambda ok: "PASS" if ok else "FAIL"
    lines = [
        f"front {report.front_name}: tb = {report.tb}, r = {report.r}, "
        f"{'knot' if report.is_knot else 'link'}",
        f"  {mark(report.rutherford_two_graded['pass'])} rutherford two-graded identity",
        f"  {mark(report.rutherford_ungraded['pass'])} rutherford ungraded identity",
        f"  {mark(report.max_tb_certificate['consistent'])} max-tb certificate: "
        f"tb+1 = {report.tb + 1}, e = {report.max_tb_certificate['e']}, "
        f"maximal = {report.max_tb_certificate['maximal']}",
        f"  rho: {report.rho['kind']}"
        + (f" = {report.rho['value']}" if report.rho["value"] is not None else ""),
        f"  noruling flags: {report.noruling_flags}",
        f"  {mark(report.bennequin_test)} bennequin test (M <= e)",
        f"  {mark(report.conway_test)} conway test (deg conway >= M)",
        f"  {mark(report.theorem1_check['chain_ok'])} genus chain: "
        f"max ruling genus {report.theorem1_check['max_two_graded_genus']} "
        f"<= {report.theorem1_check['half_homfly_z_degree']} "
        f"<= seifert {report.theorem1_check['seifert_genus']}",
        f"overall: {mark(report.ok)}",
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_connsum(args) -> int:
    from . import analysis

    f1 = _load_front(args.front1)
    f2 = _load_front(args.front2)
    res = analysis.connsum_check(f1, f2, args.reverse_component)
    payload = {
        "front": res.composite.name,
        "events": str(res.composite),
        "text": fronts.render_front(res.composite),
        "counts_multiplicative": res.counts_ok,
        "polynomials_multiplicative": res.polynomials_ok,
        "genus_additive": res.genus_additive,
        "pass": res.passed,
    }
    _emit(payload, args.format, [
        f"{res.composite.name}: {res.composite}",
        f"  counts multiplicative:      {res.counts_ok}",
        f"  polynomials multiplicative: {res.polynomials_ok}",
        f"  max genus additive:         {res.genus_additive}",
    ])
    return EXIT_OK if res.passed else EXIT_FAIL


def _cmd_corpus(args) -> int:
    from . import corpus

    rows = [
        (name, corpus.DESCRIPTIONS.get(name, ""), str(corpus.load(name)))
        for name in corpus.corpus_names()
    ]
    payload = {
        "corpus": [
            {
                "name": name,
                "path": str(corpus.corpus_path(name)),
                "events": events,
                "description": description,
            }
            for name, description, events in rows
        ]
    }
    lines = [f"{name:20s} {description:55s} {events}" for name, description, events in rows]
    _emit(payload, args.format, lines)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses; parse_args keeps no state in it between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "max_crossings", 0) < 0:
        _parser().error(f"argument --max-crossings: must be non-negative, got {args.max_crossings}")
    try:
        return args.run(args)
    except fronts.FrontFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except fronts.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RuntimeError as exc:  # after ResourceLimitError, which subclasses it
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (fronts.InvalidFrontError, fronts.NormalFormError, FileNotFoundError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
