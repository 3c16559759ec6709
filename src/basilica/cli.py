"""Command-line front end.

Exit codes: 0 success; 1 a check or verification suite reported failures; 2
parse error, or a file that cannot be read or written (missing, a directory,
no permission, not UTF-8); 3 precondition violation; 4 budget or memory
exhausted, or projection search failed; 5 certificate verification failed; 6
internal consistency error (an engine invariant broke: a bug, reported in
one line).  Each handler imports the layers its command runs, so building
the parser loads only ``core`` and ``certificate``, and ``verify`` no more.
"""

from __future__ import annotations

import argparse
import sys

from .core import (
    BudgetExceededError,
    ConsistencyError,
    Element,
    GeneratorSystem,
    InputError,
    PreconditionError,
    ascii_int,
    basilica,
    load_system,
    vertex_str,
)
from .certificate import (
    DEFAULT_DEPTH, DEFAULT_SCHREIER_CAP, DEFAULT_STATES, hword_str, parse_certificate, replay,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5
EXIT_INTERNAL = 6


def _integer(text: str) -> int:
    """A command-line number: ASCII digits after an optional ``-``, so a
    negative count still reaches ``require_count`` and its message."""
    value = ascii_int(text.removeprefix("-"))
    if value is None:
        raise argparse.ArgumentTypeError(f"not an ASCII decimal: {text!r}")
    return -value if text.startswith("-") else value


def _system(args) -> GeneratorSystem:
    if args.system:
        return load_system(args.system)
    return basilica()


def _subgroup(system: GeneratorSystem, gens: str):
    from .permgrp import SubgroupHandle
    words = [w.strip() for w in gens.split(",") if w.strip()]
    if not words:
        raise InputError("no subgroup generators given")
    return SubgroupHandle.from_words(system, words)


def _print_sections(g: Element) -> None:
    print(f"word: {g}")
    print(f"root: {g.root_perm()}")
    for x in range(g.system.alphabet_size):
        print(f"section {x}: {g.section(x)}")


def cmd_eval(args) -> int:
    system = _system(args)
    g = system.element(args.word)
    portrait = g.portrait(args.depth)
    _print_sections(g)
    for vertex, label in portrait.labels.items():
        print(f"portrait {vertex_str(vertex)}: {label}")
    return EXIT_OK


def cmd_portrait(args) -> int:
    system = _system(args)
    g = system.element(args.word)
    portrait = g.portrait(args.depth)
    if args.dot:
        sys.stdout.write(portrait.to_dot())
    else:
        for vertex, label in portrait.labels.items():
            print(f"{vertex_str(vertex)}\t{label}")
    return EXIT_OK


def cmd_norm(args) -> int:
    from .norms import geodesic_rep
    system = _system(args)
    g = system.element(args.word)
    # the norm is the length of the geodesic, so the word is looked up once
    rep = geodesic_rep(g)
    print(f"norm: {len(rep)}")
    print(f"geodesic: {system.word_str(rep)}")
    return EXIT_OK


def cmd_ball(args) -> int:
    from .norms import ball
    system = _system(args)
    sphere = ball(system, args.radius)
    sys.stdout.write(sphere.table())
    print(f"classes: {len(sphere)}", file=sys.stderr)
    return EXIT_OK


def cmd_orbit(args) -> int:
    from .permgrp import orbit
    system = _system(args)
    H = _subgroup(system, args.gens)
    table = orbit(H, args.vertex)
    sys.stdout.write(table.table())
    return EXIT_OK


def cmd_stab(args) -> int:
    from .permgrp import stabilizer_generator_pairs
    system = _system(args)
    H = _subgroup(system, args.gens)
    for elem, hw in stabilizer_generator_pairs(H, args.vertex, cap=args.cap):
        print(f"{elem}\t{hword_str(hw)}")
    return EXIT_OK


def cmd_order(args) -> int:
    from .permgrp import group_order, level_perms
    system = _system(args)
    H = _subgroup(system, args.gens)
    print(group_order(level_perms(system, H.generators, args.level)))
    return EXIT_OK


def cmd_descend(args) -> int:
    from . import descent
    cert = getattr(descent, args.search)(basilica().element(args.word), max_states=args.budget)
    print(f"vertex={vertex_str(cert.vertex)} k={cert.exponent_log}")
    return EXIT_OK


def cmd_lift(args) -> int:
    from .structure import lift_section
    g = basilica().element(args.word)
    print(lift_section(g, args.vertex))
    return EXIT_OK


def cmd_coords(args) -> int:
    from . import structure
    coords = getattr(structure, args.image)(basilica().element(args.word))
    print(f"({','.join(map(str, coords))})")
    return EXIT_OK


def cmd_prodense(args) -> int:
    from .descent import FailureReport, prodense_projection_search
    H = _subgroup(basilica(), args.gens)
    result = prodense_projection_search(
        H,
        max_states=args.budget,
        schreier_cap=args.schreier_cap,
        max_depth=args.max_depth,
    )
    if isinstance(result, FailureReport):
        print(result.describe())
        return EXIT_BUDGET
    text = result.serialize()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"projection certificate written to {args.out}")
        print(f"vertex={vertex_str(result.vertex)}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.cert, "r", encoding="utf-8") as fh:
        cert = parse_certificate(fh.read())
    system = basilica()
    if replay(system, [system.parse_word(w) for w in cert.subgroup], cert):
        print(f"certificate valid: projection at {vertex_str(cert.vertex)} is the full group")
        return EXIT_OK
    print("certificate INVALID")
    return EXIT_VERIFY


def cmd_check_paper(args) -> int:
    from .checks import run_checks
    only = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
    report = run_checks(only=only, seed=args.seed)
    sys.stdout.write(report.render())
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basilica",
        description=(
            "Exact computation in wreath-recursion groups on the binary rooted "
            "tree, centered on the Basilica group.  Words use one lowercase "
            "letter per generator and the matching uppercase for its inverse "
            "(e.g. abA); `e` is the empty word; vertices are digit strings."
        ),
        epilog=(
            "exit codes: 0 ok, 1 failed checks, 2 parse or file error, "
            "3 precondition, 4 budget/memory/search failure, 5 verification failure, "
            "6 internal consistency error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, system=False, **defaults):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, **defaults)
        if system:
            p.add_argument("--system", help="group-definition file (default: Basilica)")
        return p

    p = add("eval", cmd_eval, "root permutation and sections of a word", system=True)
    p.add_argument("word")
    p.add_argument("--depth", type=_integer, default=0, help="also print the portrait")

    p = add("portrait", cmd_portrait, "portrait of a word to a given depth", system=True)
    p.add_argument("word")
    p.add_argument("--depth", type=_integer, required=True)
    p.add_argument("--dot", action="store_true", help="emit a DOT graph")

    p = add("norm", cmd_norm, "word norm and canonical geodesic", system=True)
    p.add_argument("word")

    p = add("ball", cmd_ball, "enumerate ball classes as norm/word lines", system=True)
    p.add_argument("radius", type=_integer)

    p = add("orbit", cmd_orbit, "orbit of a vertex with transversal words", system=True)
    p.add_argument("--gens", required=True, help="comma-separated generator words")
    p.add_argument("--vertex", required=True)

    p = add("stab", cmd_stab, "stabilizer generators of a vertex", system=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--cap", type=_integer, default=DEFAULT_SCHREIER_CAP)

    p = add("order", cmd_order, "order of the level-n quotient of a subgroup", system=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--level", type=_integer, required=True)

    for name, search, help_text in (
        ("find-ab", "find_ab", "descend a (1,1)-word to the projection ab"),
        ("find-binva", "find_b_inv_a", "descend a (1,-1)-word to b^-1 a"),
    ):
        p = add(name, cmd_descend, help_text, search=search)
        p.add_argument("word")
        p.add_argument("--budget", type=_integer, default=DEFAULT_STATES)

    p = add("lift", cmd_lift, "rigid-stabilizer lift of a derived-subgroup word")
    p.add_argument("word")
    p.add_argument("vertex")

    for name, image, help_text in (
        ("abelianize", "ab_image", "exponent sums (s,t)"),
        ("heis", "heis_image", "Heisenberg normal form (p,q,r)"),
        ("bprime", "bprime_coords", "derived-subgroup coordinates (l,m,n)"),
    ):
        p = add(name, cmd_coords, help_text, image=image)
        p.add_argument("word")

    p = add("prodense", cmd_prodense, "search for a full-projection certificate")
    p.add_argument("--gens", required=True)
    p.add_argument("--budget", type=_integer, default=DEFAULT_STATES)
    p.add_argument("--schreier-cap", type=_integer, default=DEFAULT_SCHREIER_CAP)
    p.add_argument("--max-depth", type=_integer, default=DEFAULT_DEPTH)
    p.add_argument("--out", help="write the certificate to a file")

    p = add("verify", cmd_verify, "replay a projection certificate file")
    p.add_argument("--cert", required=True)

    p = add("check-paper", cmd_check_paper, "run the identity/lemma suites")
    p.add_argument("--only", help="comma-separated suite subset (an unknown name lists them)")
    p.add_argument("--seed", type=_integer, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        pass  # reported once the traceback, and the frames that hold the memory, are gone
    print("out of memory: the command needs more than the process may allocate", file=sys.stderr)
    return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
