"""Command-line front end.

Subcommands expose the library layer by layer: tangle enumeration, TQFT
evaluation, the small rings, truncated projectors, surface hom complexes
and their homology, seam coarsening checks, and the rational-function
spin-network predictions with their Euler crosschecks.

Exit codes: 0 success, 1 failed check or internal error, 2 truncation too
shallow for the requested window, 3 invalid input data, 64 usage.
"""

import argparse
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass

from . import memo
from .barproj import bottom_projector, small_ring
from .errors import AdmissibilityError, InvalidBoundary, SpecError, TruncationError, expect
from .homalg import LaurentPoly
from .planar import PlanarTangle, enumerate_matchings
from .spin import (SpinNetwork, admissible_triple, as_quantum_integer,
                   cross_pairing_prediction, euler_crosscheck,
                   pairing_prediction, theta)
from .surface import (SurfaceComplex, SurfaceSpec, SurfaceTangle, _decoded, coarsen, h0,
                      removable_seam, validate_tangle, window_depth)
from .tqft import hom_graded_rank, identity_state, pair

SCHEMA = 1


@dataclass
class JobConfig:
    """Window and depth shared by the table commands.  The depth is the
    truncation asked for, and defaults to the least that stores degree
    hmin - 1, which homology at hmin reads; surface.window_depth says how
    much of it a command builds."""

    hmin: int = -4
    hmax: int = 0
    qmin: int = 0
    qmax: int = 8
    depth: int = None

    def __post_init__(self):
        if self.hmin > self.hmax:
            raise SpecError(f"window: hmin {self.hmin} exceeds hmax {self.hmax}")
        if self.qmin > self.qmax:
            raise SpecError(f"window: qmin {self.qmin} exceeds qmax {self.qmax}")
        if self.depth is None:
            self.depth = max(1, -self.hmin + 1)
        elif self.depth < 0:
            raise SpecError(f"depth must be non-negative, got {self.depth}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


def _load_json(source, what):
    """Parse a CLI argument as inline JSON or as a path to a JSON file.  One
    that opens with [ or { is the literal if it parses, and otherwise the
    file of that name if there is one."""
    literal = source.lstrip().startswith(("[", "{"))
    if literal:
        try:
            return json.loads(source)
        except json.JSONDecodeError as exc:
            error = exc
    if os.path.exists(source):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError(f"{what}: cannot read {source!r} ({exc.strerror})") from None
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            error = exc
    elif not literal:
        raise SpecError(f"{what}: no file {source!r} and not a JSON literal")
    raise SpecError(f"{what}: invalid JSON ({error})")


def _parse_tangle(data, what):
    """A bare array is a cap matching; an object gives the full tangle."""
    if isinstance(data, list):
        return PlanarTangle(len(data), 0, tuple(expect(data, "a list of integers", what)))
    if isinstance(data, dict):
        partner = tuple(expect(data.get("partner", ()), "a list of integers", f"{what}: partner"))
        top = expect(data.get("top", 0), "a non-negative integer", f"{what}: top")
        bottom = expect(data.get("bottom", len(partner) - top), "a non-negative integer",
                        f"{what}: bottom")
        circles = expect(data.get("circles", 0), "a non-negative integer", f"{what}: circles")
        return PlanarTangle(bottom, top, partner, circles)
    raise SpecError(f"{what}: tangle must be a partner array or an object")


def _emit_json(payload):
    print(json.dumps(payload, sort_keys=True, indent=2))


def _emit_csv(command, rows):
    print("command,i,j,betti,torsion")
    for i, j, betti, torsion in rows:
        cell = ";".join(str(d) for d in torsion)
        print(f"{command},{i},{j},{betti},{cell}")


def _format_value(value):
    """Rational functions as reduced strings; quantum integers named."""
    if not value:
        return "0"
    k = as_quantum_integer(value)
    if k:
        return f"[{k}] = {value.num}"
    return str(value)


def _value_payload(value):
    k = as_quantum_integer(value)
    return {
        "num": str(value.num),
        "den": str(value.den),
        "quantum_integer": k if k else None,
    }


def _homology_payload(hom):
    betti = [[i, j, b] for (i, j), b in sorted(hom.betti.items())]
    torsion = [[i, j, list(t)] for (i, j), t in sorted(hom.torsion.items())]
    return betti, torsion


def _cmd_tl_basis(args):
    if args.points < 0:
        raise SpecError(f"point count must be non-negative, got {args.points}")
    matchings = enumerate_matchings(args.points, 0)
    if args.out == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "tl basis",
                "points": args.points,
                "count": len(matchings),
                "matchings": [list(t.partner) for t in matchings],
            }
        )
    else:
        for t in matchings:
            print(json.dumps(list(t.partner)))
        print(f"{len(matchings)} matchings on {args.points} points")
    return 0


def _cmd_kh_eval(args):
    t = _parse_tangle(_load_json(args.t, "--t"), "--t")
    if args.s is None:
        s = PlanarTangle(t.bottom, t.top, tuple(), 0) if t.points == 0 else None
        if s is None:
            raise InvalidBoundary(
                "--t has boundary points; pass --s to pick the other side of the hom"
            )
    else:
        s = _parse_tangle(_load_json(args.s, "--s"), "--s")
    value = hom_graded_rank(s, t)
    if args.out == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "kh eval",
                "value": str(value),
            }
        )
    else:
        print(value)
    return 0


def _check_ring(ring, seed, samples):
    """Unitality on all pairs; associativity exhaustively or by seeded sample."""
    objs = ring.objects
    for a, b in itertools.product(objs, repeat=2):
        for lab, _ in ring.basis(a, b):
            f = ring.state(a, b, lab)
            if pair(a, a, b, identity_state(a), f) != f:
                return False, f"left unit fails on {a.partner}->{b.partner}"
            if pair(a, b, b, f, identity_state(b)) != f:
                return False, f"right unit fails on {a.partner}->{b.partner}"
    triples = [
        (a, b, c, d, lab1, lab2, lab3)
        for a, b, c, d in itertools.product(objs, repeat=4)
        for lab1, _ in ring.basis(a, b)
        for lab2, _ in ring.basis(b, c)
        for lab3, _ in ring.basis(c, d)
    ]
    mode = "exhaustive"
    if len(triples) > 512:
        mode = f"sampled {samples} of {len(triples)}"
        rng = random.Random(seed)
        triples = rng.sample(triples, min(samples, len(triples)))
    for a, b, c, d, lab1, lab2, lab3 in triples:
        f = ring.state(a, b, lab1)
        g = ring.state(b, c, lab2)
        h = ring.state(c, d, lab3)
        left = pair(a, c, d, pair(a, b, c, f, g), h)
        right = pair(a, b, d, f, pair(b, c, d, g, h))
        if left != right:
            return False, f"associativity fails on a triple over {a.partner}"
    return True, mode


def _cmd_ring(args):
    if args.check:
        expect(args.samples, "a positive integer", "--samples")
    ring = small_ring(args.m, args.n)
    gram = ring.gram()
    dims = [
        [i, j, str(gram[(a, b)])]
        for i, a in enumerate(ring.objects)
        for j, b in enumerate(ring.objects)
    ]
    payload = {
        "schema": SCHEMA,
        "command": "ring",
        "split": [args.m, args.n],
        "objects": [list(t.partner) for t in ring.objects],
        "hom_dims": dims,
    }
    code = 0
    if args.check:
        ok, note = _check_ring(ring, args.seed, args.samples)
        payload["check"] = {"ok": ok, "mode": note, "seed": args.seed}
        code = 0 if ok else 1
    if args.out == "json":
        _emit_json(payload)
    else:
        print(f"ring on split ({args.m}, {args.n}): {len(ring.objects)} objects")
        for i, j, d in dims:
            print(f"  hom {i} -> {j}: {d}")
        if args.check:
            print(f"check: {'ok' if code == 0 else 'FAILED'} ({payload['check']['mode']})")
    return code


def _cmd_bproj(args):
    cfg = JobConfig(qmax=args.qmax, depth=args.depth)
    proj = bottom_projector(args.strands, cfg.depth)
    counts = {}
    tangles = []
    for h, obs in sorted(proj.objects.items()):
        for tangle, shift in obs:
            counts[(h, shift)] = counts.get((h, shift), 0) + 1
            if tangle not in tangles:
                tangles.append(tangle)
    k0 = {
        json.dumps(list(t.partner)): str(proj.k0_series(t, (0, cfg.qmax)))
        for t in tangles
    }
    rows = [(h, q, c, ()) for (h, q), c in sorted(counts.items())]
    if args.out == "csv":
        _emit_csv("bproj", rows)
    elif args.out == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "bproj",
                "strands": args.strands,
                "depth": cfg.depth,
                "generators": [[h, q, c] for h, q, c, _ in rows],
                "k0": k0,
            }
        )
    else:
        print(f"projector on {args.strands} strands, depth {cfg.depth}")
        for h, q, c, _ in rows:
            print(f"  h={h} q={q}: {c}")
        for t, series in k0.items():
            print(f"  k0[{t}] = {series}")
    return 0


def _load_surface_input(source, what, cls):
    """The cls (SurfaceSpec or SurfaceTangle) of a CLI argument, read as
    _load_json reads it.  A literal that parses is decoded once per process
    per text (surface._decoded); a path, and a bracketed text that falls
    back to a file, are read on every call, since the file may change."""
    if source.lstrip().startswith(("[", "{")):
        try:
            return _decoded(cls, source)
        except json.JSONDecodeError:
            pass
    return cls.from_data(_load_json(source, what))


def _load_surface_inputs(args):
    """The spec and the two tangles of a surface command, each decoded as
    _load_surface_input says, and both tangles checked against the spec on
    every call."""
    spec = _load_surface_input(args.spec, "--spec", SurfaceSpec)
    top = _load_surface_input(args.t, "--t", SurfaceTangle)
    bottom = _load_surface_input(args.s, "--s", SurfaceTangle)
    validate_tangle(spec, top, who="--t")
    validate_tangle(spec, bottom, who="--s")
    return spec, top, bottom


def _cmd_surface_hom(args):
    cfg = JobConfig(hmin=args.hmin, hmax=args.hmax, qmin=args.qmin, qmax=args.qmax,
                    depth=args.depth)
    cx = SurfaceComplex(args._spec, args._top, args._bottom,
                        depth=window_depth(cfg.depth, cfg.hmin), q_range=(cfg.qmin, cfg.qmax))
    hom = cx.homology((cfg.hmin, cfg.hmax), (cfg.qmin, cfg.qmax))
    betti, torsion = _homology_payload(hom)
    if args.out == "csv":
        _emit_csv("surface hom", hom.rows())
    elif args.out == "pretty":
        print(f"homology on h [{cfg.hmin}, {cfg.hmax}], q [{cfg.qmin}, {cfg.qmax}]")
        for i, j, b in betti:
            print(f"  h={i} q={j}: rank {b}")
        for i, j, t in torsion:
            print(f"  h={i} q={j}: torsion {';'.join(map(str, t))}")
    else:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "surface hom",
                "window": {"hmin": cfg.hmin, "hmax": cfg.hmax,
                           "qmin": cfg.qmin, "qmax": cfg.qmax},
                "depth": cfg.depth,
                "betti": betti,
                "torsion": torsion,
            }
        )
    return 0


def _cmd_surface_h0(args):
    cfg = JobConfig(qmin=args.qmin, qmax=args.qmax)
    ranks = [
        [q, h0(args._spec, args._top, args._bottom, q)]
        for q in range(cfg.qmin, cfg.qmax + 1)
    ]
    series = LaurentPoly({q: r for q, r in ranks})
    if args.out == "csv":
        _emit_csv("surface h0", [(0, q, r, ()) for q, r in ranks if r])
    elif args.out == "pretty":
        print(series)
    else:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "surface h0",
                "window": {"qmin": cfg.qmin, "qmax": cfg.qmax},
                "ranks": [[q, r] for q, r in ranks if r],
                "series": str(series),
            }
        )
    return 0


def _cmd_coarsen_check(args):
    cfg = JobConfig(hmin=args.hmin, hmax=args.hmax, qmin=args.qmin, qmax=args.qmax,
                    depth=args.depth)
    removable_seam(args._spec, args.seam, (args._top, args._bottom))
    cx = SurfaceComplex(args._spec, args._top, args._bottom,
                        depth=window_depth(cfg.depth, cfg.hmin))
    target, cmap = coarsen(cx, args.seam)
    h_range = (cfg.hmin, cfg.hmax)
    q_range = (cfg.qmin, cfg.qmax)
    cone_hom = cmap.cone().homology(h_range, q_range)
    acyclic = not cone_hom.betti and not cone_hom.torsion
    src = cx.homology(h_range, q_range)
    tgt = target.homology(h_range, q_range)
    match = src.betti == tgt.betti and src.torsion == tgt.torsion
    ok = acyclic and match
    src_betti, src_torsion = _homology_payload(src)
    tgt_betti, tgt_torsion = _homology_payload(tgt)
    if args.out == "pretty":
        print(f"seam {args.seam!r}: cone {'acyclic' if acyclic else 'NOT acyclic'}, "
              f"homology {'matches' if match else 'DIFFERS'}")
    else:
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "coarsen-check",
                "seam": args.seam,
                "window": {"hmin": cfg.hmin, "hmax": cfg.hmax,
                           "qmin": cfg.qmin, "qmax": cfg.qmax},
                "depth": cfg.depth,
                "acyclic": acyclic,
                "betti_match": match,
                "source": {"betti": src_betti, "torsion": src_torsion},
                "target": {"betti": tgt_betti, "torsion": tgt_torsion},
            }
        )
    return 0 if ok else 1


def _cmd_spin_theta(args):
    if min(args.a, args.b, args.c) < 0:
        raise SpecError(
            f"colors must be non-negative, got {args.a} {args.b} {args.c}"
        )
    value = theta(args.a, args.b, args.c)
    if args.out == "json":
        payload = {
            "schema": SCHEMA,
            "command": "spin theta",
            "colors": [args.a, args.b, args.c],
            "admissible": admissible_triple(args.a, args.b, args.c),
            "value": _value_payload(value),
        }
        _emit_json(payload)
    else:
        print(_format_value(value))
    return 0


def _cmd_spin_pairing(args):
    net = SpinNetwork.from_data(_load_json(args.net, "--net"))
    if args.against is not None:
        other = SpinNetwork.from_data(_load_json(args.against, "--against"))
        value = cross_pairing_prediction(net, other)
    else:
        value = pairing_prediction(net)
    if args.out == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "spin pairing",
                "coloring": dict(sorted(net.coloring.items())),
                "value": _value_payload(value),
            }
        )
    else:
        print(_format_value(value))
    return 0


def _cmd_spin_crosscheck(args):
    if args.order < 0:
        raise SpecError(f"order must be non-negative, got {args.order}")
    if args.depth is not None and args.depth < 0:
        raise SpecError(f"depth must be non-negative, got {args.depth}")
    report = euler_crosscheck(args.scenario, args.order, depth=args.depth)
    if args.out == "json":
        _emit_json(
            {
                "schema": SCHEMA,
                "command": "spin crosscheck",
                "scenario": report.scenario,
                "order": report.order,
                "lhs": str(report.lhs),
                "rhs": str(report.rhs),
                "ok": report.ok,
                "mismatches": [list(m) for m in report.mismatches],
            }
        )
    else:
        print(f"scenario {report.scenario}, order {report.order}")
        print(f"  chain level: {report.lhs}")
        print(f"  prediction:  {report.rhs}")
        if report.ok:
            print("  ok")
        else:
            for e, lc, rc in report.mismatches:
                print(f"  MISMATCH at q^{e}: {lc} versus {rc}")
    return 0 if report.ok else 1


def _add_out(parser, default, table=False):
    choices = ("json", "csv", "pretty") if table else ("json", "pretty")
    parser.add_argument("--out", choices=choices, default=default,
                        help=f"output format (default {default})")


def _add_window(parser, hom=True):
    if hom:
        parser.add_argument("--hmin", type=int, default=-4)
        parser.add_argument("--hmax", type=int, default=0)
    parser.add_argument("--qmin", type=int, default=0)
    parser.add_argument("--qmax", type=int, default=8)


@memo.cache
def build_parser():
    """The command-line parser, built once per process: parsing keeps its
    state in the namespace it returns, so every run can share it."""
    root = _Parser(prog="skeinhom", description=__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = root.add_subparsers(dest="command", required=True, metavar="command")

    tl = sub.add_parser("tl", help="crossingless tangle combinatorics")
    tl_sub = tl.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    basis = tl_sub.add_parser("basis", help="list cap matchings on a point count")
    basis.add_argument("points", type=int)
    _add_out(basis, "pretty")
    basis.set_defaults(handler=_cmd_tl_basis)

    kh = sub.add_parser("kh", help="dotted cobordism TQFT")
    kh_sub = kh.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    ev = kh_sub.add_parser("eval", help="graded rank of a hom space of tangles")
    ev.add_argument("--t", required=True, help="tangle JSON (literal or path)")
    ev.add_argument("--s", help="other side of the hom; defaults to the empty tangle")
    _add_out(ev, "pretty")
    ev.set_defaults(handler=_cmd_kh_eval)

    ring = sub.add_parser("ring", help="arc ring of a strand split")
    ring.add_argument("m", type=int)
    ring.add_argument("n", type=int)
    ring.add_argument("--check", action="store_true",
                      help="verify unitality and associativity")
    ring.add_argument("--seed", type=int, default=0)
    ring.add_argument("--samples", type=int, default=200)
    _add_out(ring, "pretty")
    ring.set_defaults(handler=_cmd_ring)

    bp = sub.add_parser("bproj", help="truncated bottom projector")
    bp.add_argument("--strands", type=int, required=True)
    bp.add_argument("--depth", type=int, required=True)
    bp.add_argument("--qmax", type=int, default=8)
    _add_out(bp, "json", table=True)
    bp.set_defaults(handler=_cmd_bproj)

    surf = sub.add_parser("surface", help="hom complexes over seamed surfaces")
    surf_sub = surf.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    hom = surf_sub.add_parser("hom", help="bigraded homology of a surface hom complex")
    hom.add_argument("--spec", required=True)
    hom.add_argument("--t", required=True)
    hom.add_argument("--s", required=True)
    _add_window(hom)
    hom.add_argument("--depth", type=int)
    _add_out(hom, "json", table=True)
    hom.set_defaults(handler=_cmd_surface_hom)
    hz = surf_sub.add_parser("h0", help="degree-zero homology ranks by quantum degree")
    hz.add_argument("--spec", required=True)
    hz.add_argument("--t", required=True)
    hz.add_argument("--s", required=True)
    _add_window(hz, hom=False)
    _add_out(hz, "json", table=True)
    hz.set_defaults(handler=_cmd_surface_h0)

    cc = sub.add_parser("coarsen-check",
                        help="verify seam removal is a quasi-isomorphism on a window")
    cc.add_argument("--spec", required=True)
    cc.add_argument("--t", required=True)
    cc.add_argument("--s", required=True)
    cc.add_argument("--seam", required=True)
    _add_window(cc)
    cc.add_argument("--depth", type=int)
    _add_out(cc, "json")
    cc.set_defaults(handler=_cmd_coarsen_check)

    spin = sub.add_parser("spin", help="rational-function network predictions")
    spin_sub = spin.add_subparsers(dest="subcommand", required=True, metavar="subcommand")
    th = spin_sub.add_parser("theta", help="colored theta graph evaluation")
    th.add_argument("a", type=int)
    th.add_argument("b", type=int)
    th.add_argument("c", type=int)
    _add_out(th, "pretty")
    th.set_defaults(handler=_cmd_spin_theta)
    pr = spin_sub.add_parser("pairing", help="predicted self-pairing of a network")
    pr.add_argument("--net", required=True, help="network JSON (literal or path)")
    pr.add_argument("--against", help="second network for a cross pairing")
    _add_out(pr, "pretty")
    pr.set_defaults(handler=_cmd_spin_pairing)
    xc = spin_sub.add_parser("crosscheck",
                             help="Euler series against the closed-form prediction")
    xc.add_argument("--scenario", required=True,
                    help="one of strands0, bproj2, annulus, triangle112")
    xc.add_argument("--order", type=int, required=True)
    xc.add_argument("--depth", type=int)
    _add_out(xc, "pretty")
    xc.set_defaults(handler=_cmd_spin_crosscheck)

    return root


def _converted(action, text):
    return text if action.type is None else action.type(text)


@memo.cache
def _leaf_table():
    """{command words: (defaults, {option string: action}, required
    actions)} of every leaf parser of build_parser(), read off the parsers
    once per process.  defaults is the namespace argparse fills for the
    words alone: each parser's action defaults but SUPPRESS, its
    set_defaults, string defaults through the action's type, and the
    command words at their dests.  The options are the leaf's single-value
    store actions.  This is the one place that reads argparse's private
    names; it relies on the parsers declaring no mutually exclusive group,
    no option that looks like a negative number and no positional that
    may take no word."""
    table = {}

    def walk(parser, words, defaults):
        own = {}
        for action in parser._actions:
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                own.setdefault(action.dest, action.default)
        for dest, value in parser._defaults.items():
            own.setdefault(dest, value)
        for action in parser._actions:
            if (not action.required and isinstance(action.default, str)
                    and own.get(action.dest) is action.default):
                own[action.dest] = _converted(action, action.default)
        defaults = {**defaults, **own}
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if subs:
            for word, child in subs[0].choices.items():
                walk(child, words + (word,), {**defaults, subs[0].dest: word})
        else:
            options = {s: a for a in parser._actions if type(a) is argparse._StoreAction
                       and a.nargs is None for s in a.option_strings}
            required = frozenset(a for a in parser._actions if a.required)
            table[words] = (defaults, options, required)

    walk(build_parser(), (), {})
    return table


def _parsed(argv):
    """build_parser().parse_args(argv), read in one pass, if argv is a
    leaf's command words followed by --option value pairs, each option a
    single-value store action of that leaf given once and each value not
    opening with "-" unless it is "-" and ASCII digits (a negative number
    to argparse); None for any other argv, and for one whose value fails
    its type or choices or that omits a required option, which argparse
    parses, refuses or answers with help itself."""
    table = _leaf_table()
    for n in (1, 2):
        leaf = table.get(tuple(argv[:n]))
        if leaf:
            break
    else:
        return None
    defaults, options, required = leaf
    rest = argv[n:]
    given = dict(zip(rest[::2], rest[1::2]))
    if 2 * len(given) != len(rest):  # a trailing word, or an option given twice
        return None
    namespace, seen = dict(defaults), set()
    for option, text in given.items():
        action = options.get(option)
        if action is None or (text.startswith("-")
                              and not (text[1:].isdigit() and text.isascii())):
            return None
        try:
            value = _converted(action, text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        namespace[action.dest] = value
        seen.add(action)
    return argparse.Namespace(**namespace) if required <= seen else None


def run(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parsed(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if getattr(args, "spec", None) is not None:
            args._spec, args._top, args._bottom = _load_surface_inputs(args)
        return args.handler(args)
    except TruncationError as exc:
        print(f"TruncationError: {exc}", file=sys.stderr)
        return 2
    except (SpecError, InvalidBoundary, AdmissibilityError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
