"""Command-line front end.

stdout carries exactly one JSON payload per run (plot writes its SVG to a
file instead); everything diagnostic goes to stderr. Exit codes: 0 success,
1 bad input, 2 broken invariant (oracle mismatch or internal assertion).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from itertools import chain
from json.decoder import WHITESPACE

from .errors import InputFormatError, ParacloseError, StructureError
from .generate import (
    random_incidence_graph,
    random_semiorder,
    random_sp_tree,
    random_tree_order,
    random_treewidth_poset,
    random_width2_poset,
)
from .parametric import (
    Piece,
    maximize_quasiconvex,
    objective,
    profile,
    profile_to_json,
    rat,
    rat_str,
)
from .gcpause import gc_paused
from .polygon import Polygon, _is_int_pair
from .poset import Poset, brute_polygon, incidence_poset
from .semiorder import Semiorder, solve_semiorder
from .series_parallel import parse_sp, solve_sp, sp_to_poset, sp_tree_to_json, tree_to_sp
from .svg import polygon_svg, profile_svg
from .treewidth import TreeDecomposition, solve_treewidth
from .width2 import solve_width2
from .witness import expand_all


class _OracleMismatch(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; here that's an input error, code 1
    def error(self, message):
        raise InputFormatError(message)


def _load(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as f:
                text = f.read()
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from None
    try:
        # the parse allocates only live containers, never cycles
        with gc_paused():
            return _JSONReader(text).decode()
    except json.JSONDecodeError as e:
        raise InputFormatError(f"{path}: not valid JSON: {e}") from None
    except RecursionError:
        raise InputFormatError(f"{path}: JSON nested too deeply") from None


# the first character of a JSON number (NaN and the infinities aside)
_NUMBER_START = frozenset("-0123456789")

# the end of an element of a list: a "," or the list's "]", with the
# whitespace around it
_NEXT = re.compile(r"[ \t\n\r]*([,\]])[ \t\n\r]*")


class _JSONReader:
    """json.loads(text), with the equal strs of a payload's id lists made
    one object.

    A polygon payload lists witnesses, sets of the same few ids: the
    sp-witness benchmark's polygon (seed 1) lists 655,149 ids, 995 of them
    distinct, and json.loads makes one str per entry. Here the C scanner
    decodes the text in parts instead: the top-level object key by key, a
    list whose first element is a list one element at a time, and anything
    else in one call. A list of lists whose first inner list starts with a
    number (a polygon's vertices, say) is decoded in one call too, and
    walked again if it turns out to hold anything but lists or a str in
    an inner list (ints sort before strs in mixed witnesses).
    Each inner list's strs are swapped for the first equal str met in this
    decode, so at most one list's copies are alive at once. Only exact strs
    are shared: a memo keyed by value would merge 1, true and 1.0.

    Text the walk does not accept goes to json.loads whole, so invalid
    text raises json's own JSONDecodeError. The parts are walked in loops,
    not recursively; nesting inside a part is the C scanner's, which
    raises RecursionError when too deep."""

    def __init__(self, text):
        self.text = text
        self.scan = json.JSONDecoder().scan_once
        self.memo = {}

    def decode(self):
        text = self.text
        try:
            i = WHITESPACE.match(text).end()
            obj, i = self._object(i) if text.startswith("{", i) else self._value(i)
            if WHITESPACE.match(text, i).end() == len(text):
                return obj
        except (StopIteration, json.JSONDecodeError):
            pass
        return json.loads(text)

    def _expect(self, c, i):
        """The index past the c at text[i]; StopIteration if none is there."""
        if not self.text.startswith(c, i):
            raise StopIteration(i)
        return WHITESPACE.match(self.text, i + 1).end()

    def _object(self, i):
        """The object at text[i] == "{" and the index past it."""
        text, skip, expect = self.text, WHITESPACE.match, self._expect
        out = {}
        i = expect("{", i)
        if text.startswith("}", i):
            return out, i + 1
        while True:
            if not text.startswith('"', i):
                raise StopIteration(i)
            key, i = self.scan(text, i)
            out[key], i = self._value(expect(":", skip(text, i).end()))
            i = skip(text, i).end()
            if text.startswith("}", i):
                return out, i + 1
            i = expect(",", i)

    def _value(self, i):
        """The value at text[i] (not whitespace) and the index past it."""
        text = self.text
        if text.startswith("[", i):
            j = WHITESPACE.match(text, i + 1).end()
            if text.startswith("[", j):
                k = WHITESPACE.match(text, j + 1).end()
                if text[k:k + 1] in _NUMBER_START:
                    v, end = self.scan(text, i)
                    if set(map(type, v)) == {list}:
                        if str not in set(map(type, chain.from_iterable(v))):
                            return v, end
                return self._lists(j)
        return self.scan(text, i)

    def _lists(self, i):
        """The rest of a list from its first element, text[i] == "[", and
        the index past its "]"."""
        text, scan, after, memo = self.text, self.scan, _NEXT.match, self.memo
        out = []
        while True:
            v, i = scan(text, i)
            if v.__class__ is list:
                v = [memo.setdefault(x, x) if x.__class__ is str else x for x in v]
            out.append(v)
            m = after(text, i)
            if m is None:
                raise StopIteration(i)
            if m[1] == "]":
                return out, m.end(1)
            i = m.end()


def _emit_json(args, obj):
    """Write the bytes of json.dumps(obj, separators=(",", ":")) plus a
    newline to --out or stdout, streamed one list or object at a time, so
    the whole text is never held at once. A --out file the writer fails
    part way through is removed: a partial payload must not pass for a
    whole one."""
    if not getattr(args, "out", None):
        sys.stdout.writelines(_json_chunks(obj))
        sys.stdout.write("\n")
        return
    f = open(args.out, "w")
    try:
        with f:
            f.writelines(_json_chunks(obj))
            f.write("\n")
    except BaseException:
        if os.path.isfile(args.out):
            os.remove(args.out)
        raise


_SCALARS = frozenset((str, int, float, bool, type(None)))
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _json_chunks(obj):
    """The text of json.dumps(obj, separators=(",", ":")), one list or
    object at a time. (json.dumps holds every piece of the text and then
    the joined text.)"""
    text = _flat(obj)
    if text is not None:
        yield text
        return
    if isinstance(obj, dict):
        items = ((_json_key(k), v) for k, v in obj.items())
        sep, close = "{", "}"
    else:
        items = (("", v) for v in obj)
        sep, close = "[", "]"
    for key, v in items:
        text = _flat(v)
        if text is None:
            yield sep + key
            yield from _json_chunks(v)
        else:
            yield sep + key + text
        sep = ","
    yield close


def _flat(obj):
    """The text of obj in one piece, from one call of the C encoder, if it
    is a scalar, an empty container, a list of scalars or a list of scalar
    pairs (a polygon's vertices); else None."""
    if isinstance(obj, dict):
        return None if obj else "{}"
    if not isinstance(obj, (list, tuple)) or not obj:
        return _compact(obj)
    types = set(map(type, obj))
    if types <= _SCALARS or (
        types <= {list, tuple}
        and set(map(len, obj)) == {2}
        and set(map(type, chain.from_iterable(obj))) <= _SCALARS
    ):
        return _compact(obj)
    return None


def _json_key(k):
    # json writes int, float, bool and None keys as the string of their
    # JSON form, and refuses any other key
    if not isinstance(k, str):
        if k is not None and not isinstance(k, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
        k = json.dumps(k)
    return json.dumps(k) + ":"


def _check_oracle(args, n, build_poset, got):
    """Compare got with brute force over the n-element order that
    build_poset() returns; the order is built only when the oracle runs."""
    if not args.check_oracle:
        return
    if n > args.oracle_limit:
        print(f"oracle: SKIPPED (n={n} above limit {args.oracle_limit})", file=sys.stderr)
        return
    want = brute_polygon(build_poset(), limit=args.oracle_limit, track=False)
    if want.vertices == got.vertices:
        print("oracle: MATCH", file=sys.stderr)
        return
    k = next(
        (i for i, (a, b) in enumerate(zip(got.vertices, want.vertices)) if a != b),
        min(len(got.vertices), len(want.vertices)),
    )
    raise _OracleMismatch(
        f"oracle: MISMATCH at vertex {k}: "
        f"got {list(got.vertices[k]) if k < len(got.vertices) else 'nothing'}, "
        f"want {list(want.vertices[k]) if k < len(want.vertices) else 'nothing'} "
        f"(sizes {len(got.vertices)} vs {len(want.vertices)})"
    )


def _polygon_out(args, n, build_poset, poly):
    _check_oracle(args, n, build_poset, poly)
    _emit_json(args, poly.to_json())


def _cmd_oracle(args):
    poset = Poset.from_json(_load(args.input))
    poly = brute_polygon(poset, limit=args.oracle_limit, track=not args.no_witness)
    _emit_json(args, poly.to_json())
    return 0


def _cmd_semiorder(args):
    s = Semiorder.from_json(_load(args.input))
    poly = solve_semiorder(s, track=not args.no_witness)
    _polygon_out(args, len(s), s.to_poset, poly)
    return 0


def _cmd_sp(args):
    data = _load(args.input)
    if isinstance(data, dict) and "root" in data:
        t = tree_to_sp(data)
    else:
        t = parse_sp(data)
    del data  # the parsed input is not needed through the solve
    poly = solve_sp(t, track=not args.no_witness)
    _polygon_out(args, t.count, lambda: sp_to_poset(t), poly)
    return 0


def _cmd_treewidth(args):
    poset = Poset.from_json(_load(args.input))
    decomp = None
    if args.decomposition:
        decomp = TreeDecomposition.from_json(_load(args.decomposition))
    poly = solve_treewidth(poset, decomp, track=not args.no_witness)
    _polygon_out(args, len(poset), lambda: poset, poly)
    return 0


def _cmd_width2(args):
    poset = Poset.from_json(_load(args.input))
    try:
        poly = solve_width2(poset, track=not args.no_witness)
    except StructureError as e:
        if e.witness:
            print("width-w sketch unsupported for w >= 3", file=sys.stderr)
        raise
    _polygon_out(args, len(poset), lambda: poset, poly)
    return 0


def _cmd_incidence(args):
    poset = incidence_poset(_load(args.input))
    _emit_json(args, poset.to_json())
    return 0


def _cmd_profile(args):
    poly = Polygon.from_json(_load(args.input))
    _emit_json(args, profile_to_json(profile(poly)))
    return 0


def _cmd_optimize(args):
    poly = Polygon.from_json(_load(args.input))
    value, vertex, wit = maximize_quasiconvex(poly, objective(args.objective))
    out = {"value": rat_str(Fraction(value)), "vertex": list(vertex)}
    if wit is not None:
        out["witness"] = expand_all([wit], ordered=True)[0]
    _emit_json(args, out)
    return 0


_GEN = {
    "semiorder": lambda rng, args: random_semiorder(rng, args.n, span=args.span),
    "sp": lambda rng, args: sp_tree_to_json(random_sp_tree(rng, args.n, span=args.span)),
    "tree": lambda rng, args: random_tree_order(rng, args.n, span=args.span),
    "treewidth": lambda rng, args: random_treewidth_poset(
        rng, args.n, width=args.width, span=args.span
    ),
    "width2": lambda rng, args: random_width2_poset(rng, args.n, span=args.span),
    "incidence": lambda rng, args: random_incidence_graph(
        rng, args.n, min(2 * args.n, args.n * (args.n - 1) // 2), span=args.span
    ),
}


def _cmd_gen(args):
    rng = random.Random(args.seed)
    _emit_json(args, _GEN[args.klass](rng, args))
    return 0


def _read_pieces(pieces):
    """Profile pieces from a payload written by `profile`; witnesses are
    not needed for a plot and are left out."""
    if not isinstance(pieces, list):
        raise InputFormatError(f'"pieces" must be a list, got {pieces!r}')
    out = []
    for p in pieces:
        if not isinstance(p, dict) or not {"vertex", "from", "to"} <= p.keys():
            raise InputFormatError(f'profile piece needs "vertex", "from" and "to": {p!r}')
        v = p["vertex"]
        if not _is_int_pair(v):
            raise InputFormatError(f"piece vertex must be a pair of integers, got {v!r}")
        out.append(Piece(
            tuple(v),
            None,
            None if p["from"] == "-inf" else rat(p["from"]),
            None if p["to"] == "inf" else rat(p["to"]),
        ))
    return out


def _cmd_plot(args):
    data = _load(args.input)
    if isinstance(data, dict) and "pieces" in data:
        text = profile_svg(_read_pieces(data["pieces"]))
    elif isinstance(data, dict) and "elements" in data:
        poset = Poset.from_json(data)
        cloud = [
            poset.project(mask) for mask in poset.lower_sets(limit=args.oracle_limit)
        ]
        text = polygon_svg(brute_polygon(poset, limit=args.oracle_limit), cloud)
    else:
        text = polygon_svg(Polygon.from_json(data))
    out = args.out or (args.input + ".svg" if args.input != "-" else None)
    if not out:
        raise InputFormatError("plotting stdin needs --out")
    with open(out, "w") as f:
        f.write(text)
    print(f"wrote {out}", file=sys.stderr)
    return 0


# options shared by some subcommands; each subcommand takes the ones it reads
_FLAGS = {
    "--no-witness": dict(action="store_true", help="drop witness sets"),
    "--oracle-limit": dict(
        type=int, default=20, metavar="N",
        help="max n for brute-force enumeration (default 20)",
    ),
    "--check-oracle": dict(
        action="store_true", help="cross-check the result against brute force",
    ),
}


def _build_parser():
    top = _Parser(prog="paraclose", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *flags, input_file=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if input_file:
            p.add_argument("input", help="input file (- for stdin)")
        p.add_argument("--out", help="write the payload here instead of stdout")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    solver = ("--no-witness", "--oracle-limit", "--check-oracle")
    add("oracle", _cmd_oracle, "brute-force polygon of a poset file",
        "--no-witness", "--oracle-limit")
    add("semiorder", _cmd_semiorder, "polygon of a semiorder (items with utilities)", *solver)
    add("sp", _cmd_sp, "polygon of a series-parallel order (sp tree or rooted tree)", *solver)
    tw = add("treewidth", _cmd_treewidth, "polygon of a bounded-treewidth poset", *solver)
    tw.add_argument("--decomposition", metavar="FILE", help="tree decomposition JSON")
    add("width2", _cmd_width2, "polygon of a width-2 poset", *solver)
    add("incidence", _cmd_incidence, "turn a weighted graph into its incidence poset")
    add("profile", _cmd_profile, "parametric optimum pieces of a polygon file")
    opt = add("optimize", _cmd_optimize, "maximize a quasiconvex objective over a polygon")
    opt.add_argument(
        "--objective", default="ratio", metavar="SPEC",
        help="ratio | dist2 | linear:a,b (default ratio)",
    )
    gen = add("gen", _cmd_gen, "emit a random instance", input_file=False)
    gen.add_argument("--class", dest="klass", required=True, choices=sorted(_GEN))
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--span", type=int, default=9, help="weight magnitude bound")
    gen.add_argument("--width", type=int, default=3, help="treewidth bound for --class treewidth")
    add("plot", _cmd_plot, "render a polygon, poset (with point cloud) or profile to SVG",
        "--oracle-limit")
    return top


def run(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except _OracleMismatch as e:
        print(str(e), file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return 2
    except ParacloseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
