"""Command-line front end.

Input files are JSON:

  graph     {"vertices": k, "edges": [[i, j], ...]}   with 1-based pairs
  config    {"dim": n, "points": [[...], ...]}        one row per point; each
            entry is a number or an exact rational written "a/b"
  subspace  {"basis": [[[...], ...], ...]}            each basis motion is an
            n x k matrix given row-major

Each cmd_* returns its exit code and a list of (label, fields, text
lines) records; main writes stdout only after the command has returned,
so exits 2, 3 and 4 leave stdout empty.  With --format jsonl every
record, after a manifest of the run read from the parsed arguments, is
one JSON object per line; output depends only on the inputs and the
seed, never on timing.
"""

from __future__ import annotations

import argparse
import json
import sys
from enum import Enum
from fractions import Fraction

import numpy as np

from .admissibility import (check_admissibility, classify_admissible,
                            construct_admissible_family,
                            proportional_pair_space, single_vertex_space)
from .applications import conic_probe_graphs, edge_conic_space, skew_matrix_space
from .errors import BadSupportError, ParseError, RigidLabError
from .linalg import is_exact, over, tolerance, zeros
from .motions import MotionSpace, PointConfiguration
from .rigidity import (Framework, Graph, analyze, henneberg_extend,
                       implied_pairs, is_generically_rigid, is_implied_edge)
from .sampling import random_config, random_general_config, subrng
from .verify import CHECK_NAMES, run_battery

EXIT_TABLE = """\
exit codes:
  0  success, or the reported property holds
  1  the reported property is false
  2  usage error (flags, sizes, extension support, unwritable -o)
  3  an input file or builtin token failed to parse
  4  the input is degenerate for the requested computation
"""


def _json_default(value):
    """The values json does not encode itself: a Fraction as "a/b", an
    Enum as its value, a set sorted, a numpy array or scalar as Python's."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _text(value) -> str:
    """One value as text: true/false, a list space-separated."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _printed(basis, last: bool = False) -> list:
    """Basis rows as printed: an exact row over the entry its Fraction form
    holds as 1, its first nonzero (RREF row) or last (kernel row)."""
    return [over(row, row[row.nonzero()[0][-1 if last else 0]]) if is_exact(row) else row
            for row in basis]


def _record(label: str, fields: dict, *keys: str):
    """A record whose text lines are `key: value` for the given keys."""
    return label, fields, [f"{key}: {_text(fields[key])}" for key in keys]


def _load_object(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply") from exc
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    return data


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


# At n = 3 and V = 200, rigidity_matrix builds a dense 600 x 600 matrix of
# unit motions, and implied strains them on up to V(V-1)/2 = 19,900 pairs.
# -n/--dim is held to the same size: n V at most 3 * _MAX_VERTICES.
_MAX_VERTICES = 200
# check_admissibility holds the mismatch maps of all its pin samples at
# once, about 2 KB each: --samples 100000 on example1 peaks near 230 MB.
_MAX_SAMPLES = 100_000


def _is_index(value) -> bool:
    """A JSON integer below 2**63 in size, numpy's limit for a count or index."""
    return type(value) is int and abs(value) < 2 ** 63


def load_graph(path: str) -> Graph:
    data = _load_object(path)
    vertices = data.get("vertices")
    _expect(type(vertices) is int and 1 <= vertices <= _MAX_VERTICES,
            f"{path}: field 'vertices' must be an integer from 1 to {_MAX_VERTICES}")
    edges = data.get("edges")
    _expect(isinstance(edges, list), f"{path}: field 'edges' must be a list")
    for pos, pair in enumerate(edges):
        _expect(isinstance(pair, list) and len(pair) == 2
                and all(_is_index(v) for v in pair),
                f"{path}: edges[{pos}] must be a pair of int64 integers")
    try:
        return Graph.from_edges(vertices, [tuple(e) for e in edges])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _store_scalar(mat, index, value, where: str) -> None:
    """Store value at mat[index] as a Fraction; a float matrix rounds it."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ParseError(f"{where}: expected a number or 'a/b' string")
    try:
        mat[index] = Fraction(repr(value) if isinstance(value, float) else value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: {value!r} is not a finite rational") from exc
    except OverflowError as exc:
        raise ParseError(f"{where}: magnitude beyond the float64 range") from exc


def load_config(path: str, exact: bool) -> PointConfiguration:
    data = _load_object(path)
    dim = data.get("dim")
    _expect(_is_index(dim) and dim >= 1, f"{path}: field 'dim' must be a positive int64 integer")
    points = data.get("points")
    _expect(isinstance(points, list) and points, f"{path}: field 'points' must be a non-empty list")
    for j, row in enumerate(points):
        _expect(isinstance(row, list) and len(row) == dim,
                f"{path}: points[{j}] must be a list of {dim} coordinates")
    mat = zeros((dim, len(points)), exact)
    for j, row in enumerate(points):
        for i, value in enumerate(row):
            _store_scalar(mat, (i, j), value, f"{path}: points[{j}][{i}]")
    return PointConfiguration(mat)


def load_subspace(path: str, p: PointConfiguration) -> MotionSpace:
    data = _load_object(path)
    basis = data.get("basis")
    _expect(isinstance(basis, list) and basis, f"{path}: field 'basis' must be a non-empty list")
    motions = []
    for b, rows in enumerate(basis):
        _expect(isinstance(rows, list) and len(rows) == p.dim,
                f"{path}: basis[{b}] must have {p.dim} rows")
        u = zeros((p.dim, p.count), p.exact)
        for i, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == p.count,
                    f"{path}: basis[{b}][{i}] must have {p.count} entries")
            for j, value in enumerate(row):
                _store_scalar(u, (i, j), value, f"{path}: basis[{b}][{i}][{j}]")
        motions.append(u)
    return MotionSpace.from_motions(p, motions)


def write_graph(path: str, g: Graph) -> None:
    payload = {"vertices": g.vertex_count, "edges": g.sorted_edges()}
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from exc


def builtin_space(token: str, p: PointConfiguration, seed: int):
    """Builtin subspace tokens: example1, example2:K, constructed:SEED."""
    if token == "example1":
        return single_vertex_space(p)
    if token.startswith("example2:"):
        text = token.split(":", 1)[1]
        try:
            ratio = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"builtin {token!r}: bad ratio {text!r}") from exc
        if not p.exact:
            try:
                float(ratio)
            except OverflowError as exc:
                raise ParseError(f"builtin {token!r}: ratio magnitude beyond "
                                 "the float64 range") from exc
        return proportional_pair_space(p, ratio)
    if token.startswith("constructed:"):
        text = token.split(":", 1)[1]
        try:
            family_seed = int(text)
        except ValueError as exc:
            raise ParseError(f"builtin {token!r}: bad seed {text!r}") from exc
        return construct_admissible_family(p, trials=1, seed=family_seed)[0]
    raise ParseError(f"unknown builtin subspace {token!r}; use example1, "
                     "example2:K, or constructed:SEED")


def _load_graph(args) -> Graph:
    """args.graph, refused before any draw if -n/--dim is too large for it."""
    g = load_graph(args.graph)
    if args.dim * g.vertex_count > 3 * _MAX_VERTICES:
        raise ValueError(f"-n/--dim {args.dim} on {g.vertex_count} vertices is over "
                         f"{3 * _MAX_VERTICES} coordinates")
    return g


def _config(args, draw) -> PointConfiguration:
    """The configuration file args.config when one is given, an empty path
    included, else the command's seeded draw(exact)."""
    exact = args.backend == "exact"
    if args.config is not None:
        return load_config(args.config, exact)
    return draw(exact)


def _five_points(args, tag: str) -> PointConfiguration:
    """args.config, or five seeded points in general position in R^3."""
    return _config(args, lambda exact: random_general_config(
        3, 5, args.seed, tag, exact=exact, bound=1000))


def cmd_analyze(args):
    g = _load_graph(args)
    p = _config(args, lambda exact: random_config(
        args.dim, g.vertex_count, subrng(args.seed, "cli-analyze", 0), exact=exact))
    report = analyze(Framework(g, p))
    fields = dict(vertices=g.vertex_count, edges=g.edge_count, dim=p.dim,
                  flex_dim=report.flex_dim, trivial_dim=report.trivial_dim,
                  rigid=report.is_rigid, isostatic=report.is_isostatic)
    return (0 if report.is_rigid else 1), [_record(
        "analysis", fields, "vertices", "edges", "flex_dim", "trivial_dim",
        "rigid", "isostatic")]


def _parse_edge_token(token: str) -> tuple[int, int]:
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(f"edge {token!r} must look like 'i,j'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"edge {token!r} must contain integers") from exc


def cmd_henneberg(args):
    g = _load_graph(args)
    removed = [_parse_edge_token(t) for t in args.remove]
    extension = henneberg_extend(g, args.support, removed, args.dim)
    rigid = is_generically_rigid(extension, args.dim, args.seed)
    lines = [f"vertices: {extension.vertex_count}", f"edges: {extension.edge_count}"]
    if args.output:
        write_graph(args.output, extension)
        lines.append(f"wrote: {args.output}")
    lines.append(f"rigid: {_text(rigid)}")
    fields = dict(vertices=extension.vertex_count, edges=extension.sorted_edges(),
                  output=args.output, rigid=rigid)
    return (0 if rigid else 1), [("extension", fields, lines)]


def cmd_admissible(args):
    p = _five_points(args, "cli-admissible")
    if args.subspace is not None:
        space = load_subspace(args.subspace, p)
    else:
        space = builtin_space(args.builtin, p, args.seed)
    report = check_admissibility(p, space, samples=args.samples or 20, seed=args.seed)
    fields = dict(candidate_dim=report.candidate_dim,
                  intersects_trivial=report.intersects_trivial,
                  samples_tested=report.samples_tested,
                  sample_ranks=report.sample_ranks,
                  max_mismatch_rank=report.max_mismatch_rank,
                  failures=len(report.witness_failures),
                  admissible=report.admissible)
    records = [_record("admissibility", fields, "candidate_dim",
                       "intersects_trivial", "samples_tested", "sample_ranks",
                       "max_mismatch_rank", "admissible")]
    if report.admissible and space.dim == 2:
        cls = classify_admissible(p, space)
        plane = None if cls.plane is None else _printed(cls.plane.basis)
        lines = [f"classification: {cls.kind.value}"]
        if cls.weights is not None:
            lines.append(f"weights: {_text(cls.weights)}")
        records.append(("classification", dict(kind=cls.kind, plane=plane,
                        weights=cls.weights, details=cls.details), lines))
    return (0 if report.admissible else 1), records


def cmd_implied(args):
    g = _load_graph(args)
    if args.pair:
        i, j = args.pair
        implied = is_implied_edge(g, i, j, args.dim, args.seed)
        lo, hi = min(i, j), max(i, j)
        return (0 if implied else 1), [(
            "implied", dict(pair=(lo, hi), implied=implied),
            [f"pair: {lo},{hi}", f"implied: {_text(implied)}"])]
    vertices = range(1, g.vertex_count + 1)
    candidates = [(i, j) for i in vertices for j in vertices
                  if i < j and not g.has_edge(i, j)]
    found = sorted(implied_pairs(g, candidates, args.dim, args.seed))
    lines = [f"implied_nonedges: {len(found)}"] + [f"  {i},{j}" for i, j in found]
    return 0, [("implied", dict(pairs=found), lines)]


def cmd_conic(args):
    p = _five_points(args, "cli-conic")
    if p.dim != 3:
        raise ValueError(f"conic needs a configuration in R^3, got dim {p.dim}")
    edges = (conic_probe_graphs()[args.probe] if args.probe
             else load_graph(args.edge_file).sorted_edges())
    space = edge_conic_space(p, edges)
    skew = space.equals(skew_matrix_space(3, p.exact))
    basis = [vec.reshape(3, 3) for vec in _printed(space.basis, last=True)]
    fields = dict(dim=space.dim, skew_space=skew, basis=basis)
    return (0 if skew else 1), [_record("conic", fields, "dim", "skew_space")]


def cmd_verify(args):
    names = tuple(args.checks) if args.checks else CHECK_NAMES
    results = run_battery(args.seed, args.samples, names)
    total = len(results)
    failed = sum(not res.passed for res in results)
    records = [("check", dict(index=index, **res.record()),
                [f"[{index:2d}/{total}] {res.name:<28s} "
                 f"{'pass' if res.passed else 'FAIL'}  "
                 f"({res.seconds:6.2f}s)  {res.details}"])
               for index, res in enumerate(results, start=1)]
    records.append(("summary", dict(total=total, failed=failed, passed=total - failed),
                    [f"passed {total - failed}/{total}"]))
    return (0 if failed == 0 else 1), records


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the options it reads; the rest keep the
    # parser-level defaults, which the manifest records.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized sampling (default 0)")
    common.add_argument("--format", dest="fmt", choices=("text", "jsonl"),
                        default="text", help="output format (default text)")
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--samples", type=int, default=None,
                         help="override per-operation sample counts")
    backend = argparse.ArgumentParser(add_help=False)
    backend.add_argument("--backend", choices=("exact", "float"), default="exact",
                         help="arithmetic backend (default exact)")
    backend.add_argument("--tol", type=float, default=None,
                         help="float-backend zero and rank tolerance, in (0, 1)")

    parser = argparse.ArgumentParser(
        prog="rigidlab",
        description="Infinitesimal rigidity and admissible motion subspaces.",
        epilog=EXIT_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(samples=None, backend="exact", tol=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser(
        "analyze", parents=[common, backend],
        help="flex dimension and rigidity of a graph (exit 0 iff rigid)")
    p_an.add_argument("graph", help="graph JSON file")
    p_an.add_argument("config", nargs="?", default=None,
                      help="configuration JSON file (default: seeded random)")
    p_an.add_argument("-n", "--dim", type=int, default=3,
                      help="ambient dimension for the random configuration")
    p_an.set_defaults(func=cmd_analyze)

    p_he = sub.add_parser(
        "henneberg", parents=[common],
        help="extend by a new vertex and report generic rigidity (exit 0 iff rigid)")
    p_he.add_argument("graph", help="graph JSON file")
    p_he.add_argument("-x", "--support", type=int, nargs="+", required=True,
                      help="support vertices of the new cone vertex")
    p_he.add_argument("-f", "--remove", nargs="*", default=[],
                      help="edges to delete inside the support, each as 'i,j'")
    p_he.add_argument("-n", "--dim", type=int, default=3,
                      help="ambient dimension (default 3)")
    p_he.add_argument("-o", "--output", default=None,
                      help="write the extended graph to this JSON file")
    p_he.set_defaults(func=cmd_henneberg)

    p_ad = sub.add_parser(
        "admissible", parents=[common, sampled, backend],
        help="sampled admissibility of a motion subspace (exit 0 iff admissible)")
    p_ad.add_argument("config", nargs="?", default=None,
                      help="3x5 configuration JSON file (default: seeded random)")
    group = p_ad.add_mutually_exclusive_group(required=True)
    group.add_argument("--subspace", help="subspace JSON file")
    group.add_argument("--builtin",
                       help="example1 | example2:K | constructed:SEED")
    p_ad.set_defaults(func=cmd_admissible)

    p_im = sub.add_parser(
        "implied", parents=[common],
        help="implied vertex pairs of a graph (with --pair: exit 0 iff implied)")
    p_im.add_argument("graph", help="graph JSON file")
    p_im.add_argument("--pair", type=int, nargs=2, metavar=("I", "J"),
                      help="test one vertex pair instead of listing all")
    p_im.add_argument("-n", "--dim", type=int, default=3,
                      help="ambient dimension (default 3)")
    p_im.set_defaults(func=cmd_implied)

    p_co = sub.add_parser(
        "conic", parents=[common, backend],
        help="edge-direction conic space (exit 0 iff exactly the skew space)")
    p_co.add_argument("config", nargs="?", default=None,
                      help="3x5 configuration JSON file (default: seeded random)")
    group = p_co.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", dest="edge_file",
                       help="graph JSON file supplying the edges")
    group.add_argument("--probe", choices=sorted(conic_probe_graphs()),
                       help="one of the builtin six-edge graphs")
    p_co.set_defaults(func=cmd_conic)

    p_ve = sub.add_parser(
        "verify", parents=[common, sampled],
        help="run the verification battery (exit 0 iff all checks pass)")
    p_ve.add_argument("--checks", nargs="+", choices=CHECK_NAMES, default=None,
                      help="run only the named checks")
    p_ve.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.samples is not None and args.samples < 1:
        parser.error("--samples must be a positive integer")
    if args.samples is not None and args.samples > _MAX_SAMPLES:
        parser.error(f"--samples must be at most {_MAX_SAMPLES}")
    if getattr(args, "dim", 1) < 1:
        parser.error("-n/--dim must be a positive integer")
    if args.tol is not None and not 0 < args.tol < 1:
        parser.error("--tol must be a number in (0, 1)")
    try:
        # A float64 overflow is reported once, by linalg._finite, not by
        # numpy; --tol holds for every float decision of the command.
        with np.errstate(over="ignore", invalid="ignore"), tolerance(args.tol):
            code, records = args.func(args)
    except ParseError as exc:
        print(f"rigidlab: parse error: {exc}", file=sys.stderr)
        return 3
    except RigidLabError as exc:
        print(f"rigidlab: degenerate input: {exc}", file=sys.stderr)
        return 4
    except (BadSupportError, ValueError) as exc:
        print(f"rigidlab: usage error: {exc}", file=sys.stderr)
        return 2
    inputs = [getattr(args, key) for key in
              ("graph", "config", "subspace", "builtin", "probe", "edge_file")
              if getattr(args, key, None)]
    manifest = dict(command=args.command, inputs=inputs, seed=args.seed,
                    samples=args.samples, backend=args.backend, tolerance=args.tol)
    for label, fields, lines in [("manifest", manifest, []), *records]:
        if args.fmt == "jsonl":
            print(json.dumps({"record": label, **fields}, sort_keys=True,
                             default=_json_default))
        else:
            for line in lines:
                print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
