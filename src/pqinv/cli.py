"""Command-line interface.

Matrix files are minimal JSON documents::

    {"rows": 2, "cols": 2, "data": [[re, im], [re, im], ...]}

with ``data`` row-major and one [real, imaginary] pair per entry.  All
reports are emitted as JSON with sorted keys so runs diff cleanly; each
echoes the tolerances it ran with as ``Tolerances.to_json_dict``.
A matrix's JSON text has one home, :func:`_json_chunks`: it lays out
matrix files and the ``matrix`` of a ``compute`` report byte for byte as
``json.dumps(sort_keys=True)`` (``indent=2`` in the report) would, without
building the nested pair lists that encoder walks in Python.  The text is
formatted and written in blocks of _BLOCK entries, each block going to the
file or to stdout before the next is formatted, so the writer's memory
beyond the matrix itself does not grow with n; :func:`matrix_json` joins
the blocks and still returns the whole text.

:func:`read_matrix` reads a file's bytes once.  A file in the layout the
writer gives it is parsed by :func:`_file_layout_matrix` in blocks of about
_READ_BLOCK bytes, each one ``json.loads`` of a flat list of numbers, so
the reader holds the bytes, the matrix and one block; any other text, and
any file that parser refuses, goes whole through ``json.loads``, which
gives every message.

Exit codes: 0 success, 1 verification-suite failures, 2 parse/validation
error (shape errors included), 3 proven nonexistence, 4 numerical
failure, 5 spectral precondition violated (represent only).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .densela import DEFAULT_TOL, Tolerances, frob
from .errors import NonexistentInverseError, NumericalError, SpectrumError
from .ginv import drazin_inverse, group_inverse, moore_penrose
from .prescribed import (
    DEFAULT_LAMBDA_SCHEDULE,
    PqProblem,
    diagnose,
    one_two_inverse,
    one_two_inverse_strict,
    outer_inverse,
    outer_inverse_strict,
    represent,
)
from .verify import fuzz, run_counterexample_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_VALIDATION = 2
EXIT_NONEXISTENT = 3
EXIT_NUMERICAL = 4
EXIT_SPECTRUM = 5

RANK_RTOL_ENV = "PQINV_TOL_RANK"


# json.dumps writes the non-finite floats this way; repr writes nan, inf, -inf
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# the entries whose floats are formatted together: a chunk of a matrix's
# JSON text holds at most this many [re, im] pairs
_BLOCK = 2048

# the bytes of a matrix file's data are parsed in blocks of about this many,
# each cut at an entry boundary
_READ_BLOCK = 1 << 16

# the frame of a matrix file in the layout write_matrix writes, around its data
_FILE_HEAD = re.compile(rb'\{"cols": ([1-9][0-9]{0,17}), "data": \[')
_FILE_TAIL = re.compile(rb'\], "rows": ([1-9][0-9]{0,17})\}\n?')

# what a number of that data may be written with, and the spaces around it
_NUMBER_BYTES = b"0123456789.eE+- "


def _float_texts(m: np.ndarray) -> Iterator[tuple[str, ...]]:
    """The JSON texts of ``m``'s floats, re then im of each entry in row-major
    order, _BLOCK entries at a time; each float is formatted once."""
    for start in range(0, m.size, _BLOCK):
        # a flat slice copies its own entries only, whatever m's memory layout
        part = np.asarray(m.flat[start:start + _BLOCK], dtype=np.complex128).view(np.float64)
        texts = tuple(map(float.__repr__, part.tolist()))
        if not np.isfinite(part).all():
            texts = tuple(_JSON_NON_FINITE.get(text, text) for text in texts)
        yield texts


def _layout(rows: int, cols: int, indent: str | None) -> tuple[str, str, str, str]:
    """(head, pair, separator, tail): the matrix object as :func:`matrix_json`
    lays it out is head, then pair % (re, im) for each entry with separator
    between entries, then tail."""
    if indent is None:
        return f'{{"cols": {cols}, "data": [', "[%s, %s]", ", ", f'], "rows": {rows}}}'
    inner = indent + "  "
    head = f'{{\n{inner}"cols": {cols},\n{inner}"data": ['
    tail = f'],\n{inner}"rows": {rows}\n{indent}}}'
    if rows * cols:  # an empty data list stays [] on one line
        head, tail = head + "\n", f"\n{inner}{tail}"
    return head, f"{inner}  [\n{inner}    %s,\n{inner}    %s\n{inner}  ]", ",\n", tail


def _json_chunks(m: np.ndarray, *indents: str | None) -> Iterator[tuple[str, ...]]:
    """The JSON text of ``m`` in the layout of :func:`matrix_json` for each of
    ``indents``, in chunks: each item holds one chunk per layout, and one
    layout's chunks joined are its whole text.  A chunk holds at most _BLOCK
    entries, and the layouts share one formatting of the floats.  ``m`` must
    be 2-D and convertible to complex, both checked before the first chunk
    is taken, so no input fails once a file is opened: a matrix of bools or
    numbers converts block by block, any other (strings, objects) whole."""
    m = np.asarray(m)
    if m.dtype.kind not in "biufc":
        m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    layouts = [_layout(rows, cols, indent) for indent in indents]

    def data():
        for i, texts in enumerate(_float_texts(m)):
            entries = len(texts) // 2
            yield tuple((sep if i else "") + sep.join([pair] * entries) % texts
                        for _, pair, sep, _ in layouts)

    return chain([tuple(head for head, *_ in layouts)], data(),
                 [tuple(tail for *_, tail in layouts)])


def matrix_json(m: np.ndarray, indent: str | None = None) -> str:
    """The JSON text of ``m`` as a ``{"cols", "data", "rows"}`` object.

    Byte for byte what ``json.dumps`` writes for the object with
    ``sort_keys=True``: compact when ``indent`` is None, else with
    ``indent=2`` for an object that opens on a line indented by ``indent``.
    ``data`` holds one [re, im] pair per entry, row-major, each float in
    its ``repr`` form: the inverse of matrix_from_file_dict's
    pairs.view(np.complex128).  The text is built in the chunks that
    matrix files and reports are written in, and returned whole.
    """
    return "".join(chunk for chunk, in _json_chunks(m, indent))


def matrix_from_file_dict(doc: dict, name: str) -> np.ndarray:
    try:
        rows, cols, data = doc["rows"], doc["cols"], doc["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{name}: malformed matrix file ({exc})") from exc
    if not all(type(k) is int for k in (rows, cols)):  # a JSON integer, not a bool
        raise ValueError(f"{name}: rows and cols must be integers, got {rows!r} and {cols!r}")
    if rows < 1 or cols < 1:
        raise ValueError(f"{name}: rows and cols must be positive, got {rows}x{cols}")
    if not isinstance(data, list):
        raise ValueError(f"{name}: data must be a list of [re, im] pairs")
    if len(data) != rows * cols:
        raise ValueError(
            f"{name}: data length {len(data)} does not match rows*cols = {rows * cols}"
        )
    # JSON numbers only: numpy would also read strings such as "2" and bools
    if (not set(map(type, data)) <= {list} or not set(map(len, data)) <= {2}
            or not set(map(type, chain.from_iterable(data))) <= {int, float}):
        raise ValueError(f"{name}: each entry must be a [re, im] pair of JSON numbers")
    try:
        pairs = np.fromiter(chain.from_iterable(data), np.float64, count=2 * rows * cols)
    except OverflowError as exc:
        raise ValueError(f"{name}: entry out of the float64 range ({exc})") from exc
    pairs = pairs.reshape(rows * cols, 2)
    bad = ~np.isfinite(pairs).all(axis=1)
    if bad.any():
        re, im = pairs[np.argmax(bad)]
        raise ValueError(f"{name}: non-finite entry [{float(re)}, {float(im)}]")
    # one complex128 is a (re, im) float64 pair in memory: bit-exact, signed zeros kept
    return pairs.view(np.complex128).reshape(rows, cols)


def _file_layout_matrix(raw: bytes) -> np.ndarray | None:
    """The matrix in the bytes ``raw`` of a matrix file in the layout
    :func:`write_matrix` writes, parsed block by block; None for any other
    text, and for any entry that the JSON path of :func:`read_matrix`
    would refuse or that it reads otherwise.

    The data is cut at its "], [" entry separators into blocks of about
    _READ_BLOCK bytes.  Once a block's numbers and spaces are deleted,
    what is left must be "[,]" for each entry, joined by ",", with each
    joint written "], [": so every number lies inside a pair, and deleting
    the brackets joins no two numbers.  The bracket-free block is then one
    flat JSON list, which json.loads reads with the same number grammar
    and rounding as it reads the whole file, and np.array converts into
    one array of the rows·cols [re, im] pairs.  That array is allocated
    only once the header's rows·cols fits the data's length.
    """
    head = _FILE_HEAD.match(raw)
    end = raw.rfind(b'], "rows": ')
    tail = _FILE_TAIL.fullmatch(raw, end) if head and end > head.end() else None
    if tail is None or not raw.startswith(b"[", head.end()) or not raw.endswith(b"]", 0, end):
        return None
    start, rows, cols = head.end(), int(tail[1]), int(head[1])
    if 7 * rows * cols - 2 > end - start:  # an entry takes at least the bytes of "[0,0], "
        return None
    pairs = np.empty(2 * rows * cols)
    filled = 0
    try:
        while start < end:
            cut = raw.find(b"], [", start + _READ_BLOCK, end)
            stop = end if cut < 0 else cut + 1
            block = raw[start:stop]
            entries = block.count(b"], [") + 1
            if block.translate(None, _NUMBER_BYTES) != b"[,]" + b",[,]" * (entries - 1):
                return None
            values = np.array(json.loads(b"[%s]" % block.translate(None, b"[]")), np.float64)
            if filled + values.size > pairs.size:
                return None
            pairs[filled:filled + values.size] = values
            filled += values.size
            start = stop + 2
    except (ValueError, OverflowError):  # not JSON numbers, or an integer beyond float64
        return None
    if filled < pairs.size or not np.isfinite(pairs).all():
        return None
    return pairs.view(np.complex128).reshape(rows, cols)


def read_matrix(path: str) -> np.ndarray:
    """The matrix in the file at ``path``; a ValueError that names the path
    when the file cannot be read, decoded or parsed.

    The file's bytes are read once.  A file in the layout
    :func:`write_matrix` writes is parsed block by block by
    :func:`_file_layout_matrix`, so the reader holds the bytes, the matrix
    and one block.  Any other text, and any file that parser refuses, is
    decoded as UTF-8 and handed whole to ``json.loads`` and
    :func:`matrix_from_file_dict`, which give every message.  The block
    parser builds one flat list per block and leaves the cyclic garbage
    collector as it is; the collector is paused only while the whole-text
    ``json.loads`` builds the rows·cols [re, im] lists, which form no
    reference cycle, and its previous state is restored afterwards.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc})") from exc
    matrix = _file_layout_matrix(raw)
    if matrix is not None:
        return matrix
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # decoded as Path.read_text decodes, with universal newlines
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
        del raw  # the parse holds the text only
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    except (ValueError, RecursionError) as exc:  # also nesting too deep, an integer too long
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    finally:
        if gc_was_enabled:
            gc.enable()
    return matrix_from_file_dict(doc, path)


def _write_file(path: str, chunks: Iterable[str]):
    """A matrix file at ``path``: the ``chunks`` of its compact object, then a newline."""
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.writelines(chunks)
            file.write("\n")
    except OSError as exc:
        raise ValueError(f"{path}: cannot write ({exc})") from exc


def write_matrix(path: str, m: np.ndarray):
    _write_file(path, (chunk for chunk, in _json_chunks(m, None)))


def _emit(doc: dict, matrix: Iterable[str] | None = None):
    """Print ``doc`` as ``json.dumps(sort_keys=True, indent=2)`` would, with
    the chunks of ``matrix``, a matrix object indented for the key, written
    in turn under the key "matrix" when given."""
    if matrix is None:
        print(json.dumps(doc, sort_keys=True, indent=2))
        return
    text = json.dumps({**doc, "matrix": None}, sort_keys=True, indent=2)
    # a JSON string holds no raw newline, so this is the top-level key
    head, tail = text.split('\n  "matrix": null', 1)
    sys.stdout.write(f'{head}\n  "matrix": ')
    sys.stdout.writelines(matrix)
    sys.stdout.write(f"{tail}\n")


def _tolerances_from_args(args) -> Tolerances:
    """A flag wins, then the env var (rank_rtol only), then the default."""
    given = {f.name: getattr(args, f.name) for f in fields(Tolerances)}
    env = os.environ.get(RANK_RTOL_ENV)
    if given["rank_rtol"] is None and env:
        try:
            given["rank_rtol"] = replace(DEFAULT_TOL, rank_rtol=float(env)).rank_rtol
        except ValueError as exc:
            raise ValueError(f"{RANK_RTOL_ENV}={env!r}: {exc}") from None
    return replace(DEFAULT_TOL, **{k: v for k, v in given.items() if v is not None})


def _add_tol_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--rank-rtol", type=float, default=None,
                        help=f"numerical-rank cutoff (default {DEFAULT_TOL.rank_rtol}; "
                             f"env {RANK_RTOL_ENV} applies when the flag is absent)")
    parser.add_argument("--eq-atol", type=float, default=None,
                        help=f"absolute equality tolerance (default {DEFAULT_TOL.eq_atol})")
    parser.add_argument("--eq-rtol", type=float, default=None,
                        help=f"relative equality tolerance (default {DEFAULT_TOL.eq_rtol})")
    parser.add_argument("--conv-tol", type=float, default=None,
                        help=f"convergence tolerance (default {DEFAULT_TOL.conv_tol})")


def _load_problem(args, tol: Tolerances) -> PqProblem:
    if not args.p_file or not args.q_file:
        raise ValueError("this operation needs p and q matrix files")
    a = read_matrix(args.a_file)
    p = read_matrix(args.p_file)
    q = read_matrix(args.q_file)
    return PqProblem(a, p, q, tol)


def _cmd_check(args, tol: Tolerances) -> int:
    _emit(diagnose(_load_problem(args, tol)).to_json_dict())
    return EXIT_OK


def _pq_compute(kind: str):
    """The (p,q) compute function of ``kind``, or None for a classical kind.

    Looked up per call, so that wrappers installed on this module see it.
    """
    return {
        "2l": outer_inverse,
        "2": outer_inverse_strict,
        "12l": one_two_inverse,
        "12": one_two_inverse_strict,
    }.get(kind)


def _cmd_compute(args, tol: Tolerances) -> int:
    doc: dict = {"kind": args.kind, "tolerances": tol.to_json_dict()}
    compute = _pq_compute(args.kind)
    if compute is not None:
        prob = _load_problem(args, tol)
        result = compute(prob, route=args.route)
        matrix = result.b
        doc["route"] = result.route
        doc["residuals"] = {k: float(v) for k, v in sorted(result.residuals.items())}
    else:
        a = read_matrix(args.a_file)
        doc["route"] = "direct"
        if args.kind == "mp":
            matrix = moore_penrose(a, tol)
            doc["residuals"] = {
                "penrose_1": frob(a @ matrix @ a - a),
                "penrose_2": frob(matrix @ a @ matrix - matrix),
            }
        elif args.kind == "group":
            matrix = group_inverse(a, tol)
            if matrix is None:
                raise NonexistentInverseError("no group inverse: rank(a²) < rank(a)")
            doc["residuals"] = {
                "inner": frob(a @ matrix @ a - a),
                "outer": frob(matrix @ a @ matrix - matrix),
                "commute": frob(a @ matrix - matrix @ a),
            }
        else:  # drazin; argparse restricts the choices
            dz = drazin_inverse(a, tol)
            matrix = dz.inverse
            doc["index"] = dz.index
            doc["residuals"] = {
                "outer": frob(matrix @ a @ matrix - matrix),
                "commute": frob(a @ matrix - matrix @ a),
            }

    if not args.out:
        _emit(doc, (chunk for chunk, in _json_chunks(matrix, "  ")))
        return EXIT_OK
    # one formatting of the floats for both layouts; the report's chunks are
    # kept while the file is written and printed once it is closed
    report: list[str] = []

    def file_chunks():
        for chunk, report_chunk in _json_chunks(matrix, None, "  "):
            report.append(report_chunk)
            yield chunk

    _write_file(args.out, file_chunks())
    doc["out"] = args.out
    _emit(doc, report)
    return EXIT_OK


def _cmd_represent(args, tol: Tolerances) -> int:
    final, trace = represent(_load_problem(args, tol), args.method, args.lambda_min, args.horizon)
    header = "lambda,cauchy_error" if args.method == "limit" else "horizon,cauchy_error,tail_bound"
    rows = [header, *(",".join(map(repr, row)) for row in trace)]
    rows.append("# tolerances: " + " ".join(
        f"{name}={value!r}" for name, value in tol.to_json_dict().items()
    ))
    print("\n".join(rows))
    if args.out:
        write_matrix(args.out, final)
    return EXIT_OK


def _cmd_suite(args, tol: Tolerances) -> int:
    """``verify`` or ``fuzz``: the suite's report, and exit 1 on a failed case."""
    if args.command == "verify":
        report = run_counterexample_suite(tol)
    else:
        report = fuzz(args.seed, args.trials, args.dim, tol)
    _emit(report.to_json_dict())
    return EXIT_OK if report.ok else EXIT_SUITE_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqinv",
        description="Generalized inverses with prescribed idempotents.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check = subparsers.add_parser("check", help="existence diagnostics as JSON")
    check.add_argument("a_file")
    check.add_argument("p_file")
    check.add_argument("q_file")
    _add_tol_flags(check)
    check.set_defaults(fn=_cmd_check)

    compute = subparsers.add_parser("compute", help="compute an inverse")
    compute.add_argument("a_file")
    compute.add_argument("p_file", nargs="?", default=None)
    compute.add_argument("q_file", nargs="?", default=None)
    compute.add_argument("--kind", required=True,
                         choices=["2l", "2", "12l", "12", "group", "drazin", "mp"])
    compute.add_argument("--route", default="group",
                         choices=["group", "inner", "limit", "integral"])
    compute.add_argument("--out", default=None, help="write the result matrix file here")
    _add_tol_flags(compute)
    compute.set_defaults(fn=_cmd_compute)

    represent_cmd = subparsers.add_parser(
        "represent", help="convergence trace of the limit or integral representation"
    )
    represent_cmd.add_argument("a_file")
    represent_cmd.add_argument("p_file")
    represent_cmd.add_argument("q_file")
    represent_cmd.add_argument("--method", required=True, choices=["limit", "integral"])
    represent_cmd.add_argument("--lambda-min", type=float,
                               default=DEFAULT_LAMBDA_SCHEDULE[-1])
    represent_cmd.add_argument("--horizon", type=float, default=None)
    represent_cmd.add_argument("--out", default=None, help="write the final matrix file here")
    _add_tol_flags(represent_cmd)
    represent_cmd.set_defaults(fn=_cmd_represent)

    verify_cmd = subparsers.add_parser(
        "verify", help="run the built-in counterexample suite"
    )
    _add_tol_flags(verify_cmd)
    verify_cmd.set_defaults(fn=_cmd_suite)

    fuzz_cmd = subparsers.add_parser("fuzz", help="run the randomized invariant suite")
    fuzz_cmd.add_argument("--seed", type=int, default=42)
    fuzz_cmd.add_argument("--trials", type=int, default=100)
    fuzz_cmd.add_argument("--dim", type=int, default=8)
    _add_tol_flags(fuzz_cmd)
    fuzz_cmd.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spectral_exit = EXIT_SPECTRUM if args.command == "represent" else EXIT_NUMERICAL
    try:
        return args.fn(args, _tolerances_from_args(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonexistentInverseError as exc:
        print(f"nonexistent: {exc.reason}", file=sys.stderr)
        return EXIT_NONEXISTENT
    except SpectrumError as exc:
        print(f"spectral precondition: {exc}", file=sys.stderr)
        return spectral_exit
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
