import gc
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from pqinv import cli, prescribed, verify
from pqinv.cli import main, matrix_json, read_matrix, write_matrix
from pqinv.densela import Tolerances
from pqinv.verify import diagonalizable_instance, random_triple

A22 = np.array([[0, 0], [1, 0]], dtype=complex)
P22 = np.array([[1, 1], [0, 0]], dtype=complex)
Q22 = np.eye(2) - np.array([[0, 1], [0, 1]], dtype=complex)
B22 = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture
def counterexample_files(tmp_path):
    paths = {}
    for name, m in (("a", A22), ("p", P22), ("q", Q22)):
        path = tmp_path / f"{name}.json"
        write_matrix(str(path), m)
        paths[name] = str(path)
    return paths


def _write(tmp_path, name, m):
    path = tmp_path / f"{name}.json"
    write_matrix(str(path), m)
    return str(path)


@pytest.fixture
def core8_files(tmp_path):
    """a = diag(1, 2, 0.5, 1.5, 0, 0, 0, 0), p = diag(1, 1, 1, 1, 0, 0, 0, 0), q = 1 - p."""
    p = np.diag([1.0] * 4 + [0.0] * 4)
    return [_write(tmp_path, "a", np.diag([1.0, 2.0, 0.5, 1.5, 0.0, 0.0, 0.0, 0.0])),
            _write(tmp_path, "p", p), _write(tmp_path, "q", np.eye(8) - p)]


@pytest.fixture
def zero_p_files(tmp_path):
    """a = [[1, 2], [3, 4]], p = 0, q = 1: Ran(p) = {0}, so w = 0 and b = 0."""
    return [_write(tmp_path, "a", np.array([[1, 2], [3, 4]], dtype=complex)),
            _write(tmp_path, "p", np.zeros((2, 2))), _write(tmp_path, "q", np.eye(2))]


class TestMatrixFiles:
    def test_round_trip_is_bit_identical(self, tmp_path, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        write_matrix(str(first), m)
        write_matrix(str(second), read_matrix(str(first)))
        assert first.read_text() == second.read_text()

    def test_malformed_data_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]]}))
        with pytest.raises(ValueError, match="data length"):
            read_matrix(str(path))

    def test_non_finite_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[1e999, 0]]}))
        with pytest.raises(ValueError, match="non-finite"):
            read_matrix(str(path))

    @pytest.mark.parametrize("data", [
        "[[null, 0]]",
        "[[[1, 2], 0]]",
        "[[1" + "0" * 400 + ", 0]]",
        "5",
        "null",
        "[[1, 2, 3]]",
        '[["2", 1]]',
        "[[true, 0]]",
        "[[0, false]]",
        "[" * 5000,
        "[[1" + "0" * 4400 + ", 0]]",
    ], ids=["null_entry", "nested_entry", "int_beyond_float", "scalar_data", "null_data",
            "triple_entry", "string_part", "bool_part", "bool_imag_part", "nested_too_deep",
            "int_beyond_digit_limit"])
    def test_malformed_data_exits_2(self, tmp_path, counterexample_files, capsys, data):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 1, "cols": 1, "data": ' + data + "}")
        argv = ["check", str(path), counterexample_files["p"], counterexample_files["q"]]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        '{"cols": 1, "data": [[1, 0]]}',
        '{"rows": 0, "cols": 1, "data": []}',
        '{"rows": 1.9, "cols": 1, "data": [[1, 0]]}',
        '{"rows": 1, "cols": true, "data": [[1, 0]]}',
        '{"rows": "1", "cols": 1, "data": [[1, 0]]}',
    ], ids=["missing_rows", "zero_rows", "float_rows", "bool_cols", "string_rows"])
    def test_malformed_shape_exits_2(self, tmp_path, counterexample_files, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        argv = ["check", str(path), counterexample_files["p"], counterexample_files["q"]]
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_parse_matches_per_entry_reference(self, tmp_path, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        m[0, 0], m[1, 1] = complex(-0.0, 0.0), complex(0.0, -0.0)
        path = tmp_path / "m.json"
        write_matrix(str(path), m)
        data = json.loads(path.read_text())["data"]
        reference = np.array([complex(re, im) for re, im in data]).reshape(3, 4)
        assert read_matrix(str(path)).tobytes() == reference.tobytes()
        # the writer, on a Fortran-ordered copy too, against the per-entry form
        for written in (m, np.asfortranarray(m)):
            pairs = json.loads(matrix_json(written))["data"]
            assert json.dumps(pairs) == json.dumps([[z.real, z.imag] for z in m.reshape(-1)])

    def test_file_dict_shape(self):
        doc = json.loads(matrix_json(B22))
        assert doc["rows"] == 2 and doc["cols"] == 2
        assert doc["data"][1] == [1.0, 0.0]

    @pytest.fixture
    def gc_state(self):
        """Restores the collector's state, whatever a test leaves it in."""
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("was_enabled", [True, False])
    @pytest.mark.parametrize("text", ['{"rows": 1, "cols": 1, "data": [[1, 0]]}', "{"],
                             ids=["parsed", "invalid_json"])
    def test_gc_is_paused_for_the_parse_only(self, tmp_path, monkeypatch, gc_state,
                                             was_enabled, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        seen = []
        loads = json.loads

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return loads(*args, **kwargs)

        monkeypatch.setattr(cli.json, "loads", recording)
        (gc.enable if was_enabled else gc.disable)()
        try:
            read_matrix(str(path))
        except ValueError as exc:
            assert str(path) in str(exc) and "invalid JSON" in str(exc)
        assert seen == [False]
        assert gc.isenabled() == was_enabled

    def test_non_utf8_file_names_its_path(self, tmp_path, counterexample_files, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        argv = ["check", str(path), counterexample_files["p"], counterexample_files["q"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err


def _file_layout_text(pairs: list[str], rows: int = 1, cols: int | None = None) -> str:
    """A matrix file in the layout write_matrix writes, whose entries hold
    the texts ``pairs`` between their brackets; one row by default."""
    data = ", ".join(f"[{pair}]" for pair in pairs)
    return f'{{"cols": {len(pairs) if cols is None else cols}, "data": [{data}], "rows": {rows}}}\n'


class TestFileLayoutReader:
    """read_matrix parses a file in write_matrix's layout block by block, and
    sends every file that parser refuses down the whole-text JSON path."""

    @pytest.mark.parametrize("pairs", [
        ["-0.0, 0.0", "0.0, -0.0", "-0, -0.0", "0, 0"],
        ["5e-324, -5e-324", "1.7976931348623157e+308, -1.7976931348623157e+308"],
        ["1e-05, 1e+16", "1E-5, 2.5e300", "-3.25E-300, 1e16", "1.0e-05, -1.0E+16"],
        ["1, 0", "-7, 9007199254740993", "123456789012345678901234567890, -0", "2, 3"],
        ["  1.5 ,  -2  ", " 3,4", "5 , 6", "7,8"],
        # the second block starts at the first entry past cli._READ_BLOCK bytes
        [f"{x!r}, {-x / 3!r}" for x in np.random.default_rng(5).standard_normal(6000).tolist()],
    ], ids=["signed_zeros", "extremes", "exponent_forms", "integers", "spaces_in_pairs",
            "two_blocks"])
    def test_reads_as_the_json_path_does(self, tmp_path, pairs):
        text = _file_layout_text(pairs, rows=2, cols=len(pairs) // 2)
        path = tmp_path / "m.json"
        path.write_text(text)
        expected = cli.matrix_from_file_dict(json.loads(text), str(path))
        assert cli._file_layout_matrix(text.encode()) is not None
        m = read_matrix(str(path))
        assert m.shape == expected.shape and m.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("raw, message", [
        (_file_layout_text(["1, 2", "1e999, 0"]), "non-finite entry [inf, 0.0]"),
        (_file_layout_text(["1, 2", "1" + "0" * 400 + ", 0"]), "entry out of the float64 range"),
        (_file_layout_text(["1, 2", "1" + "0" * 4400 + ", 0"]), "invalid JSON (Exceeds the limit"),
        (_file_layout_text(["+1, 0"]), "invalid JSON (Expecting value"),
        (_file_layout_text([".5, 0"]), "invalid JSON (Expecting value"),
        (_file_layout_text(["01, 0"]), "invalid JSON (Expecting ',' delimiter"),
        (_file_layout_text(["1, 2", "1, 2, 3"]), "each entry must be a [re, im] pair"),
        (_file_layout_text(["NaN, 0"]), "non-finite entry [nan, 0.0]"),
        ("\ufeff" + _file_layout_text(["1, 0"]), "invalid JSON (Unexpected UTF-8 BOM"),
        (_file_layout_text(["1, 0"], rows=999999999, cols=999999999),
         "data length 1 does not match rows*cols = 999999998000000001"),
        # a number outside its pair, which deleting the brackets would join to the next
        (_file_layout_text(["1, 2]3, [4, 5"], cols=2), "invalid JSON (Expecting ',' delimiter"),
        (_file_layout_text(["1, 2"]).replace("[[", "[5["), "invalid JSON (Expecting ',' delimiter"),
        (_file_layout_text(["1, 2"]).replace("]]", "]5]"), "invalid JSON (Expecting ',' delimiter"),
        # a defect in the second block
        (_file_layout_text(["1.25, -2.5"] * 7000 + ["1e999, 0"]), "non-finite entry [inf, 0.0]"),
    ], ids=["overflowing_float", "int_beyond_float", "int_beyond_digit_limit", "plus_sign",
            "bare_fraction", "leading_zero", "triple_entry", "nan", "utf8_bom",
            "header_beyond_data", "number_outside_pair", "number_before_the_data",
            "number_after_the_data", "defect_in_second_block"])
    def test_refused_files_keep_the_json_path_message(self, tmp_path, counterexample_files,
                                                      capsys, monkeypatch, raw, message):
        path = tmp_path / "bad.json"
        path.write_bytes(raw.encode("utf-8"))
        assert cli._file_layout_matrix(path.read_bytes()) is None
        argv = ["check", str(path), counterexample_files["p"], counterexample_files["q"]]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        # the whole-text JSON path alone gives the same message and exit code
        monkeypatch.setattr(cli, "_file_layout_matrix", lambda raw: None)
        assert main(argv) == 2
        assert capsys.readouterr().err == err


# signed zeros, subnormals, the places where repr switches to an exponent,
# the extremes, and the non-finite values json.dumps writes as NaN/Infinity
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16,
               9999999999999998.0, 1e-05, 0.0001, sys.float_info.max,
               -sys.float_info.max, float("nan"), float("inf"), -float("inf"), 1 / 3, -1.5]


def _seam_matrix(size: int) -> np.ndarray:
    """A 1 x size row of seeded entries ending in [inf, -inf] and [-0.0, NaN]."""
    floats = np.random.default_rng(size).standard_normal(2 * size)
    floats[-4:] = [float("inf"), -float("inf"), -0.0, float("nan")]
    return floats.view(np.complex128).reshape(1, size)


def _layouts():
    grid = np.random.default_rng(3).standard_normal((6, 8, 2)).view(np.complex128)[..., 0]
    edge = np.array(EDGE_FLOATS).view(np.complex128).reshape(2, 4)
    seam = 2 * cli._BLOCK  # the text is written in chunks of cli._BLOCK entries
    return {
        "edge": edge,
        "edge_fortran": np.asfortranarray(edge),
        "edge_transposed": edge.T,
        "c_order": grid,
        "fortran": np.asfortranarray(grid),
        "strided": grid[::2, 1::3],
        "real": np.array(EDGE_FLOATS).reshape(4, 4),
        "integer": np.arange(-6, 6).reshape(3, 4),
        "one_entry": np.array([[complex(-0.0, 5e-324)]]),
        "empty": np.zeros((0, 3)),
        "seam_minus_one": _seam_matrix(seam - 1),
        "seam_fortran": np.asfortranarray(_seam_matrix(seam).reshape(2, cli._BLOCK)),
        "seam_plus_one": _seam_matrix(seam + 1),
    }


def _reference_file_dict(m) -> dict:
    """The matrix object as json.dumps was given it: nested [re, im] lists."""
    m = np.asarray(m, dtype=np.complex128)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[z.real, z.imag] for z in m.reshape(-1)]}


class TestMatrixText:
    @pytest.mark.parametrize("name", list(_layouts()))
    def test_file_bytes_match_json_dumps(self, tmp_path, name):
        m = _layouts()[name]
        path = tmp_path / "m.json"
        write_matrix(str(path), m)
        expected = json.dumps(_reference_file_dict(m), sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("name", list(_layouts()))
    def test_report_bytes_match_json_dumps(self, capsys, name):
        m = _layouts()[name]
        # keys on both sides of "matrix"; a string that escapes the splice point
        doc = {"index": 2, "kind": "2l", "out": 'x\n  "matrix": null',
               "residuals": {"outer": 1e-16}, "tolerances": {"rank_rtol": 1e-10}}
        cli._emit(doc, (chunk for chunk, in cli._json_chunks(m, "  ")))
        expected = json.dumps({**doc, "matrix": _reference_file_dict(m)},
                              sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == expected

    def test_write_matrix_memory_does_not_grow_with_n(self, tmp_path):
        # the text of an n = 256 matrix is about 10 MiB; the writer holds one block of it
        m = random_triple(np.random.default_rng(0), 256)[0]
        tracemalloc.start()
        try:
            write_matrix(str(tmp_path / "m.json"), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert np.array_equal(read_matrix(str(tmp_path / "m.json")), m)

    def test_read_matrix_memory_holds_the_file_the_matrix_and_one_block(self, tmp_path):
        # the file of this n = 256 matrix is 2.9 MiB and the matrix 1 MiB;
        # a whole-text json.loads holds about 4 times the file
        a = diagonalizable_instance(np.random.default_rng(1), 256, r=128)["a"]
        path = tmp_path / "a.json"
        write_matrix(str(path), a)
        tracemalloc.start()
        try:
            m = read_matrix(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 2**20
        assert m.tobytes() == a.tobytes()

    @pytest.mark.parametrize("m", [
        np.array([["1", "x"]]),
        # a non-number in the last block of an object matrix
        np.array([[*range(cli._BLOCK), "x"]], dtype=object),
    ], ids=["strings", "object_last_block"])
    def test_refused_write_leaves_the_file_unchanged(self, tmp_path, m):
        path = tmp_path / "m.json"
        write_matrix(str(path), np.eye(2))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="malformed string"):
            write_matrix(str(path), m)
        assert path.read_bytes() == before


class TestCheck:
    def test_counterexample_report(self, counterexample_files, capsys):
        code = main(["check", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"]])
        assert code == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert doc["strict_exists"] is False
        assert doc["l_exists"] is True
        assert doc["fragile"] is False
        assert doc["tolerances"]["rank_rtol"] == 1e-10
        # stable key order so runs diff cleanly
        assert text.strip() == json.dumps(doc, sort_keys=True, indent=2)

    def test_identity_files_all_outer_flags(self, tmp_path, capsys):
        a = _write(tmp_path, "a", np.eye(2))
        p = _write(tmp_path, "p", np.eye(2))
        q = _write(tmp_path, "q", np.zeros((2, 2)))
        assert main(["check", a, p, q]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strict_exists"] and doc["l_exists"] and doc["l12_exists"]

    def test_non_idempotent_p_exits_2(self, tmp_path, capsys):
        a = _write(tmp_path, "a", np.eye(2))
        p = _write(tmp_path, "p", np.array([[1, 1], [1, 1]], dtype=complex))
        q = _write(tmp_path, "q", np.zeros((2, 2)))
        assert main(["check", a, p, q]) == 2
        assert "p fails" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        a = _write(tmp_path, "a", np.eye(2))
        assert main(["check", a, str(tmp_path / "nope.json"), a]) == 2

    def test_env_var_overrides_rank_tolerance(self, counterexample_files, capsys, monkeypatch):
        monkeypatch.setenv("PQINV_TOL_RANK", "1e-6")
        main(["check", counterexample_files["a"], counterexample_files["p"],
              counterexample_files["q"]])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"]["rank_rtol"] == 1e-6

    @pytest.mark.parametrize("value, reason", [
        ("abc", "could not convert string to float: 'abc'"),
        ("nan", "rank_rtol must be finite and nonnegative"),
    ])
    def test_bad_env_var_is_named(self, counterexample_files, capsys, monkeypatch,
                                  value, reason):
        monkeypatch.setenv("PQINV_TOL_RANK", value)
        assert main(["check", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: PQINV_TOL_RANK='{value}': ") and reason in err

    def test_flag_beats_env_var(self, counterexample_files, capsys, monkeypatch):
        monkeypatch.setenv("PQINV_TOL_RANK", "1e-6")
        main(["check", counterexample_files["a"], counterexample_files["p"],
              counterexample_files["q"], "--rank-rtol", "1e-9"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"]["rank_rtol"] == 1e-9

    def test_rank_rtol_help_puts_the_flag_first(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "env PQINV_TOL_RANK applies when the flag is absent" in help_text
        assert "overrides" not in help_text


class TestSvdFailure:
    def test_seed_104_triple_is_decided(self, tmp_path, capsys):
        # LAPACK's SVD does not converge on the adjoint of (1-q) a p here
        triple = random_triple(np.random.default_rng([104, 3]), 256)
        files = [_write(tmp_path, name, m) for name, m in zip("apq", triple)]
        assert main(["check", *files]) == 0
        assert json.loads(capsys.readouterr().out)["equivalence_consistent"]

    def test_svd_that_never_converges_exits_4(self, counterexample_files, capsys, monkeypatch):
        def never_converges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", never_converges)
        files = [counterexample_files[k] for k in "apq"]
        assert main(["check", *files]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_residual_svd_that_fails_once_is_retried(self, counterexample_files, monkeypatch):
        # the subspace gaps among a non-group route's residuals take their SVDs
        # through the one SVD home too, so a LAPACK failure there falls back
        # to the adjoint (the group route's gaps are 0 with no SVD)
        svd = np.linalg.svd
        failed = []

        def fails_once_in_gap(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name != "gap":
                frame = frame.f_back
            if frame is not None and not failed:
                failed.append(args[0].shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(*args, **kwargs)

        for namespace in (np.linalg, sys.modules["numpy.linalg._linalg"]):
            monkeypatch.setattr(namespace, "svd", fails_once_in_gap)
        files = [counterexample_files[k] for k in "apq"]
        assert main(["compute", *files, "--kind", "2l", "--route", "inner"]) == 0
        assert failed


class TestCompute:
    def test_subspace_outer_inverse(self, counterexample_files, capsys, tmp_path):
        out = str(tmp_path / "b.json")
        code = main(["compute", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"], "--kind", "2l", "--out", out])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "2l"
        assert doc["route"] == "group_formula"
        assert doc["residuals"]["outer"] <= 1e-12
        assert np.allclose(read_matrix(out), B22, atol=1e-12)

    def test_report_and_out_file_are_json_dumps_forms(self, tmp_path, capsys):
        inst = diagonalizable_instance(np.random.default_rng(7), 6)
        files = [_write(tmp_path, name, inst[name]) for name in "apq"]
        out = tmp_path / "b.json"
        assert main(["compute", *files, "--kind", "2l", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert out.read_text() == json.dumps(doc["matrix"], sort_keys=True) + "\n"

    @pytest.mark.parametrize("kind,name", [
        ("2l", "outer_inverse"),
        ("2", "outer_inverse_strict"),
        ("12l", "one_two_inverse"),
        ("12", "one_two_inverse_strict"),
    ])
    def test_compute_function_is_looked_up_per_call(self, counterexample_files, monkeypatch,
                                                   kind, name):
        # a wrapper installed on the cli module, as a tracer installs one, sees the call
        original = getattr(cli, name)
        routes = []

        def wrapper(prob, route):
            routes.append(route)
            return original(prob, route=route)

        monkeypatch.setattr(cli, name, wrapper)
        files = [counterexample_files[k] for k in "apq"]
        main(["compute", *files, "--kind", kind, "--route", "inner"])
        assert routes == ["inner"]

    def test_out_formats_the_floats_once(self, counterexample_files, monkeypatch, tmp_path):
        # the report and the --out file share one float-repr pass over the result
        passes = []

        def counting_map(fn, *iterables):
            if fn is float.__repr__:
                passes.append(fn)
            return map(fn, *iterables)

        monkeypatch.setattr(cli, "map", counting_map, raising=False)
        files = [counterexample_files[k] for k in "apq"]
        out = str(tmp_path / "b.json")
        assert main(["compute", *files, "--kind", "2l", "--out", out]) == 0
        assert len(passes) == 1
        assert main(["compute", files[0], "--kind", "mp", "--out", out]) == 0
        assert len(passes) == 2

    def test_strict_nonexistence_exits_3(self, counterexample_files, capsys):
        code = main(["compute", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"], "--kind", "2"])
        assert code == 3
        assert "ba" in capsys.readouterr().err

    def test_moore_penrose_ignores_pq(self, tmp_path, capsys):
        a = _write(tmp_path, "a", A22)
        assert main(["compute", a, "--kind", "mp"]) == 0
        doc = json.loads(capsys.readouterr().out)
        matrix = np.array([complex(re, im) for re, im in doc["matrix"]["data"]]).reshape(2, 2)
        assert np.allclose(matrix, B22, atol=1e-12)

    def test_group_of_nilpotent_exits_3(self, tmp_path, capsys):
        a = _write(tmp_path, "a", np.array([[0, 1], [0, 0]], dtype=complex))
        assert main(["compute", a, "--kind", "group"]) == 3

    def test_group_inverse_of_a_diagonal(self, tmp_path, capsys):
        a = _write(tmp_path, "a", np.diag([1.0, 2.0, 0.0]))
        assert main(["compute", a, "--kind", "group"]) == 0
        doc = json.loads(capsys.readouterr().out)
        matrix = np.array([complex(re, im) for re, im in doc["matrix"]["data"]]).reshape(3, 3)
        assert doc["route"] == "direct"
        assert np.allclose(matrix, np.diag([1.0, 0.5, 0.0]), rtol=0.0, atol=1e-12)
        assert sorted(doc["residuals"]) == ["commute", "inner", "outer"]
        assert all(value <= 1e-12 for value in doc["residuals"].values())

    def test_drazin_reports_index(self, tmp_path, capsys):
        a = _write(tmp_path, "a", np.array([[0, 1], [0, 0]], dtype=complex))
        assert main(["compute", a, "--kind", "drazin"]) == 0
        doum = json.loads(capsys.readouterr().out)
        assert doum["index"] == 2

    def test_reflexive_kinds(self, counterexample_files, capsys):
        code = main(["compute", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"], "--kind", "12l"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"]["inner"] <= 1e-12
        code = main(["compute", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"], "--kind", "12"])
        assert code == 3

    def test_missing_pq_for_pq_kind_exits_2(self, tmp_path):
        a = _write(tmp_path, "a", np.eye(2))
        assert main(["compute", a, "--kind", "2l"]) == 2

    def test_limit_route(self, counterexample_files, capsys):
        code = main(["compute", counterexample_files["a"], counterexample_files["p"],
                     counterexample_files["q"], "--kind", "2l", "--route", "limit"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["route"] == "limit"

    def test_integral_route_spectral_failure_exits_4(self, tmp_path, capsys):
        # inside compute a spectral failure is a numerical failure, not exit 5
        a = _write(tmp_path, "a", np.array([[0, 1], [-1, 0]], dtype=complex))
        p = _write(tmp_path, "p", np.eye(2))
        q = _write(tmp_path, "q", np.zeros((2, 2)))
        assert main(["compute", a, p, q, "--kind", "2l", "--route", "integral"]) == 4

    @pytest.mark.parametrize("route", ["group", "inner", "limit", "integral"])
    def test_every_route_at_zero_range_p(self, zero_p_files, capsys, route):
        assert main(["compute", *zero_p_files, "--kind", "2l", "--route", route]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matrix"]["data"] == [[0.0, 0.0]] * 4


class TestRepresent:
    def test_dimension_obstruction_reads_as_compute(self, tmp_path, capsys):
        files = [_write(tmp_path, name, np.eye(2)) for name in "apq"]
        assert main(["compute", *files, "--kind", "2l"]) == 3
        compute_err = capsys.readouterr().err
        assert main(["represent", *files, "--method", "limit"]) == 3
        assert capsys.readouterr().err == compute_err
        assert compute_err.startswith(
            "nonexistent: subspace outer inverse does not exist: dimension obstruction")

    def test_zero_conv_tol_rejected_by_the_integral_route_only(self, core8_files, capsys):
        integral = [["compute", *core8_files, "--kind", "2l", "--route", "integral"],
                    ["represent", *core8_files, "--method", "integral"]]
        for argv in integral:
            assert main(argv + ["--conv-tol", "0"]) == 2
            assert "conv_tol must be positive" in capsys.readouterr().err
        assert main(["check", *core8_files, "--conv-tol", "0"]) == 0
        assert main(["compute", *core8_files, "--kind", "2l", "--conv-tol", "0"]) == 0

    def test_integral_overflowing_horizon_exits_2(self, core8_files, capsys):
        # a w has entries up to 2, so a w * 1e308 overflows; numpy would warn
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["represent", *core8_files, "--method", "integral",
                         "--horizon", "1e308"])
        assert code == 2
        assert "horizon 1e+308" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    @pytest.fixture
    def diag_core_files(self, tmp_path):
        # a w = diag(0, 1) for the w built from these idempotents
        return {
            "a": _write(tmp_path, "a", A22),
            "p": _write(tmp_path, "p", np.diag([1.0, 0.0])),
            "q": _write(tmp_path, "q", np.diag([1.0, 0.0])),
        }

    def test_limit_trace(self, diag_core_files, capsys, tmp_path):
        out = str(tmp_path / "final.json")
        code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                     diag_core_files["q"], "--method", "limit", "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda,cauchy_error"
        assert lines[-1].startswith("# tolerances:") and "rank_rtol" in lines[-1]
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:-1]]
        # Cauchy error tracks the shift scale for the closed-form core
        for lam, err in rows[1:]:
            assert err == pytest.approx(lam * 10, rel=0.5)
        assert np.allclose(read_matrix(out), B22, atol=1e-7)

    def test_integral_trace(self, diag_core_files, capsys, tmp_path):
        out = str(tmp_path / "final.json")
        code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                     diag_core_files["q"], "--method", "integral", "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "horizon,cauchy_error,tail_bound"
        tail_bounds = [float(line.split(",")[2]) for line in lines[1:-1]]
        assert tail_bounds[-1] <= 1e-8
        assert np.allclose(read_matrix(out), B22, atol=1e-7)

    def test_integral_horizon_sweep_skips_short_points(self, diag_core_files, capsys):
        # the closed-form core has decay rate 1, so horizons below
        # log(1e8) are invalid; only the admissible sweep points appear
        code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                     diag_core_files["q"], "--method", "integral", "--horizon", "40"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        horizons = [float(line.split(",")[0]) for line in lines[1:-1]]
        assert horizons == [20.0, 40.0]

    def test_integral_requested_horizon_too_short_exits_2(self, diag_core_files):
        code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                     diag_core_files["q"], "--method", "integral", "--horizon", "2"])
        assert code == 2

    @pytest.mark.parametrize("horizon", ["0", "nan"])
    def test_integral_zero_or_nan_horizon_exits_2(self, diag_core_files, capsys, horizon):
        # 0 is a requested horizon, not an absent one; NaN is below every minimum
        code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                     diag_core_files["q"], "--method", "integral", "--horizon", horizon])
        assert code == 2
        assert "below the minimum" in capsys.readouterr().err

    def test_integral_infinite_horizon_exits_2(self, diag_core_files, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                         diag_core_files["q"], "--method", "integral", "--horizon", "inf"])
        assert code == 2
        assert "horizon inf is not finite" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("lambda_min", ["nan", "inf"])
    def test_limit_non_finite_lambda_min_exits_2(self, diag_core_files, tmp_path, lambda_min):
        out = tmp_path / "final.json"
        code = main(["represent", diag_core_files["a"], diag_core_files["p"],
                     diag_core_files["q"], "--method", "limit", "--lambda-min", lambda_min,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_integral_at_zero_range_p(self, zero_p_files, capsys, tmp_path):
        # w = 0, so the integrand vanishes on every horizon of the sweep
        out = str(tmp_path / "final.json")
        code = main(["represent", *zero_p_files, "--method", "integral", "--horizon", "200",
                     "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:-1] == ["25.0,nan,0.0", "50.0,0.0,0.0", "100.0,0.0,0.0", "200.0,0.0,0.0"]
        assert not read_matrix(out).any()
        assert main(["represent", *zero_p_files, "--method", "integral", "--horizon", "nan"]) == 2
        assert "horizon nan is not a number" in capsys.readouterr().err

    def test_imaginary_spectrum_exits_5(self, tmp_path, capsys):
        a = _write(tmp_path, "a", np.array([[0, 1], [-1, 0]], dtype=complex))
        p = _write(tmp_path, "p", np.eye(2))
        q = _write(tmp_path, "q", np.zeros((2, 2)))
        code = main(["represent", a, p, q, "--method", "integral"])
        assert code == 5
        assert "spectral" in capsys.readouterr().err

    def test_singular_shifted_system_exits_5(self, tmp_path, capsys, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(prescribed, "solve", singular)
        a = _write(tmp_path, "a", np.eye(2))
        q = _write(tmp_path, "q", np.zeros((2, 2)))
        assert main(["represent", a, a, q, "--method", "limit"]) == 5
        assert "shifted system singular" in capsys.readouterr().err

    def test_negative_tolerance_flag_exits_2(self, tmp_path):
        a = _write(tmp_path, "a", np.eye(2))
        assert main(["check", a, a, a, "--eq-atol", "-1"]) == 2


class TestOutWriteFailure:
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    @pytest.mark.parametrize("command", [
        ["compute", "--kind", "2l"], ["represent", "--method", "integral"],
    ], ids=["compute", "represent"])
    def test_unwritable_out_exits_2_naming_it(self, core8_files, tmp_path, capsys,
                                              command, target):
        out = tmp_path / "no-such-dir" / "b.json" if target == "missing-dir" else tmp_path
        assert main([command[0], *core8_files, *command[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out}: cannot write (")


class TestSuites:
    def test_verify_suite_exits_0(self, capsys):
        assert main(["verify"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["fail"] == 0

    def test_fuzz_exits_0(self, capsys):
        assert main(["fuzz", "--seed", "5", "--trials", "10", "--dim", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["fail"] == 0
        assert doc["seed"] == 5

    @pytest.mark.parametrize("argv, name", [
        (["verify"], "diagnose"),
        (["fuzz", "--trials", "2", "--dim", "2"], "_battery_classical"),
    ], ids=["verify", "fuzz"])
    def test_failing_case_exits_1(self, monkeypatch, capsys, argv, name):
        def broken(*args):
            raise RuntimeError("broken")

        monkeypatch.setattr(verify, name, broken)
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["fail"] > 0
        assert "exception: RuntimeError: broken" in {c.get("detail") for c in doc["cases"]}

    def test_fuzz_dim_zero_exits_2(self, capsys):
        assert main(["fuzz", "--dim", "0", "--trials", "5"]) == 2


class TestToleranceEcho:
    FLAGS = ["--rank-rtol", "3e-11", "--eq-atol", "2e-10", "--eq-rtol", "5e-9",
             "--conv-tol", "2e-8"]
    TOL = Tolerances(rank_rtol=3e-11, eq_atol=2e-10, eq_rtol=5e-9, conv_tol=2e-8)

    @pytest.mark.parametrize("argv", [
        ["check", "{a}", "{p}", "{q}"],
        ["compute", "{a}", "{p}", "{q}", "--kind", "2l"],
        ["verify"],
        ["fuzz", "--trials", "2"],
    ], ids=["check", "compute", "verify", "fuzz"])
    def test_json_reports_echo_every_flag(self, counterexample_files, capsys, argv):
        argv = [arg.format(**counterexample_files) for arg in argv]
        assert main(argv + self.FLAGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerances"] == self.TOL.to_json_dict()

    def test_represent_tolerance_line(self, tmp_path, capsys):
        a = _write(tmp_path, "a", A22)
        p = _write(tmp_path, "p", np.diag([1.0, 0.0]))
        assert main(["represent", a, p, p, "--method", "limit"] + self.FLAGS) == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        assert last == "# tolerances: rank_rtol=3e-11 eq_atol=2e-10 eq_rtol=5e-09 conv_tol=2e-08"
