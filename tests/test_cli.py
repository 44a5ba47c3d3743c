import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mergecode
from mergecode.cli import (
    FLOAT_FMT,
    _cells,
    _emit_json,
    _emit_rows,
    _json_floats,
    main,
)

EX1 = {"radix": 2, "probabilities": [8 / 15, 4 / 15, 2 / 15, 1 / 15]}
EX2 = {
    "radix": 2,
    "counts": {"a": 9, "b": 5, "c": 4, "d": 2, "e": 2, "f": 2, "g": 1, "h": 1},
}


@pytest.fixture
def ex1_path(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(EX1))
    return str(path)


@pytest.fixture
def ex2_path(tmp_path):
    path = tmp_path / "ex2.json"
    path.write_text(json.dumps(EX2))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchedule:
    def test_breakpoint_table(self, capsys, ex1_path):
        code, out, _ = run(capsys, "schedule", "--input", ex1_path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,alpha_k,cardinality,wstar,slope"
        assert len(lines) == 5
        row1 = lines[1].split(",")
        assert float(row1[1]) == 0.0
        assert int(row1[2]) == 1

    def test_curve_is_flat_beyond_no_compression(self, capsys, ex1_path):
        code, out, _ = run(capsys, "schedule", "--input", ex1_path, "--grid", "101")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,payoff,avg_length,max_length,entropy_w,cardinality"
        rows = [line.split(",") for line in lines[1:]]
        tail = [float(r[1]) for r in rows if float(r[0]) >= 0.53125]
        assert tail, "grid must include the flat region"
        np.testing.assert_allclose(tail, 2.0, atol=1e-9)

    def test_per_symbol_rows(self, capsys, ex1_path):
        code, out, _ = run(
            capsys, "schedule", "--input", ex1_path, "--grid", "11", "--per-symbol"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,symbol_index,label,weight,real_length,int_length"
        # 11 uniform alphas + 4 breakpoints, deduplicated, times 4 symbols
        assert (len(lines) - 1) % 4 == 0


class TestCode:
    def test_schema_round_trip(self, capsys, ex1_path):
        code, out, _ = run(capsys, "code", "--input", ex1_path, "--alpha", "0.0625")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "alpha", "radix", "labels", "perm", "weights", "lengths_real",
            "lengths_int", "payoff", "avg_length", "max_length", "entropy_w",
            "entropy_p", "kraft_real", "kraft_int",
        }
        assert doc["weights"] == [0.5, 0.25, 0.125, 0.125]
        assert doc["lengths_int"] == [1, 2, 3, 3]

    def test_single_symbol_prints_no_negative_zero(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"radix": 2, "probabilities": [1.0]}))
        code, out, _ = run(capsys, "code", "--input", str(path), "--alpha", "0.5")
        assert code == 0
        assert "-0" not in out
        doc = json.loads(out)
        assert doc["lengths_real"] == [0.0]
        for key in ("payoff", "avg_length", "max_length", "entropy_w", "entropy_p"):
            assert doc[key] == 0.0

    def test_determinism(self, capsys, ex2_path):
        _, out1, _ = run(capsys, "code", "--input", ex2_path, "--alpha", "0.3")
        _, out2, _ = run(capsys, "code", "--input", ex2_path, "--alpha", "0.3")
        assert out1 == out2


class TestLimited:
    def test_feasible_cap(self, capsys, ex2_path):
        code, out, _ = run(capsys, "limited", "--input", ex2_path, "--llim", "4")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "feasible", "alpha", "lengths_real", "lengths_int",
            "avg_length", "max_length",
        }
        assert doc["feasible"] is True
        assert doc["alpha"] == pytest.approx(0.0521, abs=5e-4)
        assert doc["avg_length"] == pytest.approx(2.6355, abs=5e-4)

    def test_infeasible_cap_exits_2_with_message(self, capsys, ex2_path):
        code, out, err = run(capsys, "limited", "--input", ex2_path, "--llim", "2")
        assert code == 2
        assert "minimum achievable max length is 3" in err
        doc = json.loads(out)
        assert doc["feasible"] is False
        assert doc["min_achievable_max_length"] == pytest.approx(3.0)


class TestExp:
    def test_schema(self, capsys, ex1_path):
        code, out, _ = run(
            capsys, "exp", "--input", ex1_path, "--t", "1.0", "--alpha", "1.0"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {
            "t", "alpha", "converged", "iterations", "residual",
            "lengths_real", "lengths_int", "nu", "payoff_t", "exp_term",
            "avg_length", "renyi",
        }
        assert doc["converged"] is True
        assert doc["exp_term"] == pytest.approx(doc["renyi"], abs=1e-6)


class TestWaterfill:
    def test_by_alpha(self, capsys, ex1_path):
        code, out, _ = run(
            capsys, "waterfill", "--input", ex1_path, "--alpha", "0.0625"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"level", "alpha", "flooded_count", "weights"}
        assert doc["level"] == pytest.approx(0.125)
        assert doc["flooded_count"] == 2

    def test_alpha_one_is_uniform(self, capsys, tmp_path):
        path = tmp_path / "three.json"
        path.write_text(json.dumps({"radix": 2, "probabilities": [0.5, 0.3, 0.2]}))
        code, out, _ = run(capsys, "waterfill", "--input", str(path), "--alpha", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == 1.0
        assert doc["level"] == pytest.approx(1 / 3, abs=1e-12)
        assert doc["flooded_count"] == 3
        np.testing.assert_allclose(doc["weights"], 1 / 3, atol=1e-12)

    def test_by_level(self, capsys, ex2_path):
        code, out, _ = run(
            capsys, "waterfill", "--input", ex2_path, "--level", "0.0625"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == pytest.approx(5 / 96, abs=1e-9)

    def test_level_too_high_exits_2(self, capsys, ex2_path):
        code, _, err = run(
            capsys, "waterfill", "--input", ex2_path, "--level", "0.2"
        )
        assert code == 2
        assert "infeasible" in err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_level_exits_1_like_a_bad_cap(self, capsys, ex2_path, value):
        code, out, err = run(capsys, "waterfill", "--input", ex2_path, "--level", value)
        assert (code, out) == (1, "")
        assert "error: level must be positive" in err
        code, _, err = run(capsys, "limited", "--input", ex2_path, "--llim", value)
        assert code == 1
        assert "error: length cap must be positive" in err

    def test_solves_the_flood_once(self, capsys, ex2_path, monkeypatch):
        calls = []
        flood = mergecode.waterfilling._flood_suffix_size

        def counted(probs, alpha):
            calls.append(alpha)
            return flood(probs, alpha)

        monkeypatch.setattr(mergecode.waterfilling, "_flood_suffix_size", counted)
        code, out, _ = run(capsys, "waterfill", "--input", ex2_path, "--alpha", "0.3")
        assert code == 0
        assert calls == [0.3]
        doc = json.loads(out)
        wl = mergecode.water_level(mergecode.load_distribution(Path(ex2_path)), 0.3)
        assert doc["level"] == pytest.approx(wl.level, rel=1e-11)
        assert doc["flooded_count"] == wl.flooded_count

    def test_requires_exactly_one_parameter(self, capsys, ex1_path):
        code, _, err = run(capsys, "waterfill", "--input", ex1_path)
        assert code == 1
        assert "error" in err


class TestExtend:
    def test_rows_per_block_size(self, capsys, ex1_path):
        code, out, _ = run(
            capsys, "extend", "--input", ex1_path, "--n", "3", "--alpha", "0.0625"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,lower,per_symbol,upper"
        assert len(lines) == 4
        for line in lines[1:]:
            n, lower, per, upper = line.split(",")
            assert float(lower) - 1e-9 <= float(per) < float(upper)

    @pytest.mark.parametrize("order", ["0", "-2"])
    def test_order_below_one_is_a_parameter_error(self, capsys, ex1_path, order):
        code, out, err = run(
            capsys, "extend", "--input", ex1_path, "--n", order, "--alpha", "0.3"
        )
        assert code == 1
        assert out == ""
        assert "--n must be a positive integer" in err

    def test_underflowing_block_names_the_underflow(self, capsys, tmp_path):
        path = tmp_path / "denormal.json"
        path.write_text(json.dumps({"radix": 2, "probabilities": [0.5, 0.5, 5e-324]}))
        code, out, _ = run(
            capsys, "extend", "--input", str(path), "--n", "1", "--alpha", "0.3"
        )
        assert code == 0 and len(out.splitlines()) == 2
        code, _, err = run(
            capsys, "extend", "--input", str(path), "--n", "2", "--alpha", "0.3"
        )
        assert code == 1
        assert "underflows" in err and "zero probabilities" not in err


class TestIngest:
    def test_counts_to_probabilities(self, capsys, ex2_path, tmp_path):
        out_path = tmp_path / "dist.json"
        code, _, _ = run(
            capsys, "ingest", "--input", ex2_path, "--output", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {"radix", "probabilities", "labels"}
        assert doc["labels"][0] == "a"
        assert doc["probabilities"][0] == pytest.approx(9 / 26, abs=1e-9)

    def test_raw_bytes(self, capsys, tmp_path):
        raw = tmp_path / "data.bin"
        raw.write_bytes(b"aaab")
        code, out, _ = run(capsys, "ingest", "--input", str(raw), "--raw")
        assert code == 0
        doc = json.loads(out)
        assert doc["probabilities"] == [0.75, 0.25]
        assert doc["labels"] == ["0x61", "0x62"]

    def test_raw_ties_keep_first_occurrence_order(self, capsys, tmp_path):
        raw = tmp_path / "data.bin"
        raw.write_bytes(b"zzyx\x00yx\x00")
        code, out, _ = run(capsys, "ingest", "--input", str(raw), "--raw")
        assert code == 0
        assert json.loads(out)["labels"] == ["0x7a", "0x79", "0x78", "0x00"]

    def test_ingested_file_feeds_other_commands(self, capsys, ex2_path, tmp_path):
        out_path = tmp_path / "dist.json"
        run(capsys, "ingest", "--input", ex2_path, "--output", str(out_path))
        code, out, _ = run(
            capsys, "limited", "--input", str(out_path), "--llim", "4"
        )
        assert code == 0
        assert json.loads(out)["alpha"] == pytest.approx(5 / 96, abs=1e-6)


class TestFormats:
    def test_code_csv_is_per_symbol_table(self, capsys, ex1_path):
        code, out, _ = run(
            capsys, "code", "--input", ex1_path, "--alpha", "0.0625",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,symbol_index,label,weight,real_length,int_length"
        assert len(lines) == 5

    def test_schedule_json_is_row_array(self, capsys, ex1_path):
        code, out, _ = run(
            capsys, "schedule", "--input", ex1_path, "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and len(rows) == 4
        assert set(rows[0]) == {"k", "alpha_k", "cardinality", "wstar", "slope"}

    def test_drop_zeros_flag(self, capsys, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text('{"radix": 2, "probabilities": [0.5, 0.0, 0.5]}')
        code, _, err = run(capsys, "code", "--input", str(path), "--alpha", "0.1")
        assert code == 1 and "zero" in err.lower()
        code, out, _ = run(
            capsys, "code", "--input", str(path), "--alpha", "0.1", "--drop-zeros"
        )
        assert code == 0
        assert json.loads(out)["weights"] == [0.5, 0.5]


class TestCsvLabels:
    LABELS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain"]

    @pytest.mark.parametrize("argv", [
        ["code", "--alpha", "0.3"],
        ["exp", "--t", "2.0", "--alpha", "0.5"],
        ["waterfill", "--alpha", "0.3"],
        ["ingest"],
    ])
    def test_labels_read_back(self, capsys, tmp_path, argv):
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({
            "radix": 2,
            "probabilities": [0.4, 0.25, 0.2, 0.1, 0.05],
            "labels": self.LABELS,
        }))
        code, out, _ = run(
            capsys, argv[0], "--input", str(path), *argv[1:], "--format", "csv"
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert all(len(row) == len(header) for row in rows)
        assert [row[header.index("label")] for row in rows] == self.LABELS


class TestErrors:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["code", "--alpha", "0.1"])  # no --input
        assert exc.value.code == 1
        assert "--input" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "code", "--input", str(tmp_path / "nope.json"), "--alpha", "0.1"
        )
        assert code == 1
        assert "not found" in err

    def test_bad_radix_maps_to_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"radix": 1, "probabilities": [0.5, 0.5]}')
        code, _, err = run(capsys, "code", "--input", str(path), "--alpha", "0.1")
        assert code == 1
        assert "radix" in err


def test_cli_import_loads_no_scipy():
    src = str(Path(mergecode.__file__).parent.parent)
    code = (
        "import sys; import mergecode.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Reference serializer: the per-element route the CLI used before it wrote
# whole columns.  The CLI must print the same bytes for any table or object
# (CSV labels with , " CR or LF aside, which it now quotes).

def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(FLOAT_FMT % float(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % float(v)
    return str(v)


def reference_json(doc) -> str:
    return json.dumps(_jsonable(doc), indent=2) + "\n"


def reference_csv(rows: list[dict]) -> str:
    header = list(rows[0]) if rows else []
    lines = [",".join(header)]
    lines += [",".join(_csv_cell(row[k]) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


def table_rows(table: dict) -> list[dict]:
    n = next(len(v) for v in table.values() if isinstance(v, (np.ndarray, list)))
    return [
        {k: v[i] if isinstance(v, (np.ndarray, list)) else v for k, v in table.items()}
        for i in range(n)
    ]


def printed(emit, *args) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        emit(*args)
    return buf.getvalue()


SPECIAL_FLOATS = [
    -0.0, 0.0, 2.0, 1e16, 123456789012345.0, 5e-324,
    float("inf"), float("-inf"), float("nan"),
]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
plain_labels = st.text(st.characters(blacklist_characters=',"\r\n'))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    return {
        "x": np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=float),
        "k": np.array(draw(st.lists(st.integers(-2**62, 2**62), min_size=n,
                                    max_size=n)), dtype=np.int64),
        "flag": np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                         dtype=bool),
        "label": draw(st.lists(plain_labels, min_size=n, max_size=n)),
        "shared": draw(st.one_of(floats, st.integers(-9, 9), st.booleans())),
    }


@settings(max_examples=300, deadline=None)
@given(tables(), st.lists(st.text(), max_size=5), st.none() | floats | st.text())
def test_serializer_matches_reference(table, labels, scalar):
    doc = {**table, "labels": labels, "scalar": scalar, "count": len(labels)}
    assert printed(_emit_json, doc, None) == reference_json(doc)
    for fmt in ("json", "csv"):
        args = SimpleNamespace(format=fmt, output=None)
        rows = table_rows(table)
        want = reference_json(rows) if fmt == "json" else reference_csv(rows)
        assert printed(_emit_rows, table, args) == want


def test_json_float_rule_matches_the_encoder():
    """The JSON text of each ``FLOAT_FMT`` cell is ``json.dumps(float(cell))``.

    Random mantissas at every binary exponent, subnormals included, both
    signs, and the values where ``%g`` and ``repr`` part.
    """
    rng = np.random.default_rng(2024)
    exponents = np.repeat(np.arange(-1074, 1024), 8)
    values = np.ldexp(rng.uniform(1.0, 2.0, exponents.size), exponents)
    values = np.concatenate([values, -values, [
        0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e12, 1e15, 1e16,
        -1e12, 123456789012345.0, 5e-324, -5e-324, 3.0, 1e11, 1e-5, 1e-4,
    ]])
    cells = [FLOAT_FMT % v for v in values.tolist()]
    want = [json.dumps(float(c)) for c in cells]
    assert _json_floats(values) == want
    assert _cells(values, True) == want


NAN = float("nan")


def run_column(draw, pool, n: int) -> list:
    """n entries drawn from ``pool`` in runs of one to five equal values."""
    out = []
    while len(out) < n:
        out += [draw(st.sampled_from(pool))] * draw(st.integers(1, 5))
    return out[:n]


@st.composite
def run_tables(draw):
    n = draw(st.integers(0, 30))
    # -0.0 beside 0.0, and NaNs of both signs, are runs of different bits
    float_pool = draw(st.lists(floats, min_size=1, max_size=3)) + [
        -0.0, 0.0, NAN, -NAN,
    ]
    int_pool = draw(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=3))
    return {
        "x": np.array(run_column(draw, float_pool, n), dtype=float),
        "y": np.array(run_column(draw, float_pool, n), dtype=float),
        "k": np.array(run_column(draw, int_pool + [0, -1], n), dtype=np.int64),
        "flag": np.array(run_column(draw, [True, False], n), dtype=bool),
        "label": run_column(draw, draw(st.lists(plain_labels, min_size=1,
                                                max_size=3)), n),
        "shared": draw(st.one_of(floats, st.integers(-9, 9), st.booleans())),
    }


@settings(max_examples=300, deadline=None)
@given(run_tables())
def test_serializer_matches_reference_on_runs(table):
    """As test_serializer_matches_reference, on columns made of runs."""
    doc = {**table, "count": len(table["label"])}
    assert printed(_emit_json, doc, None) == reference_json(doc)
    for fmt in ("json", "csv"):
        args = SimpleNamespace(format=fmt, output=None)
        rows = table_rows(table)
        want = reference_json(rows) if fmt == "json" else reference_csv(rows)
        assert printed(_emit_rows, table, args) == want


def test_one_label_needing_quotes_among_plain_ones():
    labels = [f"s{i}" for i in range(500)]
    labels[317] = 'a,"b"'
    table = {"label": labels, "k": np.arange(500)}
    out = printed(_emit_rows, table, SimpleNamespace(format="csv", output=None))
    lines = out.splitlines()
    assert lines[318] == '"a,""b""",317'
    assert lines[1] == "s0,0" and lines[500] == "s499,499"
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert header == ["label", "k"]
    assert [row[0] for row in rows] == labels


class TestGridOption:
    @pytest.mark.parametrize("grid", ["-3", "-1"])
    def test_negative_grid_is_a_parameter_error(self, capsys, ex1_path, grid):
        code, out, err = run(capsys, "schedule", "--input", ex1_path, "--grid", grid)
        assert (code, out) == (1, "")
        assert err == f"error: --grid must be a non-negative integer, got {grid}\n"

    def test_zero_grid_sweeps_the_breakpoints_only(self, capsys, ex1_path):
        code, out, _ = run(capsys, "schedule", "--input", ex1_path, "--grid", "0")
        assert code == 0
        alphas = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert alphas == pytest.approx([0.0, 1 / 16, 1 / 4, 17 / 32])


class TestInputFixups:
    SUBCOMMANDS = [
        ["schedule"], ["code", "--alpha", "0.3"], ["limited", "--llim", "3"],
        ["exp", "--t", "2", "--alpha", "0.5"], ["waterfill", "--alpha", "0.3"],
        ["extend", "--n", "2", "--alpha", "0.3"], ["ingest"],
    ]

    @staticmethod
    def fixups(caplog):
        return [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING" and r.name == "mergecode"]

    @pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
    def test_every_subcommand_warns_once(self, capsys, caplog, tmp_path, argv):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"radix": 2, "probabilities": [0.5, 0.3]}))
        code, _, _ = run(capsys, argv[0], "--input", str(path), *argv[1:])
        assert code == 0
        assert self.fixups(caplog) == ["input_fixup renormalized=1 dropped=0"]

    def test_dropped_zeros_are_counted(self, capsys, caplog, tmp_path):
        path = tmp_path / "zeros.json"
        path.write_text('{"radix": 2, "probabilities": [0.5, 0.0, 0.5, 0.0]}')
        code, _, _ = run(capsys, "code", "--input", str(path), "--alpha", "0.1",
                         "--drop-zeros")
        assert code == 0
        assert self.fixups(caplog) == ["input_fixup renormalized=0 dropped=2"]
        path.write_text('{"radix": 2, "counts": {"a": 3, "b": 0, "c": 1}}')
        run(capsys, "code", "--input", str(path), "--alpha", "0.1")
        assert self.fixups(caplog)[1:] == ["input_fixup renormalized=0 dropped=1"]

    def test_no_warning_without_a_fixup(self, capsys, caplog, ex1_path, ex2_path):
        for path in (ex1_path, ex2_path):
            run(capsys, "code", "--input", path, "--alpha", "0.3")
        assert self.fixups(caplog) == []

    def test_warning_is_one_stderr_line_and_stdout_is_unchanged(self, tmp_path):
        src = str(Path(mergecode.__file__).parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "MERGECODE_LOG"}
        env["PYTHONPATH"] = src
        outs = {}
        for name, probs in (("short", [0.5, 0.3]), ("exact", [0.625, 0.375])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"radix": 2, "probabilities": probs}))
            outs[name] = subprocess.run(
                [sys.executable, "-m", "mergecode.cli", "code", "--input",
                 str(path), "--alpha", "0.3"],
                capture_output=True, text=True, env=env,
            )
        assert outs["short"].returncode == outs["exact"].returncode == 0
        assert outs["short"].stderr == (
            "WARNING mergecode: input_fixup renormalized=1 dropped=0\n"
        )
        assert outs["exact"].stderr == ""
        assert outs["short"].stdout == outs["exact"].stdout


# ---------------------------------------------------------------------------
# Edge sources through every subcommand, in both formats: the exit code is
# the documented one, the output parses, and every float printed reads back
# from its own ``FLOAT_FMT`` text.

EDGE_SOURCES = {
    "single": [1.0],
    "ties": [0.25, 0.25, 0.25, 0.25],
    "subnormal": [1.0, 5e-324],
    "renormalized": [0.5, 0.3],
}
EDGE_COMMANDS = [
    ["schedule"],
    ["schedule", "--grid", "11"],
    ["schedule", "--grid", "11", "--per-symbol"],
    ["code", "--alpha", "1"],
    ["limited", "--llim", "3"],
    ["exp", "--t", "2", "--alpha", "1"],
    ["waterfill", "--alpha", "1"],
    ["extend", "--n", "2", "--alpha", "1"],
    ["ingest"],
]


def edge_exit_code(source: str, argv: list) -> int:
    # a block of two subnormal-probability symbols underflows to 0
    return 1 if argv[0] == "extend" and source == "subnormal" else 0


def printed_floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, list):
        for v in obj:
            yield from printed_floats(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from printed_floats(v)


def reads_back(x: float) -> bool:
    return x != x or float(FLOAT_FMT % x) == x


@pytest.mark.parametrize("source", EDGE_SOURCES)
@pytest.mark.parametrize("argv", EDGE_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_edge_sources_through_every_subcommand(capsys, tmp_path, source, argv, fmt):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"radix": 2, "probabilities": EDGE_SOURCES[source]}))
    code, out, err = run(capsys, argv[0], "--input", str(path), *argv[1:],
                         "--format", fmt)
    assert code == edge_exit_code(source, argv), err
    if code:
        assert out == "" and err.startswith("error: ")
        return
    if fmt == "json":
        values = list(printed_floats(json.loads(out)))
        assert values and all(map(reads_back, values))
        return
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)
    for row in rows:
        for key, cell in zip(header, row):
            if key != "label" and cell not in ("true", "false"):
                assert FLOAT_FMT % float(cell) == cell


def test_subnormal_source_prints_a_subnormal(capsys, tmp_path):
    """The subnormal edge source reaches the encoder's branch of the rule.

    Its 12-digit cell is not the shortest text of its double, so the JSON
    float is not the cell.
    """
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"radix": 2, "probabilities": [1.0, 5e-324]}))
    argv = ["schedule", "--input", str(path), "--grid", "3", "--format"]
    code, out, _ = run(capsys, *argv, "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("0,5.30132437988e-321,")
    code, out, _ = run(capsys, *argv, "json")
    assert code == 0
    assert '"payoff": 5.3e-321,' in out
    assert json.loads(out)[0]["payoff"] == float("5.30132437988e-321")


# ---------------------------------------------------------------------------
# Golden outputs: every subcommand x format on a few small sources, pinned by
# the sha256 of its stdout, its exit code and its stderr.  Print the current
# values with ``PYTHONPATH=src python tests/test_cli.py``.

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"
GOLDEN_SOURCES = {
    "ex1.json": EX1,
    "ex2.json": EX2,
    "one.json": {"radix": 2, "probabilities": [1.0]},
    "r3.json": {
        "radix": 3,
        "probabilities": [0.1, 0.3, 0.2, 0.2, 0.15, 0.05],
        "labels": ["x y", "ünï", "z", "w", "v", "u"],
    },
}
# bytes with ties in their counts, so first-occurrence order shows
GOLDEN_RAW = b"abracadabra \xff\x00\x80\xff mergecode\x00"
GOLDEN_COMMANDS = [
    ["schedule"],
    ["schedule", "--grid", "11"],
    ["schedule", "--grid", "11", "--per-symbol"],
    ["code", "--alpha", "0.3"],
    ["code", "--alpha", "0.0"],
    ["code", "--alpha", "1.0"],
    ["limited", "--llim", "3.5"],
    ["limited", "--llim", "0.5"],
    ["exp", "--t", "2.0", "--alpha", "0.5"],
    ["exp", "--t", "0.0", "--alpha", "0.5"],
    ["waterfill", "--alpha", "0.3"],
    ["waterfill", "--level", "0.1"],
    ["waterfill", "--level", "0.9"],
    ["extend", "--n", "2", "--alpha", "0.3"],
    ["ingest"],
]


def golden_outputs(workdir: Path) -> dict:
    """Run every golden invocation; key is the argv with bare file names."""
    import hashlib

    for name, doc in GOLDEN_SOURCES.items():
        (workdir / name).write_text(json.dumps(doc))
    (workdir / "bytes.bin").write_bytes(GOLDEN_RAW)
    invocations = [
        [cmd[0], "--input", name, *cmd[1:], "--format", fmt]
        for name in GOLDEN_SOURCES
        for cmd in GOLDEN_COMMANDS
        for fmt in ("json", "csv")
    ]
    invocations += [
        ["ingest", "--input", "bytes.bin", "--raw", "--format", fmt]
        for fmt in ("json", "csv")
    ]
    out = {}
    for argv in invocations:
        real = [str(workdir / a) if a in GOLDEN_SOURCES or a == "bytes.bin" else a
                for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(real)
        out[" ".join(argv)] = {
            "stdout_sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
            "exit": code,
            "stderr": stderr.getvalue(),
        }
    return out


def test_golden_outputs(tmp_path):
    want = json.loads(GOLDEN_PATH.read_text())
    got = golden_outputs(tmp_path)
    assert set(got) == set(want)
    for argv in want:
        assert got[argv] == want[argv], argv


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(golden_outputs(Path(tmp)), sys.stdout, indent=1, ensure_ascii=False)
        sys.stdout.write("\n")
