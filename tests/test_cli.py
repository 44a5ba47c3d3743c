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
from mergecode.cli import FLOAT_FMT, _emit_json, _emit_rows, main

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
