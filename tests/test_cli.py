import json

import numpy as np
import pytest

from mergecode.cli import main

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


class TestErrors:
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
