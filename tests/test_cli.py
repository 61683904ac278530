import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import kruskal

from mstratio import cli
from mstratio.cli import build_parser, main
from mstratio.lattice import Metric, cloud_from_doc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestRatio:
    def test_fig8(self, capsys):
        code, out = run(capsys, "ratio", "--construction", "fig8")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(122 / 99, abs=1e-9)
        assert doc["class_lengths"] == [48.0, 74.0]
        assert doc["len_total"] == 99.0

    def test_packing_with_torus_flag(self, capsys):
        code, out = run(capsys, "ratio", "--construction", "packing:quarter",
                        "--torus", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(1997 / 1599, abs=1e-9)

    def test_input_file_whole_set_blue(self, capsys, tmp_path):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "topology": {"type": "plane"},
            "coords": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "colors": [0, 0, 0, 0],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "ratio", "--in", str(path))
        assert code == 0
        assert json.loads(out)["ratio"] == 1.0

    def test_unknown_construction_exits_three(self, capsys):
        code, _ = run(capsys, "ratio", "--construction", "nonesuch")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("--construction", "fig8", "--n", "8"),
        ("--construction", "packing:quarter", "--torus", "8", "--r", "3"),
        ("--construction", "stretched:r=20:n=3"),
    ])
    def test_parameter_not_taken_exits_three(self, capsys, argv):
        code = main(["ratio", *argv])
        captured = capsys.readouterr()
        assert code == 3
        assert not captured.out
        assert "takes no parameter" in captured.err

    def test_inline_family_names_the_family(self, capsys):
        outs = [
            run(capsys, "ratio", "--construction", desc)
            for desc in ("packing:family=ninth:n=12", "packing:ninth:n=12")
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and outs[0][1]

    def test_non_numeric_value_exits_three(self, capsys):
        code = main(["ratio", "--construction", "stretched:r=abc"])
        captured = capsys.readouterr()
        assert code == 3
        assert not captured.out
        assert captured.err.startswith("error: ")

    def test_torus_zero_rejected_like_n_zero(self, capsys):
        results = []
        for flag in ("--torus", "--n"):
            code = main(["ratio", "--construction", "packing:quarter", flag, "0"])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        assert results[0] == results[1]
        assert results[0][0] == 3 and results[0][2].startswith("error: ")

    def test_torus_and_n_are_one_option(self, capsys):
        outs = [
            run(capsys, "ratio", "--construction", "packing:quarter", flag, "6")
            for flag in ("--torus", "--n")
        ]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0
        assert json.loads(outs[0][1])["class_counts"] == [9, 27]


class TestSweep:
    def test_quarter_closed_form(self, capsys):
        code, out = run(capsys, "sweep", "--family", "quarter", "--values", "4:12:2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "param,ratio,closed_form,abs_diff"
        assert len(lines) == 6
        for line in lines[1:]:
            _, ratio, closed, diff = line.split(",")
            assert abs(float(ratio) - float(closed)) < 1e-9
            assert float(diff) < 1e-9

    def test_value_list(self, capsys):
        code, out = run(capsys, "sweep", "--family", "checkerboard",
                        "--values", "4,6")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_stretched_family_matches_closed_form(self, capsys):
        code, out = run(capsys, "sweep", "--family", "stretched",
                        "--values", "9,15,30")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) < 1e-9

    def test_parallel_matches_sequential(self, capsys, monkeypatch):
        _, seq = run(capsys, "sweep", "--family", "quarter", "--values", "4:10:2")
        monkeypatch.setenv("MSTRATIO_THREADS", "2")
        _, par = run(capsys, "sweep", "--family", "quarter", "--values", "4:10:2")
        assert seq == par

    def test_integer_family_range_has_no_duplicates(self, capsys):
        code, out = run(capsys, "sweep", "--family", "checkerboard", "--values", "4:8:2")
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["4", "6", "8"]

    @pytest.mark.parametrize("values", ["4:6:0.5", "4.5", "4:6:0"])
    def test_integer_family_rejects_fractional_or_empty_steps(self, capsys, values):
        code, out = run(capsys, "sweep", "--family", "checkerboard", "--values", values)
        assert code == 3
        assert out == ""


class TestSweepWorkers:
    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

        sizes = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    def test_workers_clamped_to_sweep_values(self, capsys, monkeypatch):
        _, seq = run(capsys, "sweep", "--family", "quarter", "--values", "4:8:2")
        self.RecordingPool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.RecordingPool)
        monkeypatch.setenv("MSTRATIO_THREADS", "1000")
        code, par = run(capsys, "sweep", "--family", "quarter", "--values", "4:8:2")
        assert code == 0 and par == seq
        assert self.RecordingPool.sizes == [3]

    def test_single_value_runs_in_process(self, capsys, monkeypatch):
        self.RecordingPool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.RecordingPool)
        monkeypatch.setenv("MSTRATIO_THREADS", "8")
        code, _ = run(capsys, "sweep", "--family", "quarter", "--values", "4")
        assert code == 0 and self.RecordingPool.sizes == []

    def test_fractional_value_rejected_before_any_worker(self, capsys, monkeypatch):
        self.RecordingPool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", self.RecordingPool)
        monkeypatch.setenv("MSTRATIO_THREADS", "2")
        code = main(["sweep", "--family", "checkerboard", "--values", "4:6:0.5"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "n must be a 64-bit integer, not 4.5" in captured.err
        assert self.RecordingPool.sizes == []

    @pytest.mark.parametrize("values", ["4:1000000:1", "4:10004:1", "4:inf:1", "nan:8"])
    def test_range_of_too_many_values_exits_three(self, capsys, monkeypatch, values):
        def refuse(*args, **kwargs):
            raise AssertionError("no sweep value may be built")

        monkeypatch.setattr(cli, "build_construction", refuse)
        code = main(["sweep", "--family", "checkerboard", "--values", values])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "must yield at most 10000 values" in captured.err

    def test_range_of_the_most_values_is_built(self):
        assert len(cli._parse_values("4:10003:1")) == cli.SWEEP_VALUES

    @pytest.mark.parametrize("threads", ["two", "2.5", ""])
    def test_non_integer_threads_exit_two(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("MSTRATIO_THREADS", threads)
        code = main(["sweep", "--family", "quarter", "--values", "4:8:2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "MSTRATIO_THREADS must be an integer" in captured.err

    def test_import_loads_no_process_pool(self):
        probe = "import sys, mstratio.cli; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.strip() == "False"


class TestInvariantViolation:
    def test_failed_invariant_exits_six(self, capsys, monkeypatch):
        from mstratio import constructions

        monkeypatch.setattr(constructions, "supmax_check", lambda report: False)
        code = main(["ratio", "--construction", "fig8"])
        captured = capsys.readouterr()
        assert code == 6
        assert captured.out == ""
        assert "internal invariant violated" in captured.err


class TestGen:
    def test_reproducible_bytes(self, capsys):
        _, out1 = run(capsys, "gen", "--construction", "collapse:n=5,eps=0.001")
        _, out2 = run(capsys, "gen", "--construction", "collapse:n=5,eps=0.001")
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["coords"] is None
        assert len(doc["cartesian"]) == 5
        assert doc["colors"].count(0) == 2

    def test_lattice_doc(self, capsys):
        _, out = run(capsys, "gen", "--construction", "packing:third", "--torus", "6")
        doc = json.loads(out)
        assert doc["topology"] == {"type": "torus", "n": 6}
        assert len(doc["coords"]) == 36
        assert doc["colors"].count(0) == 12


class TestBrute:
    def test_checkerboard_two(self, capsys):
        code, out = run(capsys, "brute", "--construction", "checkerboard:n=2")
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-9)

    @pytest.mark.parametrize("max_points", ["64", "25", "0"])
    def test_max_points_beyond_the_ceiling_exits_two(self, capsys, max_points):
        # 64 points would start on 2^63 partitions
        with pytest.raises(SystemExit) as exc:
            main(["brute", "--construction", "packing:quarter", "--torus", "8",
                  "--max-points", max_points])
        assert exc.value.code == 2
        assert "--max-points" in capsys.readouterr().err

    def test_max_points_at_the_ceiling_accepted(self, capsys):
        code, out = run(capsys, "brute", "--construction", "packing:quarter", "--torus", "4",
                        "--max-points", "24")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(17 / 15, abs=1e-9)


#: sha256 of the stdout and the trace CSV of the default 10,000-step anneal on
#: the 6-torus, recorded before single classes were measured by the list Prim
ANNEAL_DIGESTS = [
    (1, "974eb5fd7eb6d1aab661610fdf781cf8fe13c89ea356ee1e8d9093fd7c1c9a1e", "623508f397cc757903adf3b02096cf2ffee6a43e385f2db17d1f8ccc949037a1"),
    (2, "86d9ba5842a19933990dc5b5b1fccc3eed1f97a55c6bfd1c7450362a1b745b35", "df5a7c3a061958555f73a7efd6d9b7580d90b0e4b35755e470645f87d45fdfdf"),
    (3, "5118427f4061145bc25adf6fc93685490173b2a161bf54d4c489d7d4efbb7644", "dbdaaed6a727da74c29082dad060b493b4e6e7af19ca843a32fbee15ea258330"),
    (4, "606c25c7aab814ee39b362797d82ac789b0f2aebfac2fef28adf9ec8b91b1841", "e5b1ee319ae5aa527f599eff2c6bcce584223b5afc8381ddd4e57d853ce80e0d"),
    (5, "9a73f60062f786d64e43c8f18e78786d9b6b96b4b140885bcd460bed71a543db", "d8e66ff4782a8757099319406055802c985f13bee0030b12f10aa02cf7e148a9"),
    (6, "da7436c08c41868a69c93045a31caa942477d98b8e20f9c76f2daa0d94f39236", "2fbc53ea5c01fd0c16bca476217056d694e40c368012bb5f3d469796a6bcf952"),
    (7, "36ee0ddf0cbf2ce0346f9f8b6440a5a30eafd04e4896cde6924caa5f19518d62", "288a957bb8efac178128623da8aa2dbf92775dcb79074b434e53a455b3ce6312"),
    (8, "b12dfb5f6455f6bf500da1e6bf7c970c9ae5b4c0bfa87c67101ba2c7a43cb2d1", "b1a501f1ea95e92ce9f82226d3a2fa8695ebef37629769bf764e309c75028e95"),
    (9, "b2620864ecea68a00730784bd1fec0ba44a898414e7c9f2bfcb96e94e2d8c035", "b7efdd7722b47d207d4d78f800097176b40d98bf21f5f29fd4d2f0676298a7bf"),
    (10, "71af39e901733e4ec1cc2aaf3d644056d0f7ad34f1f7fc797e3bd63c9e37299b", "e6f852a7f63467882334ea8133ebcf04d78732d861851bd3b2e0e2cbee9fb395"),
]


class TestAnneal:
    def test_seeded_run_reproducible(self, capsys, tmp_path):
        trace1 = tmp_path / "a.csv"
        trace2 = tmp_path / "b.csv"
        best = tmp_path / "best.json"
        args = ["anneal", "--construction", "packing:quarter", "--torus", "4",
                "--seed", "7", "--budget", "1000"]
        code, out1 = run(capsys, *args, "--trace", str(trace1), "--best-out", str(best))
        assert code == 0
        _, out2 = run(capsys, *args, "--trace", str(trace2))
        assert out1 == out2
        assert trace1.read_text() == trace2.read_text()
        doc = json.loads(out1)
        assert doc["best_ratio"] >= 17 / 15 - 1e-9
        # the best coloring round-trips through the canonical document
        best_doc = json.loads(best.read_text())
        assert best_doc["colors"] == doc["best_labels"]
        code, out3 = run(capsys, "ratio", "--in", str(best))
        assert code == 0
        assert json.loads(out3)["ratio"] == pytest.approx(doc["best_ratio"], abs=1e-9)

    @pytest.mark.parametrize("seed,out_digest,trace_digest", ANNEAL_DIGESTS)
    def test_torus6_outputs_pinned(self, capsys, tmp_path, seed, out_digest, trace_digest):
        trace = tmp_path / "trace.csv"
        code, out = run(capsys, "anneal", "--construction", "packing:quarter", "--torus", "6",
                        "--seed", str(seed), "--trace", str(trace))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_nonpositive_budget_rejected(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["anneal", "--construction", "packing:quarter", "--torus", "4",
                  "--budget", budget])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize("coords", [[[0, 0]], []])
    @pytest.mark.parametrize("init", ["random", "given"])
    def test_fewer_than_two_points_exit_three(self, capsys, tmp_path, coords, init):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"basis": {"u": [1, 0], "v": [0, 1]}, "coords": coords}))
        code = main(["anneal", "--in", str(path), "--init", init])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: need at least two points\n"


class TestHabitat:
    def test_quarter_summary(self, capsys):
        code, out = run(capsys, "habitat", "--construction", "packing:quarter",
                        "--torus", "8")
        assert code == 0
        doc = json.loads(out)
        lv = doc["levels"]["1"]
        assert [lv["rooms"], lv["houses"], lv["blocks"], lv["compounds"]] == [16, 16, 1, 1]
        assert lv["beta"] == 32

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_nonpositive_k_max_rejected(self, capsys, k_max):
        with pytest.raises(SystemExit) as exc:
            main(["habitat", "--construction", "packing:quarter", "--torus", "8",
                  "--k-max", k_max])
        assert exc.value.code == 2
        assert "--k-max" in capsys.readouterr().err


class TestParser:
    def test_built_once_and_reused(self, capsys):
        assert build_parser() is build_parser()
        quarter = ["habitat", "--construction", "packing:quarter", "--torus", "12"]
        code, out = run(capsys, *quarter, "--k-max", "2")
        assert code == 0 and sorted(json.loads(out)["levels"]) == ["1", "2"]
        code, out = run(capsys, *quarter)  # the default k-max again
        assert code == 0 and sorted(json.loads(out)["levels"]) == ["1"]
        with pytest.raises(SystemExit) as exc:
            main([*quarter, "--k-max", "0"])
        assert exc.value.code == 2


class TestPersist:
    def test_fig8_norms(self, capsys, tmp_path):
        diagram = tmp_path / "dgm.csv"
        code, out = run(capsys, "persist", "--construction", "fig8",
                        "--policy", "exclude", "--diagram-out", str(diagram))
        assert code == 0
        doc = json.loads(out)
        assert doc["domain_norm"] == 61.0
        assert doc["image_norm"] == 49.5
        assert doc["ratio_from_norms"] == pytest.approx(122 / 99, abs=1e-9)
        body = diagram.read_text().strip().splitlines()
        assert body[0] == "birth,death"
        assert sum(1 for line in body if line.endswith(",inf")) == 2


class TestRender:
    def test_deterministic_svg(self, capsys, tmp_path):
        p1 = tmp_path / "a.svg"
        p2 = tmp_path / "b.svg"
        assert main(["render", "--construction", "fig8", "--out", str(p1)]) == 0
        assert main(["render", "--construction", "fig8", "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.count("<circle") == 100
        assert text.count("<line") == 24 + 74

    def test_thickening_fills(self, capsys, tmp_path):
        p = tmp_path / "t.svg"
        code = main(["render", "--construction", "packing:quarter", "--torus", "8",
                     "--thicken", "1", "--out", str(p)])
        capsys.readouterr()
        assert code == 0
        assert p.read_text().count("<polygon") == 16

    def test_singleton_renders_one_dot_no_edges(self, capsys, tmp_path):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "topology": {"type": "plane"},
            "coords": [[0, 0]],
            "colors": [0],
        }
        src = tmp_path / "one.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "one.svg"
        code = main(["render", "--in", str(src), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        text = out.read_text()
        assert text.count("<circle") == 1
        assert text.count("<line") == 0


class TestAudit:
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_samples_rejected(self, capsys, samples):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--samples", samples])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("k_max", ["0", "-5"])
    def test_nonpositive_k_max_rejected(self, capsys, k_max):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--samples", "2", "--k-max", k_max])
        assert exc.value.code == 2
        assert "--k-max" in capsys.readouterr().err

    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "audit", "--samples", "25", "--k-max", "50")
        assert code == 0
        assert "FAIL" not in out
        assert "k=1 anomaly" in out


class TestTypedInputs:
    """Construction parameters, torus periods, coordinates and colors are typed."""

    @pytest.mark.parametrize("descriptor", [
        "packing:quarter:n=8.5", "checkerboard:n=6.5", "threeway:n=9.9", "collapse:n=5.5",
        "stretched:r=inf", "stretched:r=nan", "collapse:eps=nan",
    ])
    def test_mistyped_parameter_exits_three(self, capsys, descriptor):
        code = main(["ratio", "--construction", descriptor])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must be" in captured.err

    def test_mistyped_flag_exits_three(self, capsys):
        code = main(["ratio", "--construction", "stretched", "--r", "inf"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""

    @pytest.mark.parametrize("change", [
        {"topology": {"type": "torus", "n": 2.5}},
        {"coords": [[0, 0], [3.5, 0], [0, 1]]},
        {"colors": [0, 1, 1.7]},
    ], ids=["torus-period", "coordinate", "color"])
    def test_fractional_document_exits_three(self, capsys, tmp_path, change):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "topology": {"type": "plane"},
            "coords": [[0, 0], [1, 0], [0, 1]],
            "colors": [0, 1, 1],
            **change,
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "must be a 64-bit integer" in captured.err

    def test_nested_colors_exit_three(self, capsys, tmp_path):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "coords": [[0, 0], [1, 0], [0, 1]],
            "colors": [[0], [1], [1]],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "colors must be a flat list" in captured.err

    @pytest.mark.parametrize("topology", [{"type": "sphere"}, {"type": "Torus", "n": 4}, {}],
                             ids=["sphere", "capitalized", "no-type"])
    def test_unknown_topology_type_exits_three(self, capsys, tmp_path, topology):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "coords": [[0, 0], [1, 0], [0, 1]],
            "colors": [0, 1, 1],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        assert main(["ratio", "--in", str(path)]) == 0  # no topology reads as the plane
        capsys.readouterr()
        path.write_text(json.dumps({**doc, "topology": topology}))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "topology type must be 'plane' or 'torus'" in captured.err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_cartesian_document_exits_three(self, capsys, tmp_path, bad):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "coords": None,
            "cartesian": [[0.0, 0.0], [1.0, bad], [0.0, 1.0]],
            "colors": [0, 1, 1],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "cartesian coordinates must be finite" in captured.err

    @pytest.mark.parametrize("colors", [[0, 1, 3], [0, 1, 100000], [0, 1, 10**9]])
    def test_color_of_point_count_or_more_exits_three(self, capsys, tmp_path, colors):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "coords": [[0, 0], [1, 0], [0, 1]],
            "colors": colors,
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: colors must be below the point count 3\n"

    @pytest.mark.parametrize("u", [[1e200, 0.0], [1e154, 0.0], [math.nan, 0.0]],
                             ids=["1e200", "1e154", "nan"])
    def test_non_finite_gram_document_exits_three(self, capsys, tmp_path, u):
        doc = {
            "basis": {"u": u, "v": [0.0, 1.0]},
            "coords": [[0, 0], [1, 0], [0, 1]],
            "colors": [0, 1, 1],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: Gram entries of ")
        assert "are not finite" in captured.err

    def test_cartesian_spread_overflow_exits_three(self, capsys, tmp_path):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "coords": None,
            "cartesian": [[0.0, 0.0], [1e153, 0.0], [0.0, 1.0]],
            "colors": [0, 1, 1],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "ratio", "--in", str(path))
        assert code == 0 and json.loads(out)["len_total"] == 1e153
        doc["cartesian"][1][0] = 1e200
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: squared cartesian spreads must be finite\n"

    def test_integral_float_colors_accepted(self, capsys, tmp_path):
        doc = {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "coords": [[0, 0], [1, 0], [0, 1]],
            "colors": [0, 1.0, 2.0],
        }
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "ratio", "--in", str(path))
        assert code == 0
        assert json.loads(out)["class_counts"] == [1, 1, 1]

    def test_sweep_families_come_from_the_registry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--family", "seven", "--values", "1"])
        assert exc.value.code == 2
        listed = capsys.readouterr().err.split("choose from ")[1]
        assert {name.strip("'\") \n") for name in listed.split(",")} == {
            "stretched", "quarter", "third", "seventh", "ninth", "checkerboard", "threeway"
        }


class TestLatticeSpread:
    """A lattice cloud whose squared offsets could pass 2**53 is refused."""

    @staticmethod
    def document(far, topology=None):
        return {
            "basis": {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            "topology": topology or {"type": "plane"},
            "coords": [[0, 0], [far, 0], [0, 1]],
            "colors": [0, 1, 1],
        }

    @pytest.mark.parametrize("doc", [
        document(3.1e9), document(2**62), document(3.0e9),
        document(1e9, {"type": "torus", "n": 3.1e9}),
    ], ids=["3.1e9", "2**62", "3.0e9", "torus-3.1e9"])
    def test_spread_overflow_exits_three(self, capsys, tmp_path, doc):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(doc))
        code = main(["ratio", "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: lattice coordinate spread ")
        assert captured.err.endswith("is too wide for exact squared lengths\n")

    def test_spread_at_the_bound_is_exact(self, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(self.document(2**26)))
        code, out = run(capsys, "ratio", "--in", str(path))
        assert code == 0 and json.loads(out)["len_total"] == 2**26 + 1


#: out-of-contract and boundary values for each field of a document
_ODD = {
    "coords": [0.5, 2**26, 3.1e9, 2**62, math.nan, math.inf],
    "cartesian": [1e153, 1e300, math.nan, -math.inf],
    "colors": [0.5, -1, 10**9, math.nan],
    "n": [2.5, 1, 2**26, 3.1e9, math.inf],
    "u": [1e200, 3.1e9, 2**26, math.nan],
}


@st.composite
def ratio_documents(draw):
    """Small `ratio --in` documents: a valid one, or one with a field replaced
    by a fractional, huge, NaN or infinite value, an unknown topology or a
    degenerate basis."""
    size = draw(st.integers(1, 5))
    point = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    doc = {
        "basis": draw(st.sampled_from([
            {"u": [1.0, 0.0], "v": [0.0, 1.0]},
            {"u": [1.0, 0.0], "v": [0.5, math.sqrt(3.0) / 2.0]},
            {"u": [2.0, 0.0], "v": [0.3, 1.7]},
        ])),
        "topology": draw(st.sampled_from([{"type": "plane"}] * 2 + [{"type": "torus", "n": 7}])),
        "coords": [list(p) for p in draw(st.lists(point, min_size=size, max_size=size, unique=True))],
        "colors": draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size)),
    }
    if draw(st.booleans()):
        doc["cartesian"] = [[x / 2, y / 3] for x, y in doc["coords"]]
        doc["coords"] = None
        doc["topology"] = {"type": "plane"}
    points = "coords" if doc["coords"] else "cartesian"
    change = draw(st.one_of(st.none(), st.sampled_from([points, points, "colors", "n", "type", "u"])))
    if change == points:
        row = doc[points][draw(st.integers(0, size - 1))]
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(_ODD[points]))
    elif change == "colors":
        doc["colors"][draw(st.integers(0, size - 1))] = draw(st.sampled_from(_ODD["colors"] + [size]))
    elif change == "n":
        doc["topology"] = {"type": "torus", "n": draw(st.sampled_from(_ODD["n"]))}
    elif change == "type":
        doc["topology"] = draw(st.sampled_from([{"type": "sphere"}, {"type": "Torus", "n": 4}, {}]))
    elif change == "u":
        doc["basis"] = draw(st.sampled_from([
            {"u": [draw(st.sampled_from(_ODD["u"])), 0.0], "v": [0.0, 1.0]},
            {"u": [1.0, 0.0], "v": [2.0, 0.0]},
        ]))
    return doc


@given(doc=ratio_documents())
@example(doc={  # one-point classes measured under a Gram entry above int64
    "basis": {"u": [3.1e9, 0.0], "v": [0.0, 1.0]}, "topology": {"type": "plane"},
    "coords": [[0, 0], [0, 1]], "colors": [0, 1],
})
@settings(max_examples=500, deadline=None)
def test_ratio_document_exits_with_the_oracle_ratio_or_a_typed_error(tmp_path_factory, doc):
    # an untyped exception escapes `main` (exit 1), and exit 6 is an internal bug
    path = tmp_path_factory.getbasetemp() / "points.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        code = main(["ratio", "--in", str(path)])
    assert code in (0, 3), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error: ")
        return
    assert doc["topology"]["type"] in ("plane", "torus")
    cloud, colors = cloud_from_doc(doc)
    labels = np.asarray(colors, dtype=float).astype(np.int64)
    assert labels.min() >= 0 and labels.max() < cloud.size

    def length(idx):
        tree = kruskal(cloud.subset(idx), Metric.euclidean(cloud.topology))
        return math.fsum(math.sqrt(e[2]) for e in tree)

    lengths = [length(np.flatnonzero(labels == c)) for c in range(max(2, labels.max() + 1))]
    expected = math.fsum(lengths) / length(np.arange(cloud.size))
    assert json.loads(out.getvalue())["ratio"] == pytest.approx(expected, rel=1e-9)
