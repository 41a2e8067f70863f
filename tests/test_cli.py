"""End-to-end command line tests, run through subprocess.

Exit code contract: 0 = YES or success, 1 = NO or failed verification,
2 = usage and validation errors.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

MODULE = [sys.executable, "-m", "flipdist"]


def run_cli(*args: str):
    return subprocess.run(MODULE + list(args), capture_output=True, text=True)


def run_cli_bytes(*args: str):
    return subprocess.run(MODULE + list(args), capture_output=True)


@pytest.fixture
def instance_file(tmp_path):
    """A convex 8-gon instance whose target is 3 random flips away."""
    proc = run_cli("gen", "--mode", "convex", "--n", "8", "--walk", "3",
                   "--seed", "5", "--k", "3")
    assert proc.returncode == 0
    path = tmp_path / "inst.flipdist"
    path.write_text(proc.stdout, encoding="utf-8")
    return path


class TestGen:
    def test_deterministic_bytes(self):
        a = run_cli_bytes("gen", "--mode", "random", "--n", "7", "--seed", "3", "--walk", "4")
        b = run_cli_bytes("gen", "--mode", "random", "--n", "7", "--seed", "3", "--walk", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout.startswith(b"flipdist 1\n")

    def test_seed_changes_output(self):
        a = run_cli("gen", "--mode", "random", "--n", "7", "--seed", "1")
        b = run_cli("gen", "--mode", "random", "--n", "7", "--seed", "2")
        assert a.stdout != b.stdout

    def test_k_line_emitted(self):
        proc = run_cli("gen", "--mode", "convex", "--n", "5", "--k", "4")
        assert proc.returncode == 0
        assert "k 4\n" in proc.stdout

    def test_too_few_points(self):
        proc = run_cli("gen", "--mode", "convex", "--n", "2")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    @pytest.mark.parametrize("args", [("gen", "--mode", "convex"), ("gen", "--mode", "random"),
                                      ("oracle", "--stats")])
    def test_negative_n_quoted(self, args):
        proc = run_cli(*args, "--n", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "got -1" in proc.stderr

    def test_negative_walk_rejected(self):
        assert run_cli("gen", "--mode", "convex", "--n", "5", "--walk", "-1").returncode == 2


class TestSolve:
    def test_distance_and_witness(self, instance_file):
        proc = run_cli("solve", "--in", str(instance_file))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("distance=")
        d = int(lines[0].partition("=")[2])
        assert len([l for l in lines[1:] if "->" in l]) == d

    def test_budget_too_small(self, instance_file):
        proc = run_cli("solve", "--in", str(instance_file), "--max-k", "0")
        assert proc.returncode == 1
        assert proc.stdout == "distance=>0\n"

    def test_decide_yes_and_no(self, instance_file, tmp_path):
        proc = run_cli("solve", "--in", str(instance_file), "--decide")
        assert proc.stdout == "decision=YES\n" and proc.returncode == 0

        text = instance_file.read_text(encoding="utf-8")
        for k in ("2", "9"):  # below and above the distance of 3
            wrong = tmp_path / f"k{k}.flipdist"
            wrong.write_text(text.replace("k 3", f"k {k}"), encoding="utf-8")
            proc = run_cli("solve", "--in", str(wrong), "--decide")
            assert proc.stdout == "decision=NO\n" and proc.returncode == 1

        same = run_cli("gen", "--mode", "convex", "--n", "8", "--k", "0")
        equal = tmp_path / "equal.flipdist"
        equal.write_text(same.stdout, encoding="utf-8")
        proc = run_cli("solve", "--in", str(equal), "--decide")
        assert proc.stdout == "decision=YES\n" and proc.returncode == 0

    def test_decide_needs_k_line(self, instance_file, tmp_path):
        text = instance_file.read_text(encoding="utf-8").replace("k 3\n", "")
        nok = tmp_path / "nok.flipdist"
        nok.write_text(text, encoding="utf-8")
        assert run_cli("solve", "--in", str(nok), "--decide").returncode == 2

    def test_trace_comments(self, instance_file):
        proc = run_cli("solve", "--in", str(instance_file), "--trace")
        assert proc.returncode == 0
        assert "# composition " in proc.stdout
        assert "# iteration 1: start " in proc.stdout

    def test_missing_file(self):
        assert run_cli("solve", "--in", "/nonexistent.flipdist").returncode == 2

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.flipdist"
        bad.write_text("flipdist 2\n", encoding="utf-8")
        proc = run_cli("solve", "--in", str(bad))
        assert proc.returncode == 2

    def test_backend_flags_agree(self, instance_file, tmp_path):
        # with the compiled kernel hidden, as on a machine without a compiler,
        # the pure kernel prints the same bytes
        equal = tmp_path / "equal.flipdist"
        equal.write_text(run_cli("gen", "--mode", "convex", "--n", "8").stdout, encoding="utf-8")
        script = ("import sys; from flipdist import _kernel; _kernel._core = None; "
                  "from flipdist.cli import main; sys.exit(main(sys.argv[1:]))")
        for args in (["solve", "--trace", "--in", str(instance_file)],
                     ["solve", "--trace", "--in", str(equal)],
                     ["verify", "--mode", "cross", "--n", "8", "--trials", "6", "--seed", "2"]):
            default = run_cli_bytes(*args)
            pure = subprocess.run([sys.executable, "-c", script, *args], capture_output=True)
            assert default.returncode == pure.returncode == 0
            assert pure.stdout == default.stdout


class TestOracle:
    def test_distance(self, instance_file):
        proc = run_cli("oracle", "--in", str(instance_file))
        assert proc.returncode == 0
        assert proc.stdout.startswith("distance=")

    def test_agrees_with_solver(self, instance_file):
        solver = run_cli("solve", "--in", str(instance_file))
        oracle = run_cli("oracle", "--in", str(instance_file))
        assert solver.stdout.splitlines()[0] == oracle.stdout.splitlines()[0]

    def test_witness_flag(self, instance_file):
        bare = run_cli("oracle", "--in", str(instance_file))
        full = run_cli("oracle", "--in", str(instance_file), "--witness")
        d = int(bare.stdout.partition("=")[2])
        assert len(full.stdout.splitlines()) == d + 1

    def test_cap_exceeded(self, instance_file):
        proc = run_cli("oracle", "--in", str(instance_file), "--cap", "0")
        assert proc.returncode == 1
        assert proc.stdout == "distance=>0\n"

    def test_stats_hexagon(self):
        proc = run_cli("oracle", "--stats", "--n", "6")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "n,order,diameter"
        assert lines[1] == "6,14,4"
        assert lines[2] == "distance,pairs"
        histogram = dict(tuple(map(int, l.split(","))) for l in lines[3:])
        assert sum(histogram.values()) == 14 * 14

    def test_stats_needs_n(self):
        assert run_cli("oracle", "--stats").returncode == 2

    @pytest.mark.parametrize("n", ["11", "40"])
    def test_stats_refuses_large_n(self, n):
        # the flip graph of the convex 40-gon cannot be held, so the size
        # check must come first; the timeout stops a run that tries anyway
        proc = subprocess.run(MODULE + ["oracle", "--stats", "--n", n],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "at most 10" in proc.stderr

    def test_needs_some_input(self):
        assert run_cli("oracle").returncode == 2


class TestVerify:
    def test_cross_mode_all_ok(self):
        proc = run_cli("verify", "--mode", "cross", "--n", "6", "--trials", "5",
                       "--seed", "1", "--max-k", "4")
        assert proc.returncode == 0
        assert proc.stdout == "ok=5 fail=0\n"

    @pytest.mark.parametrize("n", ["3", "4"])
    def test_cross_mode_on_a_lone_triangulation(self, n):
        # 3 points, or 4 with one inside the others' triangle, have one
        # triangulation and no flip: such a trial checks distance 0
        proc = run_cli("verify", "--mode", "cross", "--n", n, "--trials", "6",
                       "--seed", "1", "--max-k", "3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok=6 fail=0\n"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_cross_mode_needs_a_trial(self, trials):
        proc = run_cli("verify", "--mode", "cross", "--n", "6", "--trials", trials)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--trials" in proc.stderr

    def test_replay_solver_output(self, instance_file, tmp_path):
        solved = run_cli("solve", "--in", str(instance_file), "--trace")
        witness = tmp_path / "witness.txt"
        witness.write_text(solved.stdout, encoding="utf-8")
        proc = run_cli("verify", "--in", str(instance_file), "--replay", str(witness))
        assert proc.returncode == 0
        assert proc.stdout.startswith("replay=ok")
        assert proc.stdout.rstrip().endswith("endpoint=match")

    def test_replay_truncated_witness(self, instance_file, tmp_path):
        solved = run_cli("solve", "--in", str(instance_file))
        lines = [l for l in solved.stdout.splitlines() if "->" in l]
        assert len(lines) >= 2
        witness = tmp_path / "short.txt"
        witness.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        proc = run_cli("verify", "--in", str(instance_file), "--replay", str(witness))
        assert proc.returncode == 1
        assert "endpoint=mismatch" in proc.stdout

    def test_replay_corrupt_witness(self, instance_file, tmp_path):
        witness = tmp_path / "corrupt.txt"
        witness.write_text("0-1 -> 2-3\n", encoding="utf-8")
        proc = run_cli("verify", "--in", str(instance_file), "--replay", str(witness))
        assert proc.returncode == 1
        assert proc.stdout == "replay=fail index=0\n"

    def test_replay_rejects_garbage_line(self, instance_file, tmp_path):
        witness = tmp_path / "garbage.txt"
        witness.write_text("not a flip line\n", encoding="utf-8")
        assert run_cli("verify", "--in", str(instance_file),
                       "--replay", str(witness)).returncode == 2

    def test_needs_mode_or_replay(self):
        assert run_cli("verify").returncode == 2


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        for command in ("frobnicate", "bench"):
            assert run_cli(command).returncode == 2
