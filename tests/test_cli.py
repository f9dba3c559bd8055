"""Command-line surface: outputs, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabregen import cli, scenarios
from collabregen.capacity import AdversaryKind, AdversaryProfile, SystemParams
from collabregen.cli import CSV_HEADER, main
from collabregen.gf import FieldElement
from collabregen.scenarios import STATS_CSV_HEADER
from collabregen.tradeoff import SweepConfig, curve_to_csv, default_alpha_grid, sweep_curve

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def script_env():
    """The environment for a subprocess that imports the package from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))


class TestBounds:
    def test_group_of_zero_exits_1(self, capsys):
        code, out, err = run(capsys, "bounds", "--d", "8", "--k", "3", "--t", "3", "--partition", "0,3")
        assert code == 1 and out == ""
        assert "argument --partition: bad partition '0,3'" in err

    def test_msr_point_json(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--d", "48", "--k", "32", "--t", "4", "--B", "32",
            "--point", "msr",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["msr"] == {
            "alpha": "1", "beta": "1/20", "beta_prime": "1/20", "gamma": "51/20"
        }
        assert doc["params"]["n"] == 52  # echoed, resolved default

    def test_full_report_with_adversary(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--d", "48", "--k", "32", "--t", "4", "--B", "32",
            "--adversary", "selfish", "--L0", "1", "--lmax", "1", "--Ltotal", "32",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["selfish_msr"]["beta_range"] == ["1/19", "1/18"]
        assert doc["selfish_msr"]["beta_prime_range"] == ["1/27", "3/38"]
        assert doc["mbr"]["alpha"] == "99/68"
        # concrete counts: (k + total)/t = 9 groups, the last with 1 selfish
        code, out, _ = run(
            capsys, "bounds", "--d", "48", "--k", "32", "--t", "4", "--point", "selfish-msr",
            "--adversary", "selfish", "--L0", "1", "--per-group", "0,0,0,0,0,1,1,1,1",
        )
        assert code == 0
        doc = json.loads(out)["selfish_msr"]
        assert doc["beta_exact"] == "1/18" and doc["exact_formula_applies"] is True

    def test_raw_units(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--d", "3", "--k", "3", "--t", "2", "--B", "6",
            "--point", "msr", "--raw",
        )
        doc = json.loads(out)
        assert doc["msr"] == {"alpha": "2", "beta": "1", "beta_prime": "1", "gamma": "4"}

    def test_mincut_and_capacity_sections(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--d", "48", "--k", "32", "--t", "4", "--B", "32",
            "--alpha", "1", "--beta", "1/20", "--beta-prime", "1/20",
            "--partition", ",".join(["1"] * 32),
        )
        doc = json.loads(out)
        assert doc["mincut_collab"] == "32"
        assert doc["gamma"] == "51/20"
        point = ("--alpha", "1", "--beta", "1/10", "--beta-prime", "1/10")
        for flags, want in [
            (
                ("--partition", "4,4,4,4,4,4,4,2,2", "--adversary", "polluting", "--B0", "1",
                 "--per-group", "0,0,0,0,0,0,0,0,1"),
                {"capacity_polluting": "32", "polluted_collection_min_storage": "16/15"},
            ),
            (
                ("--partition", "4,4,4,4,4,4,4,3,1", "--adversary", "selfish", "--L0", "1",
                 "--per-group", "0,0,0,0,0,0,0,1,1"),
                {"capacity_selfish": "32"},
            ),
        ]:
            code, out, _ = run(capsys, "bounds", "--d", "48", "--k", "32", "--t", "4",
                               *point, *flags)
            doc = json.loads(out)
            assert code == 0 and {key: doc[key] for key in want} == want
            assert "mincut_collab" not in doc

    def test_mismatched_adversary_flags_usage_error(self, capsys):
        for kind, flags, own in [
            ("selfish", ("--B0", "1"), "--L0/--lmax/--Ltotal"),
            ("polluting", ("--L0", "1", "--B0", "2"), "--B0/--bmax/--Btotal"),
        ]:
            code, out, err = run(
                capsys, "bounds", "--d", "48", "--k", "32", "--t", "4",
                "--adversary", kind, *flags,
            )
            assert code == 1 and out == ""
            assert f"use {own} with --adversary {kind}" in err

    def test_per_group_without_adversary_exits_one(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--d", "48", "--k", "32", "--t", "4", "--per-group", "1,2",
        )
        assert code == 1 and out == "" and "--per-group requires --adversary" in err

    @pytest.mark.parametrize("point", [(), ("--point", "msr"), ("--point", "mbr")],
                             ids=["every-section", "msr", "mbr"])
    @pytest.mark.parametrize("flags, message", [
        (("selfish", "--L0", "9"), "selfish live count 9 exceeds d=8"),
        (("polluting", "--B0", "5"), "polluting live count 5 needs 2*count <= d=8"),
    ], ids=["selfish", "polluting"])
    def test_live_count_above_d_exits_one(self, capsys, point, flags, message):
        # --point msr and --point mbr once printed the plain point, exit 0
        code, out, err = run(
            capsys, "bounds", "--d", "8", "--k", "6", "--t", "3", *point, "--adversary", *flags,
        )
        assert code == 1 and out == "" and message in err

    @pytest.mark.parametrize("flags", [(), ("--adversary", "polluting", "--B0", "1")],
                             ids=["no-adversary", "polluting"])
    def test_selfish_point_without_selfish_profile_exits_one(self, capsys, flags):
        # once exit 0: the params alone, or the polluting section
        code, out, err = run(
            capsys, "bounds", "--d", "8", "--k", "6", "--t", "3", "--point", "selfish-msr", *flags,
        )
        assert code == 1 and out == ""
        assert "--point selfish-msr requires --adversary selfish" in err

    @pytest.mark.parametrize("flags, message", [
        (("--partition", "9,9"), "group sizes sum to 18, expected k=6"),
        (("--point", "msr", "--partition", "9,9", "--alpha", "1"),
         "group sizes sum to 18, expected k=6"),
        (("--point", "mbr", "--partition", "4,2"), "group sizes must be at most t=3"),
        (("--adversary", "selfish", "--L0", "1", "--partition", "2,1,3"),
         "need one selfish count per group"),
        (("--point", "msr", "--adversary", "polluting", "--partition", "3,3",
          "--per-group", "1,0"), "group of size 3 infeasible with 1 polluting newcomers"),
    ], ids=["sum", "msr-sum", "mbr-size", "per-group", "infeasible-group"])
    def test_bad_partition_exits_one_on_every_path(self, capsys, flags, message):
        # each once exited 0 when no capacity section printed
        code, out, err = run(capsys, "bounds", "--d", "8", "--k", "6", "--t", "3", *flags)
        assert code == 1 and out == "" and message in err

    def test_bad_parameters_exit_one(self, capsys):
        code, _, _ = run(capsys, "bounds", "--d", "3", "--k", "5", "--t", "1")
        assert code == 1

    def test_nonpositive_object_size_exits_one(self, capsys):
        for size in ("0", "-2"):
            code, out, err = run(
                capsys, "bounds", "--d", "3", "--k", "3", "--t", "2", "--B", size,
            )
            assert code == 1 and out == "" and "--B: must be positive" in err


class TestTradeoff:
    def test_out_writes_the_file(self, capsys, tmp_path):
        argv = ("tradeoff", "--d", "8", "--k", "6", "--t", "3", "--alpha-points", "2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        code, empty, _ = run(capsys, *argv, "--out", str(tmp_path / "curve.csv"))
        assert code == 0 and empty == ""
        assert (tmp_path / "curve.csv").read_text() == out

    def test_csv_schema_and_determinism(self, capsys):
        argv = (
            "tradeoff", "--d", "48", "--k", "32", "--t", "4",
            "--alpha-points", "4",
        )
        code, out1, err = run(capsys, *argv)
        assert code == 0
        lines = out1.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert "# params" in err
        code, out2, _ = run(capsys, *argv)
        assert out2 == out1  # byte-identical rerun

    def test_fixed_g_adversary_sweep(self, capsys):
        base = (
            "tradeoff", "--d", "48", "--k", "32", "--t", "4",
            "--fixed-g", "32", "--alpha-points", "3",
        )
        code, out, _ = run(capsys, *base)
        assert code == 0
        baseline = [float(r.split(",")[3]) for r in out.strip().splitlines()[1:]]
        code, out, _ = run(
            capsys, *base, "--adversary", "selfish", "--L0", "1",
            "--lmax", "1", "--Ltotal", "32",
        )
        assert code == 0
        attacked = [float(r.split(",")[3]) for r in out.strip().splitlines()[1:]]
        assert len(attacked) == len(baseline) == 3
        assert all(a >= b for a, b in zip(attacked, baseline))

    def test_free_range_matches_the_library_sweep(self, capsys):
        argv = (
            "tradeoff", "--d", "48", "--k", "32", "--t", "4", "--fixed-g", "32",
            "--adversary", "selfish", "--L0", "1", "--lmax", "1", "--Ltotal", "32",
            "--alpha-points", "4",
        )
        code, free, _ = run(capsys, *argv, "--free-range")
        assert code == 0
        p = SystemParams.for_repair_network(k=32, d=48, t=4, B=32)
        cfg = SweepConfig(
            params=p,
            adversary=AdversaryProfile(AdversaryKind.SELFISH, 1, per_group_max=1, total=32),
            alpha_grid=default_alpha_grid(p, points=4),
            fixed_g=32,
            characteristic_range=False,
        )
        assert free == curve_to_csv(sweep_curve(cfg))
        code, windowed, _ = run(capsys, *argv)
        assert code == 0 and windowed != free

    def test_per_group_without_adversary_exits_one(self, capsys):
        code, out, err = run(
            capsys, "tradeoff", "--d", "48", "--k", "32", "--t", "4",
            "--alpha-points", "4", "--per-group", "1,2",
        )
        assert code == 1 and out == "" and "--per-group requires --adversary" in err

    def test_polluting_live_count_above_half_d_exits_one(self, capsys):
        # With --fixed-g the characteristic window is built first; it used
        # to skip the live-count check and exit 2.
        for fixed_g in ((), ("--fixed-g", "32")):
            code, out, err = run(
                capsys, "tradeoff", "--d", "48", "--k", "32", "--t", "4",
                "--adversary", "polluting", "--B0", "30", "--bmax", "1", "--Btotal", "16",
                "--alpha-points", "2", *fixed_g,
            )
            assert code == 1 and out == ""
            assert "polluting live count 30 needs 2*count <= d=48" in err

    def test_cap_above_what_a_group_holds_counts_as_the_most_it_holds(self, capsys):
        # At t = 4 a group holds at most 3 selfish or 1 polluting newcomer,
        # so --lmax 5 acts as --lmax 3 and --bmax 5 as --bmax 1 on every path.
        base = ("--d", "48", "--k", "32", "--t", "4")
        sweep = ("tradeoff", *base, "--alpha-points", "2")
        selfish = ("--adversary", "selfish", "--L0", "1", "--Ltotal", "4")
        polluting = ("--adversary", "polluting", "--B0", "1", "--Btotal", "4")
        every_peer = "no collaboration bandwidth is defined when every peer may misbehave"
        for argv in (
            (*sweep, *selfish, "--lmax", "5", "--fixed-g", "32"),
            (*sweep, *selfish, "--lmax", "3", "--fixed-g", "32"),
            ("bounds", *base, *selfish, "--lmax", "5"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and every_peer in err
        for fixed_g in (("--fixed-g", "32"), ()):
            pairs = [(polluting, "--bmax", "1")] + ([] if fixed_g else [(selfish, "--lmax", "3")])
            for flags, flag, held in pairs:
                code, out, _ = run(capsys, *sweep, *flags, flag, "5", *fixed_g)
                assert code == 0 and out.startswith(CSV_HEADER + "\n") and out.count("\n") == 3
                code, held_out, _ = run(capsys, *sweep, *flags, flag, held, *fixed_g)
                assert code == 0 and held_out == out

    @pytest.mark.parametrize(
        "flags, first_row",
        [
            (("--adversary", "selfish", "--L0", "1", "--lmax", "0", "--Ltotal", "0"), "1,0.5,0,2,1|1"),
            (("--adversary", "polluting", "--B0", "1", "--bmax", "0", "--Btotal", "0"), "1,1,0,4,1|1"),
        ],
    )
    def test_single_repairs_under_an_adversary_exit_zero(self, capsys, flags, first_row):
        # t = 1: nobody collaborates, so the window's beta' is (0, 0) under
        # any adversary; it used to exit 2 with the window's every-peer error
        code, out, _ = run(
            capsys, "tradeoff", "--d", "4", "--k", "2", "--t", "1", *flags,
            "--fixed-g", "2", "--alpha-points", "3",
        )
        assert code == 0
        assert out.splitlines()[:2] == [CSV_HEADER, first_row]

    def test_sweep_script_writes_the_cli_csv(self, capsys, tmp_path):
        env = script_env()
        script = ROOT / "scripts" / "run_tradeoff_sweeps.py"
        subprocess.run(
            [sys.executable, str(script), "--points", "2", "--outdir", str(tmp_path)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        assert len(list(tmp_path.glob("*.csv"))) == 8
        code, out, _ = run(
            capsys, "tradeoff", "--d", "48", "--k", "32", "--t", "4",
            "--fixed-g", "32", "--alpha-points", "2",
        )
        assert code == 0
        assert (tmp_path / "attack_baseline_g32.csv").read_bytes() == out.encode()

    def test_large_k_adversary_sweep_exits_zero(self):
        # The worst-case DP once recursed one level per group and ended
        # this run in a RecursionError traceback.
        env = script_env()
        done = subprocess.run(
            [sys.executable, "-m", "collabregen", "tradeoff", "--d", "1300", "--k", "1200",
             "--t", "2", "--adversary", "selfish", "--L0", "0", "--lmax", "1",
             "--Ltotal", "1", "--alpha-points", "1"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0
        assert "Traceback" not in done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 2
        assert lines[1].endswith("|".join(["1"] * 1200))

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-4", "x"])
    def test_bad_tolerance_exits_one(self, capsys, tol):
        code, out, err = run(
            capsys, "tradeoff", "--d", "4", "--k", "3", "--t", "2",
            "--alpha-points", "2", f"--tol={tol}",
        )
        assert code == 1 and out == "" and "--tol" in err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--B", "1e400", "object size B overflows"),
            ("--alpha-max", "1e400", "storage level alpha overflows"),
            ("--B", "1e-400", "object size B underflows"),
        ],
    )
    def test_float_range_exits_one(self, capsys, flag, value, named):
        code, out, err = run(
            capsys, "tradeoff", "--d", "48", "--k", "32", "--t", "4",
            "--alpha-points", "2", flag, value,
        )
        assert code == 1 and out == "" and named in err

    def test_infeasible_grid_exits_two(self, capsys):
        code, _, err = run(
            capsys, "tradeoff", "--d", "48", "--k", "32", "--t", "4",
            "--alpha-min", "1/2", "--alpha-max", "1/2", "--alpha-points", "1",
        )
        assert code == 2 and "infeasible" in err

    def test_budget_no_partition_holds_is_named(self, capsys):
        # four full groups of 3 hold no selfish newcomer: each level was
        # skipped in turn, and the exit named only the empty grid
        code, out, err = run(
            capsys, "tradeoff", "--d", "20", "--k", "12", "--t", "3", "--fixed-g", "4",
            "--adversary", "selfish", "--L0", "1", "--lmax", "1", "--Ltotal", "1",
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "infeasible: adversary budget exceeds what the groups can hold"


class TestExactDemo:
    def test_walkthrough(self, capsys):
        code, out, _ = run(capsys, "exact-demo")
        assert code == 0
        assert "8 units moved to replenish 4 lost units" in out
        assert "repaired blocks bit-identical: OK" in out
        assert "beta=1/2 beta_prime=1/2 gamma=2" in out
        assert "all 35 choices" in out

    def test_reruns_identical(self, capsys):
        _, out1, _ = run(capsys, "exact-demo", "--seed", "5")
        _, out2, _ = run(capsys, "exact-demo", "--seed", "5")
        assert out1 == out2

    def test_a_failed_collection_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "collect", lambda blocks: SimpleNamespace(pieces=None))
        code, out, _ = run(capsys, "exact-demo")
        assert code == 3
        assert "recover the object: FAILED" in out and "repair of nodes" not in out


class TestTables:
    def test_all_rows_match(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert out.count(" ok") == 6
        assert "MISMATCH" not in out

    def test_a_repaired_block_that_differs_exits_3(self, capsys, monkeypatch):
        repair = scenarios.collaborative_repair

        def flip_first_symbols(*args, **kwargs):
            new_blocks, report = repair(*args, **kwargs)
            flipped = [replace(b, payload=(FieldElement(b.payload[0].value ^ 1, b.payload[0].field),
                                           *b.payload[1:])) for b in new_blocks]
            return flipped, report

        monkeypatch.setattr(scenarios, "collaborative_repair", flip_first_symbols)
        code, _, err = run(capsys, "tables")
        assert code == 3
        assert err == "repair failure: scenario selfish-baseline: repaired block differs\n"


class TestSimulate:
    def config(self, tmp_path, mitigation="none"):
        cfg = {
            "code": {"m": 8, "n": 10, "kappa": 3, "t": 2, "first_power": 1},
            "generations": 4,
            "seed": 7,
            "mitigation": mitigation,
            "behaviors": {"1": "polluting"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_simulation_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--config", self.config(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("generation,repaired,polluted_blocks")
        assert len(lines) == 5
        counts = [int(r.split(",")[2]) for r in lines[1:]]
        assert counts == sorted(counts) and counts[-1] > 0

    def test_digest_mitigation_keeps_clean(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--config", self.config(tmp_path, "digests")
        )
        assert code == 0
        counts = [int(r.split(",")[2]) for r in out.strip().splitlines()[1:]]
        assert counts == [0, 0, 0, 0]

    def test_pollution_script(self, tmp_path):
        script = ROOT / "scripts" / "run_pollution_sim.py"
        subprocess.run(
            [sys.executable, str(script), "--generations", "8", "--outdir", str(tmp_path)],
            env=script_env(), check=True, capture_output=True, timeout=120,
        )
        for mitigation in ("none", "digests"):
            lines = (tmp_path / f"pollution_{mitigation}.csv").read_text().splitlines()
            assert lines[0] == STATS_CSV_HEADER and len(lines) == 9
        assert lines[-1].split(",")[2] == "0"  # the digest run ends with no polluted block

    def test_repair_failure_exits_three(self, capsys, tmp_path):
        cfg = {
            "code": {"m": 3, "n": 7, "kappa": 3, "t": 2, "first_power": 1},
            "generations": 1,
            "seed": 1,
            "mitigation": "digests",
            "failure_schedule": [[6, 7]],
            "behaviors": {"1": "polluting", "2": "polluting", "3": "polluting"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "simulate", "--config", str(path))
        assert code == 3 and "generation 0" in err

    def test_missing_config_exits_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--config", str(tmp_path / "nope.json"))
        assert code == 1

    def malformed(self, capsys, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out_path = tmp_path / "out.csv"
        code, out, err = run(
            capsys, "simulate", "--config", str(path), "--out", str(out_path)
        )
        assert code == 1 and out == "" and not out_path.exists()
        return err

    def test_top_level_array_exits_one(self, capsys, tmp_path):
        err = self.malformed(capsys, tmp_path, "[1, 2]")
        assert "must be a JSON object" in err

    def test_unknown_key_exits_one(self, capsys, tmp_path):
        err = self.malformed(capsys, tmp_path, '{"bogus": 1}')
        assert "unknown scenario config key(s): bogus" in err

    def test_empty_failure_schedule_exits_one(self, capsys, tmp_path):
        # an explicit empty schedule is checked, not replaced by a drawn one
        err = self.malformed(capsys, tmp_path, '{"failure_schedule": [], "generations": 3}')
        assert "failure schedule shorter than the generation count" in err

    def test_negative_generations_exits_one(self, capsys, tmp_path):
        err = self.malformed(capsys, tmp_path, '{"generations": -3}')
        assert "generations must be a nonnegative integer" in err

    def test_config_nested_too_deeply_exits_one(self, capsys, tmp_path):
        err = self.malformed(capsys, tmp_path, "[" * 2000 + "]" * 2000)
        assert "scenario config is nested too deeply" in err and "Traceback" not in err

    def test_t_wider_than_a_symbol_exits_one(self, capsys, tmp_path):
        # refused by the t bound before any block is serialized
        err = self.malformed(capsys, tmp_path, json.dumps(_WIDE_T))
        assert "code.t must be in 1..n - kappa = 1..4, got 256" in err

    @pytest.mark.parametrize("t", [0, 5])
    def test_t_outside_one_to_n_minus_kappa_exits_one(self, capsys, tmp_path, t):
        # t = 0 once failed inside FieldMatrix; t = 5 exited 3 as a repair failure
        err = self.malformed(capsys, tmp_path, json.dumps({"code": {"t": t}, "generations": 2}))
        assert f"code.t must be in 1..n - kappa = 1..4, got {t}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "config",
        [
            {"failure_schedule": [[1, 2]] * 100_000 + [["x"]]},
            {"behaviors": {"1": json.loads("[" * 900 + "]" * 900)}},
        ],
        ids=["long_schedule", "deep_behavior"],
    )
    def test_rejected_value_is_echoed_briefly(self, capsys, tmp_path, config):
        err = self.malformed(capsys, tmp_path, json.dumps(config))
        assert next(iter(config)) in err and len(err.splitlines()[-1]) < 200

    @pytest.mark.parametrize(
        "config",
        [{"k" * 100_000: 1}, {f"key{i}": 1 for i in range(20_000)}],
        ids=["long_key", "many_keys"],
    )
    def test_unknown_keys_are_echoed_briefly(self, capsys, tmp_path, config):
        err = self.malformed(capsys, tmp_path, json.dumps(config))
        assert "unknown scenario config key(s): " in err and "Traceback" not in err
        assert len(err.splitlines()[-1]) < 200

    @pytest.mark.parametrize(
        "text",
        [
            '{"behaviors": [1]}',
            '{"behavior_overrides": [1]}',
            '{"behavior_overrides": {"0": [1]}}',
            '{"failure_schedule": 5}',
            '{"failure_schedule": [5]}',
            '{"assumed_polluters": "x", "behaviors": {"1": "polluting"}}',
            '{"code": {"m": "8"}}',
            '{"seed": [1]}',
            '{"pollute_collection": "yes"}',
            '{"object_id": 5}',
            '{"behaviors": {"99": "selfish"}}',
            '{"behavior_overrides": {"-3": {"1": "selfish"}}}',
            '{"behavior_overrides": {"2": {"0": "selfish"}}}',
            '{"generations": 4, "behavior_overrides": {"9": {"1": "selfish"}}}',
            # keys that int() reads but str() never writes
            '{"behaviors": {"0_1": "selfish"}}',
            '{"behaviors": {" 2": "selfish"}}',
            '{"behavior_overrides": {"0_1": {"2": "selfish"}}}',
        ],
    )
    def test_mistyped_field_exits_one(self, capsys, tmp_path, text):
        err = self.malformed(capsys, tmp_path, text)
        assert next(iter(json.loads(text))) in err  # the message names the field


# The flag grammar of `bounds` and `tradeoff` on small runs (k <= 12, t <= 6,
# at most 4 storage levels), then maybe one or two flags set to a value
# that may be negative, huge, not a number or of the other adversary kind.
# Even then k, t and the level count stay small, as lists of those lengths
# are built, and so does d, which sets how often the open window doubles.
_NOT_A_SIZE = st.sampled_from(["1/0", "1e400", "-1/2", "x", "", "nan", "1.5"])
_ODD = _NOT_A_SIZE | st.sampled_from(["1e-400", str(10**30), "9" * 400])
_RATIONAL = st.fractions(0, 4, max_denominator=12).map(str)
_COUNTS = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(lambda xs: ",".join(map(str, xs)))
_WILD = (st.integers(-2, 12).map(str) | _ODD | st.fractions(-4, 4, max_denominator=12).map(str)
         | _COUNTS | st.sampled_from(["selfish", "polluting"]))
_WILD_SIZE = {
    "--k": st.integers(-2, 12).map(str) | _NOT_A_SIZE,
    "--t": st.integers(-2, 12).map(str) | _NOT_A_SIZE,
    "--d": st.integers(-2, 16).map(str) | _NOT_A_SIZE,
    "--alpha-points": st.integers(-2, 4).map(str) | _NOT_A_SIZE,
}
_FLAGS = {
    "bounds": ["--alpha", "--beta", "--beta-prime", "--partition", "--point", "--raw"],
    "tradeoff": ["--fixed-g", "--alpha-points", "--alpha-min", "--alpha-max", "--tol",
                 "--free-range"],
}
_KINDS = {"selfish": ("--L0", "--lmax", "--Ltotal"), "polluting": ("--B0", "--bmax", "--Btotal")}


@st.composite
def _argv(draw, command):
    k, t = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    flags = {"--k": k, "--t": t, "--d": k + draw(st.integers(0, 8))}
    if draw(st.booleans()):
        flags["--B"] = draw(_RATIONAL.filter(lambda x: x != "0"))
    if command == "bounds":
        for flag in ("--alpha", "--beta", "--beta-prime"):
            if draw(st.booleans()):
                flags[flag] = draw(_RATIONAL)
        if draw(st.booleans()):
            groups = []
            while sum(groups) < k:
                groups.append(draw(st.integers(1, min(t, k - sum(groups)))))
            flags["--partition"] = ",".join(map(str, groups))
        flags["--point"] = draw(st.sampled_from([None, "msr", "mbr", "selfish-msr"]))
        flags["--raw"] = draw(st.sampled_from([None, True]))
    else:
        flags["--alpha-points"] = draw(st.integers(1, 4))
        flags["--fixed-g"] = draw(st.sampled_from([None, *range(1, k + 1)]))
        flags["--alpha-min"], flags["--alpha-max"] = draw(
            st.sampled_from([(None, None), ("1", None), ("1", "3/2"), ("2", "1")])
        )
        flags["--free-range"] = draw(st.sampled_from([None, True]))
    kind = draw(st.sampled_from([None, *_KINDS]))
    if kind is not None:
        flags["--adversary"] = kind
        for flag in _KINDS[kind]:
            flags[flag] = draw(st.sampled_from([None, 0, 1, 2, 3]))
        if draw(st.booleans()):
            flags["--per-group"] = draw(_COUNTS)
    for _ in range(draw(st.integers(0, 2))):
        flag = draw(st.sampled_from(
            ["--k", "--t", "--d", "--B", "--n", "--adversary", "--per-group", "--tol",
             *_FLAGS[command], *sum(_KINDS.values(), ())]
        ))
        flags[flag] = draw(_WILD_SIZE.get(flag, _WILD))
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(f"{flag}={value}")
    return argv


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
_BEHAVIOR = st.sampled_from(["honest", "selfish", "polluting"])


@st.composite
def _config(draw):
    """A scenario config (n <= 16, at most 4 generations), then maybe one
    or two of its values set to any JSON value with ints up to 4, or a
    code field other than n to an int up to 300."""
    m = draw(st.integers(3, 8))
    kappa, t = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = draw(st.integers(kappa + t, min(16, 2**m - 1)))
    cfg = {
        "code": {"m": m, "n": n, "kappa": kappa, "t": t, "first_power": draw(st.integers(0, 3))},
        "generations": draw(st.integers(0, 4)),
        "seed": draw(st.integers(0, 2**40)),
        "mitigation": draw(st.sampled_from(["none", "digests"])),
        "behaviors": draw(st.dictionaries(st.integers(1, n).map(str), _BEHAVIOR, max_size=2)),
        "behavior_overrides": draw(st.dictionaries(
            st.integers(0, 3).map(str),
            st.dictionaries(st.integers(1, n).map(str), _BEHAVIOR, max_size=1),
            max_size=2,
        )),
        "pollute_collection": draw(st.booleans()),
        "assumed_polluters": draw(st.sampled_from([None, 0, 1])),
        "policy": draw(st.sampled_from(["keep-responders", "contact-new-nodes"])),
    }
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from([*cfg, "failure_schedule", "object_id", "bogus"]))
        if key == "code" and isinstance(cfg["code"], dict) and draw(st.booleans()):
            field = draw(st.sampled_from(["m", "kappa", "t", "first_power"]))
            cfg["code"][field] = draw(_JSON | st.integers(-2, 300))
        else:
            cfg[key] = draw(_JSON)
    return cfg


_WIDE_T = {"code": {"m": 4, "n": 7, "kappa": 3, "t": 256, "first_power": 1},
           "generations": 2, "seed": 1}


class TestExitCodeContract:
    """Every argument list and every config ends in a documented exit code,
    0 to 3, with no exception escaping ``main`` and no output on failure."""

    @staticmethod
    def checked_main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err.getvalue()
        assert code == 0 or out.getvalue() == ""
        return code, out.getvalue()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_argv("bounds"))
    def test_bounds(self, argv):
        code, out = self.checked_main(argv)
        if code == 0:
            json.loads(out)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_argv("tradeoff"))
    def test_tradeoff(self, argv):
        code, out = self.checked_main(argv)
        if code == 0:
            assert out.startswith(CSV_HEADER + "\n")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given((_config() | _JSON).map(json.dumps))
    @example("[" * 2000 + "]" * 2000)  # once a RecursionError from json.loads
    @example(json.dumps(_WIDE_T))  # once an OverflowError from NodeBlock.to_bytes
    def test_simulate(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(text)
            code, out = self.checked_main(["simulate", "--config", str(path)])
        if code == 0:
            assert out.startswith(STATS_CSV_HEADER + "\n")
