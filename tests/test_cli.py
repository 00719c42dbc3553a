"""Exit codes, CSV contracts, manifests, and SVG emission."""

import csv
import filecmp
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from projifs import cli, cones, semigroup
from projifs.cli import rerun_manifest, run_command
from projifs.config import emit_config, parse_config
from projifs.geometry import Matrix2
from projifs.semigroup import SystemConfig
from projifs.svgplot import attractor_svg, line_plot_svg

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cfg_path(name: str) -> str:
    return str(CONFIGS / name)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _record_calls(monkeypatch, original, calls: list) -> None:
    """Append (name, args after the config) to `calls` on every call of the
    projifs function `original`, through whichever module it is called."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("projifs") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(
                module, name,
                lambda cfg, *args: calls.append((name, *args))
                or original(cfg, *args),
            )


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert run_command(["frobnicate", "--config", "x"]) == 1

    def test_unknown_flag(self, tmp_path):
        argv = ["classify", "--config", cfg_path("positive_pair.cfg"),
                "--bogus", "1", "--out", str(tmp_path)]
        assert run_command(argv) == 1

    def test_help_exits_zero(self):
        assert run_command(["--help"]) == 0

    @pytest.mark.parametrize("command, config, option", [
        ("classify", "positive_pair.cfg", ["--depth", "3"]),
        ("scan-continuity", "family_hyperbolic_interior.cfg",
         ["--norm", "max"]),
        ("diophantine", "positive_pair.cfg", ["--tol", "1e-3"]),
        ("certify-sd", "positive_pair.cfg", ["--norm", "max"]),
        ("report", "positive_pair.cfg", ["--samples", "10"]),
    ])
    def test_option_the_command_ignores_is_rejected(
        self, tmp_path, capsys, command, config, option
    ):
        argv = [command, "--config", cfg_path(config), *option,
                "--out", str(tmp_path)]
        assert run_command(argv) == 1
        assert f"unrecognized arguments: {' '.join(option)}" in \
            capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("command, option", [
        (name, option)
        for name, (_, options) in cli._COMMANDS.items()
        for option in ("depth", "samples", "n") if option in options
    ])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_count_is_rejected(
        self, tmp_path, capsys, command, option, value
    ):
        argv = [command, "--config", cfg_path("positive_pair.cfg"),
                f"--{option}", value, "--out", str(tmp_path)]
        if command == "pressure":
            argv += ["--s", "0.4"]
        assert run_command(argv) == 1
        assert f"'{value}' is not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("attractor", ["--samples", "10"]),
        ("reduce", []),
    ])
    def test_negative_seed_is_rejected(self, tmp_path, capsys, command, extra):
        argv = [command, "--config", cfg_path("positive_pair.cfg"), *extra,
                "--seed", "-1", "--out", str(tmp_path)]
        assert run_command(argv) == 1
        assert "'-1' is not a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "reduced.cfg").exists()

    def test_reduce_keeps_norm_and_seed(self, tmp_path):
        assert run_command(
            ["reduce", "--config", cfg_path("elliptic_mix.cfg"),
             "--norm", "max", "--seed", "5", "--out", str(tmp_path)]
        ) == 0
        lines = (tmp_path / "reduced.cfg").read_text().splitlines()
        assert "norm: max" in lines
        assert "seed: 5" in lines

    def test_missing_config_file(self, tmp_path):
        argv = ["classify", "--config", str(tmp_path / "absent.cfg"),
                "--out", str(tmp_path)]
        assert run_command(argv) == 1

    def test_classify_all_bundled_configs(self, tmp_path):
        # the plain configs all classify cleanly; families are not configs
        names = [p.name for p in CONFIGS.glob("*.cfg")
                 if not p.name.startswith("family_")]
        assert len(names) == 8
        for i, name in enumerate(names):
            out = tmp_path / str(i)
            assert run_command(
                ["classify", "--config", cfg_path(name), "--out", str(out)]
            ) == 0
            assert (out / "classify.csv").exists()
            assert (out / "manifest.json").exists()

    def test_certify_uh_elliptic_inconclusive(self, tmp_path, capsys):
        code = run_command(
            ["certify-uh", "--config", cfg_path("elliptic_mix.cfg"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "elliptic letter present" in capsys.readouterr().out

    def test_certify_uh_positive_pair(self, tmp_path):
        assert run_command(
            ["certify-uh", "--config", cfg_path("positive_pair.cfg"),
             "--out", str(tmp_path)]
        ) == 0

    def test_certify_sd_refuted_is_conclusive(self, tmp_path):
        assert run_command(
            ["certify-sd", "--config", cfg_path("inverse_pair.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        row = read_rows(tmp_path / "certify_sd.csv")[0]
        assert row["status"] == "refuted-via-identity-approach"

    def test_certify_sd_evidence_only(self, tmp_path):
        # an irrational rotation: no invariant set exists, and shallow
        # powers never land back on the identity
        cfg = tmp_path / "rot.cfg"
        c, s = math.cos(1.0), math.sin(1.0)
        cfg.write_text(f"matrices:\n  {c!r} {s!r} {-s!r} {c!r}\n")
        code = run_command(
            ["certify-sd", "--config", str(cfg), "--depth", "8",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["pivot", "lower-bound"])
    def test_pivot_not_found_is_inconclusive(self, tmp_path, capsys, command):
        code = run_command(
            [command, "--config", cfg_path("elliptic_mix.cfg"),
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().out.startswith("inconclusive: ")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["partial"] is False

    def test_pivot_on_reducible_config_errors(self, tmp_path, capsys):
        code = run_command(
            ["pivot", "--config", cfg_path("shared_fixed_pair.cfg"),
             "--out", str(tmp_path)]
        )
        assert code == 1
        assert "irreducible" in capsys.readouterr().err


class TestCsvContracts:
    def test_critexp_columns(self, tmp_path):
        assert run_command(
            ["critexp", "--config", cfg_path("diag_pair.cfg"),
             "--depth", "8", "--out", str(tmp_path)]
        ) == 0
        header = (tmp_path / "critexp.csv").read_text().splitlines()[0]
        assert header == "s_lo,s_hi,depth,norm,certified"

    def test_classify_columns_and_content(self, tmp_path):
        run_command(["classify", "--config", cfg_path("positive_pair.cfg"),
                     "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "classify.csv")
        assert [r["class"] for r in rows] == ["hyperbolic", "hyperbolic"]
        assert float(rows[0]["trace"]) == 3.0

    def test_zeta_cumulative_matches_level_sums(self, tmp_path):
        run_command(["zeta", "--config", cfg_path("stern_brocot.cfg"),
                     "--depth", "6", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "zeta.csv")
        assert len(rows) == 6
        total = math.fsum(float(r["level_sum"]) for r in rows)
        assert float(rows[-1]["cumulative"]) == total
        assert [int(r["terms"]) for r in rows] == [2, 4, 8, 16, 32, 64]

    def test_dimension_columns(self, tmp_path):
        assert run_command(
            ["dimension", "--config", cfg_path("positive_pair.cfg"),
             "--depth", "10", "--out", str(tmp_path)]
        ) == 0
        header = (tmp_path / "dimension.csv").read_text().splitlines()[0]
        assert header == ("box_dim,stderr,delta_lo,delta_hi,"
                          "predicted_lo,predicted_hi,verdict")
        row = read_rows(tmp_path / "dimension.csv")[0]
        assert row["verdict"] == "consistent"

    def test_attractor_csv_and_svg(self, tmp_path):
        run_command(["attractor", "--config", cfg_path("positive_pair.cfg"),
                     "--depth", "8", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "attractor.csv")
        thetas = [float(r["theta"]) for r in rows]
        assert thetas == sorted(thetas)
        assert all(0.0 < t <= math.pi for t in thetas)
        svg = (tmp_path / "attractor.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<line") == len(rows)

    def test_attractor_orbit_mode(self, tmp_path):
        run_command(["attractor", "--config", cfg_path("positive_pair.cfg"),
                     "--samples", "400", "--out", str(tmp_path)])
        assert len(read_rows(tmp_path / "attractor.csv")) == 400

    def test_repeller_runs(self, tmp_path):
        assert run_command(
            ["repeller", "--config", cfg_path("single_scaling.cfg"),
             "--depth", "6", "--out", str(tmp_path)]
        ) == 0

    def test_enumerate_words(self, tmp_path):
        run_command(["enumerate", "--config", cfg_path("stern_brocot.cfg"),
                     "--depth", "3", "--out", str(tmp_path)])
        rows = read_rows(tmp_path / "words.csv")
        assert len(rows) == 2 + 4 + 8
        assert rows[0]["word"] == "0"
        assert rows[2]["word"] == "0-0"
        assert rows[-1]["word"] == "1-1-1"

    def test_enumerate_labels_match_table_words(self, tmp_path):
        cfg = tmp_path / "three.cfg"
        cfg.write_text("matrices:\n  2 1 1 1\n  1 1 1 2\n  1 1 0 1\n")
        assert run_command(["enumerate", "--config", str(cfg),
                            "--depth", "4", "--out", str(tmp_path)]) == 0
        table = parse_config(cfg).table
        expected = [
            f"{n},{'-'.join(map(str, table.word(n, i)))},{norm!r}"
            for n in range(1, 5)
            for i, norm in enumerate(table.norms(n).tolist())
        ]
        lines = (tmp_path / "words.csv").read_text().splitlines()
        assert lines == ["depth,word,norm"] + expected

    def test_furstenberg_summary(self, tmp_path):
        assert run_command(
            ["furstenberg", "--config", cfg_path("positive_pair.cfg"),
             "--samples", "500", "--depth", "8", "--out", str(tmp_path)]
        ) == 0
        assert len(read_rows(tmp_path / "furstenberg.csv")) == 500
        row = read_rows(tmp_path / "furstenberg_summary.csv")[0]
        assert float(row["residual"]) < 0.1
        assert float(row["hausdorff"]) < 0.05

    def test_lower_bound_rows(self, tmp_path):
        assert run_command(
            ["lower-bound", "--config", cfg_path("stern_brocot.cfg"),
             "--n", "2", "--out", str(tmp_path)]
        ) == 0
        row = read_rows(tmp_path / "lower_bound.csv")[0]
        assert int(row["n"]) == 2
        assert 0.0 <= float(row["value"]) <= 1.0

    def test_reduce_emits_parsable_config(self, tmp_path):
        assert run_command(
            ["reduce", "--config", cfg_path("elliptic_mix.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        reduced = parse_config(tmp_path / "reduced.cfg")
        assert reduced.k == 2
        row = read_rows(tmp_path / "reduce.csv")[0]
        assert (row["order"], row["input_size"],
                row["output_size"]) == ("2", "2", "2")

    def test_report_outputs(self, tmp_path):
        assert run_command(
            ["report", "--config", cfg_path("positive_pair.cfg"),
             "--depth", "8", "--out", str(tmp_path)]
        ) == 0
        text = (tmp_path / "report.txt").read_text()
        assert "uniform hyperbolicity: certified" in text
        assert "verdict:" in text
        assert (tmp_path / "report.csv").exists()

    def test_report_on_single_hyperbolic_letter(self, tmp_path):
        assert run_command(
            ["report", "--config", cfg_path("single_scaling.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        row = read_rows(tmp_path / "report.csv")[0]
        assert row["uh_status"] == "certified"
        assert (tmp_path / "report.txt").exists()

    def test_report_without_a_cloud_keeps_what_it_decided(
        self, tmp_path, capsys
    ):
        # one elliptic letter, the rotation by 5e-4: no hyperbolic or
        # parabolic product, so the formula check's cloud is empty
        c, s = math.cos(5e-4), math.sin(5e-4)
        path = tmp_path / "rotation.cfg"
        path.write_text(emit_config(SystemConfig(
            matrices=(Matrix2(c, -s, s, c),))))
        out = tmp_path / "out"
        assert run_command(
            ["report", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        text = (out / "report.txt").read_text()
        assert captured.out == text
        lines = text.splitlines()
        assert lines[0] == f"system of 1 matrices from {path}"
        assert lines[1].endswith("elliptic")
        assert lines[2] == "irreducible"
        assert lines[3].startswith("uniform hyperbolicity: ")
        assert lines[4].startswith("semidiscreteness: ")
        assert lines[-1] == "formula check failed: empty point cloud"
        assert captured.err == "error: empty point cloud\n"
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command, option", [
        ("critexp", ["--depth", "12"]),
        ("dimension", ["--depth", "12"]),
        ("report", ["--depth", "12"]),
        ("pressure", ["--s", "5", "--depth", "12"]),
    ])
    def test_level_whose_weights_all_underflow(self, tmp_path, command, option):
        # every level-12 norm is at least about 2e32, so at s = 5 each
        # level-12 weight underflows to 0
        cfg = tmp_path / "steep.cfg"
        cfg.write_text("matrices:\n  1000 0 0 0.001\n  500 1 0 0.002\n")
        out = tmp_path / "out"
        assert run_command(
            [command, "--config", str(cfg), *option, "--out", str(out)]
        ) == 0
        if command == "pressure":
            row = read_rows(out / "pressure.csv")[0]
            assert math.isfinite(float(row["lower"]))


    @pytest.mark.parametrize("name", ["positive_pair.cfg", "stern_brocot.cfg"])
    def test_pivot_cells_are_plain_numbers(self, tmp_path, name):
        assert run_command(
            ["pivot", "--config", cfg_path(name), "--out", str(tmp_path)]
        ) == 0
        row = read_rows(tmp_path / "pivot.csv")[0]
        for key, value in row.items():
            if key != "word":
                assert math.isfinite(float(value)), (key, value)

    def test_report_builds_one_table_per_system(self, tmp_path, monkeypatch):
        built = []
        init = semigroup.ProductTable.__init__

        def counting_init(table, cfg):
            built.append(cfg)
            init(table, cfg)

        monkeypatch.setattr(semigroup.ProductTable, "__init__", counting_init)
        products = []
        scalar = semigroup.word_product
        for name, module in list(sys.modules.items()):
            if name.startswith("projifs") and \
                    getattr(module, "word_product", None) is scalar:
                monkeypatch.setattr(
                    module, "word_product",
                    lambda cfg, w: products.append(w) or scalar(cfg, w),
                )
        assert run_command(
            ["report", "--config", cfg_path("positive_pair.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        assert len(built) == 1
        assert products == []


    def test_report_searches_each_multicone_once(self, tmp_path, monkeypatch):
        searched = []
        search = cones._search_multicone

        def counting(cfg, *args):
            searched.append(cfg)
            return search(cfg, *args)

        monkeypatch.setattr(cones, "_search_multicone", counting)
        assert run_command(
            ["report", "--config", cfg_path("positive_pair.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        # one search for certify-uh, reused by certify-sd
        assert len(searched) == 1

    @pytest.mark.parametrize("name, scans", [
        ("positive_pair.cfg", False),
        ("diag_pair.cfg", False),
        ("stern_brocot.cfg", False),
        ("shared_fixed_pair.cfg", True),
    ])
    def test_report_profiles_only_systems_without_a_multicone(
        self, tmp_path, monkeypatch, name, scans
    ):
        # a found multicone certifies semidiscreteness, so neither
        # certify_semidiscrete nor the accumulation scan profiles the system
        profiled = []
        profile = semigroup.discreteness_profile
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("projifs") and \
                    getattr(module, "discreteness_profile", None) is profile:
                monkeypatch.setattr(
                    module, "discreteness_profile",
                    lambda cfg, depth: profiled.append(depth)
                    or profile(cfg, depth),
                )
        assert run_command(
            ["report", "--config", cfg_path(name), "--out", str(tmp_path)]
        ) == 0
        assert bool(profiled) is scans

    def test_report_profiles_no_deeper_than_the_accumulation_scan(
        self, tmp_path, monkeypatch
    ):
        # the status needs only the cone and the distance to +-identity;
        # the accumulation scan of a two-letter alphabet stops at depth 9
        profiled = []
        _record_calls(monkeypatch, semigroup.discreteness_profile, profiled)
        assert run_command(
            ["report", "--config", cfg_path("elliptic_mix.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        assert profiled
        assert max(depth for _, depth in profiled) <= 9

    def test_report_scans_each_level_once(self, tmp_path, monkeypatch):
        # the semidiscreteness status scans no pairs, so the accumulation
        # scan's profile is the only one, and it scans each level once
        scanned = []
        scan = semigroup._pairwise_min

        def counting(stack, head=None):
            scanned.append((stack.tobytes(), head))
            return scan(stack, head)

        monkeypatch.setattr(semigroup, "_pairwise_min", counting)
        assert run_command(
            ["report", "--config", cfg_path("shared_fixed_pair.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        assert scanned
        assert len(scanned) == len(set(scanned))

    def test_report_keeps_accumulation_evidence_without_a_multicone(
        self, tmp_path
    ):
        assert run_command(
            ["report", "--config", cfg_path("shared_fixed_pair.cfg"),
             "--out", str(tmp_path)]
        ) == 0
        lines = (tmp_path / "report.txt").read_text().splitlines()
        assert "semidiscreteness: evidence-only" in lines
        assert ("quick bound: delta >= inf (accumulation-evidence, "
                "certified False)") in lines

    @pytest.mark.parametrize("name, noted", [
        ("shared_fixed_pair", True),
        ("shared_fixed_pair-inverse", True),
        ("elliptic_mix", False),
        # scaling_translation and its first letter turned by 5e-4: letters
        # 7.1e-4 apart, below 1e-3, and no closer pair by depth 7
        ("turned-letter", False),
    ])
    def test_certify_sd_notes_accumulation_exactly_when_report_does(
        self, tmp_path, capsys, name, noted
    ):
        # both read DiscretenessProfile.accumulates, each at its own depth
        if name == "turned-letter":
            c, s = math.cos(5e-4), math.sin(5e-4)
            letters = parse_config(cfg_path("scaling_translation.cfg")).matrices
            cfg = SystemConfig(
                matrices=letters + (letters[0] @ Matrix2(c, -s, s, c),))
        else:
            cfg = parse_config(cfg_path(name.removesuffix("-inverse") + ".cfg"))
            if name.endswith("-inverse"):
                cfg = cfg.inverse()
        path = tmp_path / "system.cfg"
        path.write_text(emit_config(cfg))
        run_command(["certify-sd", "--config", str(path),
                     "--out", str(tmp_path / "sd")])
        out = capsys.readouterr().out
        assert run_command(["report", "--config", str(path),
                            "--out", str(tmp_path / "report")]) == 0
        report = (tmp_path / "report" / "report.txt").read_text()
        assert ("accumulation-evidence" in report) is noted
        assert ("accumulation suggests a non-semidiscrete system" in out) \
            is noted

    def test_diophantine_says_when_the_scan_is_windowed(self, tmp_path, capsys):
        path = cfg_path("inverse_pair.cfg")
        for depth, windowed in ((12, False), (13, True)):
            out = tmp_path / str(depth)
            assert run_command(["diophantine", "--config", path,
                                "--depth", str(depth), "--out", str(out)]) == 0
            text = capsys.readouterr().out
            note = ("note: from depth 13 on, levels are scanned by a sorted "
                    "window: min_dist is an upper bound and collisions a "
                    "lower bound")
            assert (note in text) is windowed
            rows = read_rows(out / "diophantine.csv")
            assert list(rows[0]) == ["depth", "word_count", "min_dist",
                                     "collisions"]
            assert len(rows) == depth


class TestScanContinuity:
    FAMILY = """\
family:
  1 t 0 1
  1 0 t 1
  2 1 1 1
grid: 0 0.3 4
"""

    def test_jump_flagged_at_degenerate_end(self, tmp_path):
        fam = tmp_path / "fam.cfg"
        fam.write_text(self.FAMILY)
        out = tmp_path / "out"
        assert run_command(
            ["scan-continuity", "--config", str(fam), "--depth", "8",
             "--out", str(out)]
        ) == 0
        rows = read_rows(out / "scan.csv")
        assert len(rows) == 4
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[0]["box_dim"]) == 0.0
        assert any("jump" in r["flags"] for r in rows)
        assert (out / "scan.svg").exists()

    def test_smooth_family_unflagged(self, tmp_path):
        fam = tmp_path / "fam.cfg"
        fam.write_text(
            "family:\n  2 t 0 1/2\n  1/2 0 t 2\ngrid: 0.8 1.2 5\n"
        )
        out = tmp_path / "out"
        assert run_command(
            ["scan-continuity", "--config", str(fam), "--depth", "8",
             "--out", str(out)]
        ) == 0
        rows = read_rows(out / "scan.csv")
        assert all(r["flags"] == "" for r in rows)
        assert all(r["status"] == "ok" for r in rows)

    def test_inverse_pair_flagged_sd_refuted(self, tmp_path):
        # the two letters are inverses of each other at every t
        fam = tmp_path / "fam.cfg"
        fam.write_text("family:\n  2 t 0 1/2\n  1/2 -t 0 2\ngrid: 0 1 5\n")
        out = tmp_path / "out"
        assert run_command(
            ["scan-continuity", "--config", str(fam), "--depth", "8",
             "--out", str(out)]
        ) == 0
        rows = read_rows(out / "scan.csv")
        assert [(r["status"], r["flags"]) for r in rows] \
            == [("ok", "sd-refuted")] * 5

    def test_bundled_hyperbolic_family_skips_the_discreteness_work(
        self, tmp_path, monkeypatch
    ):
        # no product approaches +-identity, so the sd-refuted check stops
        # before the cone search, and nothing profiles the pairs
        calls = []
        _record_calls(monkeypatch, cones.find_invariant_multicone, calls)
        _record_calls(monkeypatch, semigroup.discreteness_profile, calls)
        assert run_command(
            ["scan-continuity", "--config",
             cfg_path("family_hyperbolic_interior.cfg"), "--out",
             str(tmp_path)]
        ) == 0
        assert calls == []

    def test_no_finite_value_skips_the_plot(self, tmp_path, capsys):
        # t = 0 is singular, and t = 1 is the identity, whose cloud is empty
        fam = tmp_path / "fam.cfg"
        fam.write_text("family:\n  t 0 0 t\ngrid: 0 1 2\n")
        out = tmp_path / "out"
        assert run_command(
            ["scan-continuity", "--config", str(fam), "--out", str(out)]
        ) == 0
        rows = read_rows(out / "scan.csv")
        assert [r["status"].split(":")[0] for r in rows] \
            == ["error", "degenerate"]
        assert not (out / "scan.svg").exists()
        assert "scan.svg not written" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["scan.csv"]
        assert manifest["partial"] is False


class TestManifest:
    def test_manifest_written_with_versions(self, tmp_path):
        run_command(["classify", "--config", cfg_path("diag_pair.cfg"),
                     "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "classify"
        assert manifest["outputs"] == ["classify.csv"]
        assert manifest["partial"] is False
        assert "projifs" in manifest["versions"]
        assert "numpy" in manifest["versions"]

    def test_rerun_reproduces_csv_byte_for_byte(self, tmp_path):
        first = tmp_path / "first"
        run_command(["critexp", "--config", cfg_path("diag_pair.cfg"),
                     "--depth", "8", "--out", str(first)])
        second = tmp_path / "second"
        assert rerun_manifest(first / "manifest.json", out_dir=second) == 0
        assert filecmp.cmp(first / "critexp.csv", second / "critexp.csv",
                           shallow=False)

    def test_rerun_reproduces_sampled_output(self, tmp_path):
        first = tmp_path / "first"
        run_command(["attractor", "--config", cfg_path("positive_pair.cfg"),
                     "--samples", "300", "--seed", "17",
                     "--out", str(first)])
        second = tmp_path / "second"
        assert rerun_manifest(first / "manifest.json", out_dir=second) == 0
        assert filecmp.cmp(first / "attractor.csv",
                           second / "attractor.csv", shallow=False)

    def test_budget_overflow_flags_partial(self, tmp_path):
        cfg = tmp_path / "capped.cfg"
        cfg.write_text("matrices:\n  1 1 0 1\n  1 0 1 1\ndepth_cap: 3\n")
        out = tmp_path / "out"
        code = run_command(["enumerate", "--config", str(cfg),
                            "--depth", "6", "--out", str(out)])
        assert code == 1
        rows = read_rows(out / "words.csv")
        assert len(rows) == 2 + 4 + 8  # levels behind the cap survive
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True


    @pytest.mark.parametrize("command", ["critexp", "attractor"])
    def test_depth_beyond_cap_flags_partial(self, tmp_path, capsys, command):
        cfg = tmp_path / "capped.cfg"
        cfg.write_text("matrices:\n  1 1 0 1\n  1 0 1 1\ndepth_cap: 3\n")
        assert run_command([command, "--config", str(cfg), "--depth", "3",
                            "--out", str(tmp_path / "within")]) == 0
        out = tmp_path / "out"
        assert run_command([command, "--config", str(cfg), "--depth", "6",
                            "--out", str(out)]) == 1
        assert "depth 6 exceeds cap 3" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["partial"] is True


class TestSvg:
    def test_tick_cap(self):
        pts = np.linspace(1e-3, math.pi, 12_000)
        svg = attractor_svg(pts, max_ticks=4000)
        assert svg.count("<line") <= 4000

    def test_small_cloud_unthinned(self):
        svg = attractor_svg(np.array([0.5, 1.0, 2.0]))
        assert svg.count("<line") == 3

    def test_line_plot_gaps_at_nan(self):
        svg = line_plot_svg(
            [0.0, 1.0, 2.0, 3.0],
            [("dim", [0.5, float("nan"), 0.7, 0.8])],
        )
        assert "nan" not in svg.lower()
        assert svg.count("<polyline") == 1  # only the finite tail is a line
        assert svg.count("<circle") == 1  # the isolated point becomes a dot

    def test_line_plot_validates(self):
        with pytest.raises(ValueError, match="length"):
            line_plot_svg([0.0, 1.0], [("a", [1.0])])
        with pytest.raises(ValueError, match="finite"):
            line_plot_svg([0.0], [("a", [float("nan")])])
