"""Config parsing, emission round-trips, and the affine family format."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings

from projifs.config import (
    AffineEntry,
    emit_config,
    parse_config,
    parse_config_text,
    parse_family,
    parse_family_text,
    write_config,
)
from projifs.errors import ConfigError
from projifs.geometry import MAXENTRY, Matrix2
from projifs.semigroup import SystemConfig

from conftest import sl2_matrices

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

BASIC = """\
# a pair of diagonal contractions
matrices:
  2/1 0/1 0/1 1/2
  3 0 0 1/3
probs: 0.25 0.75
depth_cap: 10
seed: 5
"""


class TestParseConfig:
    def test_fractions_exact(self):
        cfg = parse_config_text(BASIC)
        assert cfg.matrices[0] == Matrix2(2.0, 0.0, 0.0, 0.5)
        assert cfg.matrices[1] == Matrix2(3.0, 0.0, 0.0, 1.0 / 3.0)
        assert cfg.probs == (0.25, 0.75)
        assert cfg.depth_cap == 10
        assert cfg.seed == 5

    def test_determinant_warning_and_renormalization(self):
        with pytest.warns(UserWarning, match="renormalized"):
            cfg = parse_config_text("matrices:\n  2 0 0 1\n")
        s = 1.0 / math.sqrt(2.0)
        assert cfg.matrices[0].a == pytest.approx(2.0 * s, rel=1e-15)
        assert cfg.matrices[0].d == pytest.approx(s, rel=1e-15)

    def test_determinant_warning_shows_a_small_deviation(self):
        # det - 1 = 1e-7 is past the 1e-9 warning threshold but vanishes
        # in six significant digits
        with pytest.warns(UserWarning, match="renormalized") as caught:
            parse_config_text("matrices:\n  1.0000001 0 0 1\n")
        text = str(caught[0].message)
        assert "determinant 1 " not in text
        assert "1.00e-07" in text

    def test_short_row_rejected(self):
        with pytest.raises(ConfigError, match="3 numbers"):
            parse_config_text("matrices:\n  1 0 0\n")

    def test_row_line_number_reported(self):
        try:
            parse_config_text("matrices:\n  2 0 0 1/2\n  1 0 0\n")
        except ConfigError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected a parse error")

    def test_singular_row_rejected(self):
        with pytest.raises(ConfigError, match="not invertible"):
            parse_config_text("matrices:\n  1 1 1 1\n")

    def test_negative_determinant_rejected(self):
        with pytest.raises(ConfigError, match="orientation"):
            parse_config_text("matrices:\n  0 1 1 0\n")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="not a number"):
            parse_config_text("matrices:\n  1 0 x 1\n")

    def test_probs_must_sum_to_one(self):
        text = "matrices:\n  2 0 0 1/2\n  3 0 0 1/3\nprobs: 0.3 0.3\n"
        with pytest.raises(ConfigError, match="sum"):
            parse_config_text(text)

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("matrices:\n  2 0 0 1/2\nscale: 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("matrices:\n  2 0 0 1/2\nseed: 1\nseed: 2\n")

    def test_stray_line(self):
        with pytest.raises(ConfigError, match="stray"):
            parse_config_text("seed: 3\n2 0 0 1/2\n")

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative") as e:
            parse_config_text("matrices:\n  2 0 0 1/2\nseed: -1\n")
        assert e.value.line == 3

    def test_missing_matrices(self):
        with pytest.raises(ConfigError, match="no matrices"):
            parse_config_text("seed: 3\n")

    def test_bad_norm(self):
        with pytest.raises(ConfigError, match="norm"):
            parse_config_text("matrices:\n  2 0 0 1/2\nnorm: frobenius\n")

    def test_comments_stripped(self):
        cfg = parse_config_text(
            "matrices:  # the block\n  2 0 0 1/2  # one letter\n"
        )
        assert cfg.k == 1

    def test_path_in_error_message(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("matrices:\n  1 0 0\n")
        with pytest.raises(ConfigError, match="bad.cfg"):
            parse_config(p)


class TestRoundTrip:
    def test_fraction_config_round_trips(self):
        cfg = parse_config_text(BASIC)
        again = parse_config_text(emit_config(cfg))
        assert again == cfg
        assert again.source_rows == cfg.source_rows

    def test_norm_and_defaults_survive(self):
        text = "matrices:\n  2 0 0 1/2\nnorm: max\n"
        cfg = parse_config_text(text)
        assert cfg.norm == MAXENTRY
        assert parse_config_text(emit_config(cfg)) == cfg

    def test_write_and_parse_file(self, tmp_path):
        cfg = parse_config_text(BASIC)
        p = tmp_path / "out.cfg"
        write_config(cfg, p)
        assert parse_config(p) == cfg

    @settings(max_examples=40, deadline=None)
    @given(m=sl2_matrices(max_log=2.0))
    def test_float_matrices_round_trip(self, m):
        cfg = SystemConfig(matrices=(m,), seed=3)
        assert parse_config_text(emit_config(cfg)) == cfg

    def test_bundled_configs_parse(self):
        files = sorted(CONFIGS_DIR.glob("*.cfg"))
        parsed = 0
        for path in files:
            if path.name.startswith("family_"):
                parse_family(path)
            else:
                parse_config(path)
            parsed += 1
        assert parsed == 10


class TestFamilies:
    TEXT = """\
family:
  2 t 0 1/2
  1/2 0 t 2
grid: 0.5 1.5 5
"""

    def test_parse_and_evaluate(self):
        fam = parse_family_text(self.TEXT)
        assert fam.grid == (0.5, 0.75, 1.0, 1.25, 1.5)
        cfg = fam.at(1.0)
        assert cfg.matrices[0] == Matrix2(2.0, 1.0, 0.0, 0.5)
        assert cfg.matrices[1] == Matrix2(0.5, 0.0, 1.0, 2.0)

    def test_affine_forms(self):
        assert AffineEntry(1.0, 2.0).at(0.5) == 2.0
        fam = parse_family_text(
            "family:\n  1+2*t -t 1/2*t 1\ngrid: 0 1 2\n"
        )
        row = fam.entries[0]
        assert (row[0].const, row[0].coef) == (1.0, 2.0)
        assert (row[1].const, row[1].coef) == (0.0, -1.0)
        assert (row[2].const, row[2].coef) == (0.0, 0.5)
        assert (row[3].const, row[3].coef) == (1.0, 0.0)

    def test_grid_includes_endpoints(self):
        fam = parse_family_text("family:\n  1 t 0 1\ngrid: 0 0.5 26\n")
        assert fam.grid[0] == 0.0
        assert fam.grid[-1] == 0.5
        assert len(fam.grid) == 26

    def test_bad_entry_rejected(self):
        with pytest.raises(ConfigError, match="n\\*t"):
            parse_family_text("family:\n  2t 0 0 1\ngrid: 0 1 2\n")

    def test_scientific_notation_rejected(self):
        with pytest.raises(ConfigError):
            parse_family_text("family:\n  1e-3 0 0 1\ngrid: 0 1 2\n")

    def test_grid_required(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_family_text("family:\n  1 t 0 1\n")

    def test_grid_shape_checked(self):
        with pytest.raises(ConfigError, match="lo hi count"):
            parse_family_text("family:\n  1 t 0 1\ngrid: 0 1\n")
        with pytest.raises(ConfigError, match="count >= 2"):
            parse_family_text("family:\n  1 t 0 1\ngrid: 1 0 5\n")

    def test_family_and_matrices_exclusive(self):
        with pytest.raises(ConfigError):
            parse_config_text("family:\n  1 t 0 1\ngrid: 0 1 2\n")
        with pytest.raises(ConfigError):
            parse_family_text("matrices:\n  2 0 0 1/2\n")

    @pytest.mark.parametrize("line, message", [
        ("probs: 1", "probs length must match alphabet size"),
        ("depth_cap: 0", "depth_cap must be positive"),
    ])
    def test_settings_get_the_config_checks(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_family_text(self.TEXT + line + "\n")

    def test_degenerate_member_reported(self):
        fam = parse_family_text("family:\n  t 0 0 t\ngrid: 0 1 3\n")
        with pytest.raises(ConfigError, match="t=0"):
            fam.at(0.0)
