"""Tests for the shared utilities."""

import numpy as np
import pytest

from repro.utils import check_count, check_real
from repro.utils.rng import as_rng, derive_seed, spawn_rngs
from repro.utils.tables import TextTable


class TestRng:
    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_seeds(self):
        assert as_rng(5).random() == as_rng(5).random()

    def test_spawn_independence(self):
        a, b = spawn_rngs(7, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        first = [g.random() for g in spawn_rngs(7, 3)]
        second = [g.random() for g in spawn_rngs(7, 3)]
        assert first == second

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_derive_seed_stable(self):
        assert derive_seed(3, 4) == derive_seed(3, 4)
        assert derive_seed(3, 4) != derive_seed(3, 5)

    def test_derive_seed_none(self):
        assert derive_seed(None, 4) is None


class TestChecks:
    @pytest.mark.parametrize("value", [3, -1, np.int64(3), np.int32(0)])
    def test_count_accepts_integers(self, value):
        assert check_count("n", value) is value

    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_count_rejects_bool_and_non_integral(self, value):
        with pytest.raises(ValueError, match="^n must be an integer"):
            check_count("n", value)

    @pytest.mark.parametrize("value", [0, 2.5, np.float64(-1.0), np.int64(4)])
    def test_real_accepts_finite_numbers(self, value):
        assert check_real("x", value) is value

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), False, "1.0", None]
    )
    def test_real_rejects_bool_non_finite_and_non_numbers(self, value):
        with pytest.raises(ValueError, match="^x must be a finite number"):
            check_real("x", value)


class TestTextTable:
    def test_render_alignment(self):
        table = TextTable(["name", "value"])
        table.add_row(["x", 1.0])
        table.add_row(["longer", 2.5])
        lines = table.render().splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_float_format(self):
        table = TextTable(["v"], float_fmt="{:.1f}")
        table.add_row([3.14159])
        assert "3.1" in table.render()

    def test_row_length_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_markdown(self):
        table = TextTable(["a"])
        table.add_row([1])
        md = table.render_markdown()
        assert md.startswith("| a |")
        assert "| --- |" in md

    def test_len(self):
        table = TextTable(["a"])
        assert len(table) == 0
        table.add_row([1])
        assert len(table) == 1

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            TextTable([])
