import pytest

from thermoform import config as cfg


class TestPerName:
    NAMES = ("x", "y")

    def test_reads_each_name_with_its_path(self):
        seen = []

        def read(value, path):
            seen.append((value, path))
            return value * 2

        assert cfg.per_name({"y": 2, "x": 1}, self.NAMES, "config.point", read) == {"x": 2, "y": 4}
        assert seen == [(1, "config.point.x"), (2, "config.point.y")]

    @pytest.mark.parametrize("doc, message", [
        (5, "config.point: expected a mapping, got 5"),
        ([1, 2], "config.point: expected a mapping, got [1, 2]"),
        ({"x": 1}, "config.point.y: missing required key"),
        ({"x": 1, "y": 2, "z": 3}, "config.point: unknown keys ['z']"),
    ], ids=["scalar", "list", "missing-name", "unknown-name"])
    def test_rejects_anything_but_exactly_the_names(self, doc, message):
        with pytest.raises(cfg.ConfigError) as err:
            cfg.per_name(doc, self.NAMES, "config.point", cfg.as_number)
        assert str(err.value) == message

    def test_reader_errors_name_the_entry(self):
        with pytest.raises(cfg.ConfigError) as err:
            cfg.per_name({"x": 1.0, "y": "a"}, self.NAMES, "config.point", cfg.as_number)
        assert str(err.value) == "config.point.y: expected a finite number, got 'a'"
