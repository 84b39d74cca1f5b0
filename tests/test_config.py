import numpy as np
import pytest
import yaml

from thermoform import config as cfg
from thermoform.cli import EXIT_ERROR, main
from thermoform.expr import DomainError, evaluate, parse


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


class TestTimeFn:
    @pytest.mark.parametrize("shape, value, expected", [
        ((), "2*t", 0.6),
        ((3,), ["t", "0", "-t"], [0.3, 0.0, -0.3]),
        ((3, 3), [["t", "0", "0"], ["0", "1", "0"], ["0", "0", "t^2"]],
         [[0.3, 0, 0], [0, 1, 0], [0, 0, 0.09]]),
        ((3, 3), None, [[0.0] * 3] * 3),
    ], ids=["scalar", "vector", "matrix", "default-zero"])
    def test_values_have_the_shape(self, shape, value, expected):
        out = cfg.time_fn(value, "config.forcing.x", shape)(0.3)
        assert np.shape(out) == shape
        assert np.allclose(out, expected, rtol=0.0, atol=1e-15)

    def test_scalar_is_a_float(self):
        assert type(cfg.time_fn(None, "config.forcing.divq", ())(1.0)) is float

    @pytest.mark.parametrize("read, value, message", [
        (cfg.time_fn_scalar, 3, "config.forcing.divq: expected an expression string"),
        (cfg.time_fn_vector, ["t", "0"], "config.forcing.divq: expected a list of 3 expression strings"),
        (cfg.time_fn_vector, ["t", 1, "0"], "config.forcing.divq[1]: expected an expression string"),
        (cfg.time_fn_matrix, [["0"] * 3, ["0"] * 2, ["0"] * 3],
         "config.forcing.divq: expected a 3x3 nested list of expression strings"),
        (cfg.time_fn_matrix, [["0"] * 3, ["0"] * 3, ["0", "0", None]],
         "config.forcing.divq[2][2]: expected an expression string"),
        (cfg.time_fn_matrix, [["0"] * 3, ["0", "x", "0"], ["0"] * 3],
         "config.forcing.divq[1][1]: unresolved coordinate names: ['x']"),
    ], ids=["scalar-not-a-string", "vector-length", "vector-entry", "matrix-ragged",
            "matrix-entry", "matrix-entry-coordinate"])
    def test_shape_errors_name_the_entry(self, read, value, message):
        with pytest.raises(cfg.ConfigError) as err:
            read(value, "config.forcing.divq")
        assert str(err.value) == message

    def test_the_shape_is_checked_before_any_entry(self):
        # a ragged matrix is reported as such, not by its first unreadable entry
        with pytest.raises(cfg.ConfigError, match="3x3 nested list"):
            cfg.time_fn_matrix([[1, "0", "0"], ["0"]], "config.forcing.L")

    def test_fixed_shapes_are_bindings_of_time_fn(self):
        for read, shape in ((cfg.time_fn_scalar, ()), (cfg.time_fn_vector, (3,)),
                               (cfg.time_fn_matrix, (3, 3))):
            assert read.func is cfg.time_fn and read.keywords == {"shape": shape}

    MATRIX = [["t", "0", "sqrt(t)"], ["2*t", "t^2", "ln(t - 1)"], ["1/(t - 0.3)", "0", "pow(t, 2)"]]

    def loop_error(self, texts, t):
        """The error of evaluating the entries one by one, in row-major order."""
        try:
            for text in texts:
                evaluate(parse(text), {"t": t})
        except DomainError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("t", [0.3, 0.5, 1.5])
    def test_entries_are_one_tape_with_per_entry_values(self, t):
        # sqrt(0) keeps its value in a value-only sweep; only [1][2] leaves the domain below t = 1
        f = cfg.time_fn_matrix(self.MATRIX, "config.forcing.L")
        texts = [text for row in self.MATRIX for text in row]
        if t == 1.5:
            want = [evaluate(parse(text), {"t": t}) for text in texts]
            assert [v.hex() for v in f(t).ravel().tolist()] == [v.hex() for v in want]
        else:
            with pytest.raises(DomainError) as err:
                f(t)
            assert str(err.value) == self.loop_error(texts, t)

    def test_entry_1_2_leaving_the_domain_names_itself(self):
        with pytest.raises(DomainError) as err:
            cfg.time_fn_matrix(self.MATRIX, "config.forcing.L")(0.5)
        assert str(err.value) == "logarithm of a non-positive value in 'ln(t-1)' (value -0.5)"

    def test_first_failing_entry_wins(self):
        # the one sweep over all entries fails first at [1][2]'s ln, but entry
        # [0][1] is already inf, and evaluating entry by entry reports that first
        texts = [["t", "exp(t*800)*1e300*10", "0"], ["0", "0", "ln(t - 1)"], ["0", "0", "0"]]
        with pytest.raises(DomainError) as err:
            cfg.time_fn_matrix(texts, "config.forcing.L")(0.5)
        assert str(err.value) == self.loop_error([v for row in texts for v in row], 0.5)
        assert str(err.value).startswith("non-finite result in 'exp(t*800)*1e+300*10'")


class TestLoadYaml:
    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("coords: [x, y\n")
        with pytest.raises(cfg.ConfigError) as err:
            cfg.load_yaml(str(path))
        assert str(err.value).startswith("config is not valid YAML: while parsing a flow sequence")

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    @pytest.mark.parametrize("data, prefix", [
        (b"coords: [x, y\n", "while parsing a flow sequence\n"),
        # a byte that is not UTF-8 ended in a UnicodeDecodeError traceback
        (b"coords: [x, \xff]\n", "unacceptable character #x00ff: "),
    ], ids=["flow-sequence", "not-utf8"])
    def test_invalid_yaml_under_both_loaders(self, tmp_path, monkeypatch, capsys, loader, data, prefix):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML is built without libyaml")
        monkeypatch.setattr(cfg, "_LOADER", getattr(yaml, loader))
        path = tmp_path / "c.yaml"
        path.write_bytes(data)
        with pytest.raises(cfg.ConfigError) as err:
            cfg.load_yaml(str(path))
        assert str(err.value).startswith("config is not valid YAML: " + prefix)
        assert main(["metric", "--config", str(path)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {err.value}\n"

    @pytest.mark.parametrize("text", ["- x\n- y\n", "3\n", ""], ids=["list", "scalar", "empty"])
    def test_root_must_be_a_mapping(self, tmp_path, text):
        path = tmp_path / "c.yaml"
        path.write_text(text)
        with pytest.raises(cfg.ConfigError) as err:
            cfg.load_yaml(str(path))
        assert str(err.value) == "config root must be a mapping"
