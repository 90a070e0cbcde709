import ast
import csv
import dataclasses
import datetime as dt
import functools
import hashlib
import importlib
import json
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import dualstock.forecast as forecast_module
from dualstock.cli import load_config, main
from dualstock.config import ForecastOptions, RunConfig, WaveletOptions
from _oracles import ar1_series, sorted_quantile
from test_acceptance import write_desk_inputs


def write_prices(path, mids, start=dt.date(2021, 1, 1)):
    lines = ["date,high,low"]
    day = start
    for m in mids:
        lines.append(f"{day.isoformat()},{m * 1.02:.6f},{m * 0.98:.6f}")
        day += dt.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_example_config(tmp_path):
    """The README's example config, with a stub CSV under ``tmp_path`` for each of its tickers."""
    example = json.loads(re.search(r"Example config:\s*```json\n(.*?)```", README, re.DOTALL).group(1))
    for name in example["tickers"].values():
        write_prices(tmp_path / name, [10.0, 11.0])
    return example


def synthetic_tickers(tmp_path, n=120, seed=200):
    rng = np.random.default_rng(seed)
    trend = 20 + np.cumsum(rng.normal(0, 0.05, size=n))
    paths = {}
    for k, name in enumerate(("AAA", "BBB", "CCC")):
        mids = np.clip(trend + ar1_series(0.5, n, rng, sigma=0.3) + 2 * k, 2.0, 150.0)
        p = tmp_path / f"{name.lower()}.csv"
        write_prices(p, mids)
        paths[name] = p.name
    return paths


def write_config(tmp_path, tickers, /, out_name="out", **overrides):
    # positional-only, so an override may replace the tickers as well
    config = {
        "tickers": tickers,
        "out_dir": str(tmp_path / out_name),
        "seed": 321,
        "analyses": ["premiums"],
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# one out-of-range value per config section key, with the message of the record that rejects it
RANGE_ERRORS = [
    ("forecast", {"epochs": 0}, "epochs must be >= 1"),
    ("forecast", {"lags": [4, 0]}, "lag must be an integer >= 1, got 0"),
    ("forecast", {"windows": [1]}, "rolling regime requires window >= 2"),
    ("forecast", {"test_size": 0}, "test_size must be >= 1"),
    ("forecast", {"tickers": ["ZZZ"]}, "tickers ['ZZZ'] are not declared inputs"),
    ("wavelet", {"mc_iterations": 0}, "iterations must be >= 1"),
    ("csv", {"on_invalid": "ignore"}, "on_invalid must be 'fail' or 'skip'"),
    ("csv", {"delimiter": ";;"}, "delimiter must be one character, got ';;'"),
    ("csv", {"delimiter": ""}, "delimiter must be one character, got ''"),
    # csv.reader cannot split fields on its quote or on a line break
    ("csv", {"delimiter": '"'}, "delimiter '\"' is csv's quote or line break"),
    ("csv", {"delimiter": "\r"}, "delimiter '\\r' is csv's quote or line break"),
    ("csv", {"delimiter": "\n"}, "delimiter '\\n' is csv's quote or line break"),
    # one column cannot fill two roles: every mid would be the day's low
    ("csv", {"high_col": "low"}, "high_col and low_col both name column 'low'"),
]


class TestConfig:
    @pytest.mark.parametrize(
        "key, value",
        # premiums are written as fractions only, so percent, the key that
        # scaled them, fails like any other unknown key
        [("bogus", 1), ("percent", False), ("percent", True), ("percent", "false")],
    )
    def test_unknown_keys_rejected(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, synthetic_tickers(tmp_path), **{key: value})
        message = f"unknown config keys: [{key!r}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("wavelet", "nope", 1),
            # the rest were config keys; a config that still sets one fails
            ("forecast", "retrain_per_origin", False),
            ("wavelet", "num_scales", 24),
            # the Morlet-6 constants and the clip norm, even at their values
            ("wavelet", "omega0", 6.0),
            ("wavelet", "s0", 2.0),
            ("wavelet", "time_std_scales", 1.0),
            ("wavelet", "scale_window_octaves", 0.6),
            ("forecast", "clip_norm", 1.0),
            # the scale step, the significance level and the learning rate, at
            # their values and at others
            ("wavelet", "dj", 1 / 12),
            ("wavelet", "dj", 0.25),
            ("wavelet", "significance_level", 0.05),
            ("wavelet", "significance_level", 0.1),
            ("forecast", "learning_rate", 0.01),
            ("forecast", "learning_rate", 0.05),
        ],
    )
    def test_unknown_section_keys_rejected(self, tmp_path, capsys, section, key, value):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers, analyses=["premiums", "coherence", "forecast"], **{section: {key: value}})
        message = f"unknown keys in config section {section!r}: [{key!r}]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "report"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_output_path_that_cannot_be_a_directory_fails_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, command, under
    ):
        cli_module = importlib.import_module("dualstock.cli")
        read = []
        monkeypatch.setattr(cli_module, "load_ohlc_csv", lambda path, *a, **k: read.append(path))
        monkeypatch.setattr(cli_module, "_read_run", lambda path: read.append(path))
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n", encoding="utf-8")
        out = taken / "out" if under else taken
        if command == "run":
            path = write_config(tmp_path, synthetic_tickers(tmp_path))
            argv = ["run", "--config", str(path), "--out", str(out)]
        else:
            runs = tmp_path / "runs"
            runs.mkdir()
            (runs / "AAA_lag4_dual-no_w10.json").write_text("{}", encoding="utf-8")
            argv = ["report", "--runs", str(runs), "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        reason = "[Errno 20] Not a directory" if under else "[Errno 17] File exists"
        assert err == f"config error: {reason}: '{out}'\n"
        assert read == []
        assert taken.read_text(encoding="utf-8") == "a file, not a directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, out_dir, message",
        [
            (["premiums", "--config", "CONFIG", "--out", ""], "OUT", "--out must not be empty"),
            (["premiums", "--config", "CONFIG"], "", "config key out_dir must not be empty"),
            (["run", "--config", "CONFIG", "--out", "OUT"], "", "config key out_dir must not be empty"),
            (["report", "--runs", "RUNS", "--out", ""], "OUT", "--out must not be empty"),
            (["report", "--runs", "", "--out", "OUT"], "OUT", "--runs must not be empty"),
        ],
        ids=["flag-out", "config-out_dir", "config-out_dir-overridden", "report-out", "report-runs"],
    )
    def test_empty_output_or_runs_path_fails_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, argv, out_dir, message
    ):
        # an empty path is the working directory to Path(""), never what was meant
        cli_module = importlib.import_module("dualstock.cli")
        read = []
        monkeypatch.setattr(cli_module, "load_ohlc_csv", lambda path, *a, **k: read.append(path))
        monkeypatch.setattr(cli_module, "_read_run", lambda path: read.append(path))
        out = tmp_path / "out"
        config = write_config(tmp_path, synthetic_tickers(tmp_path), out_dir=str(out) if out_dir else out_dir)
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "AAA_lag4_dual-no_w10.json").write_text("{}", encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        paths = {"CONFIG": str(config), "OUT": str(out), "RUNS": str(runs)}
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert read == []
        assert list(work.iterdir()) == []
        assert not out.exists()

    def test_relative_paths(self, tmp_path, monkeypatch):
        # ticker paths resolve against the config's directory, out_dir against the working directory
        cfgdir = tmp_path / "cfgdir"
        cfgdir.mkdir()
        tickers = synthetic_tickers(cfgdir)
        config = {"tickers": tickers, "out_dir": "out", "seed": 1, "analyses": ["premiums"]}
        (cfgdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        loaded = load_config("../cfgdir/config.json")
        assert dict(loaded.tickers) == {name: (cfgdir / file).resolve() for name, file in tickers.items()}
        assert loaded.out_dir == Path("out")
        assert main(["premiums", "--config", "../cfgdir/config.json"]) == 0
        assert (work / "out" / "manifest.json").is_file()
        assert not (cfgdir / "out").exists()

    def test_missing_input_file(self, tmp_path):
        path = write_config(tmp_path, {"AAA": "absent.csv"})
        with pytest.raises(ValueError, match="not found"):
            load_config(path)

    def test_overrides(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers)
        config = load_config(path, seed=999, out_dir=tmp_path / "elsewhere")
        assert config.seed == 999
        assert config.out_dir == tmp_path / "elsewhere"

    @pytest.mark.parametrize(
        "section, value",
        [("forecast", {"lags": "4"}), ("forecast", {"epochs": 2.5}), ("wavelet", {"mc_iterations": True})],
    )
    def test_wrong_typed_value_rejected(self, tmp_path, section, value):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers, **{section: value})
        key = f"{section}.{next(iter(value))}"
        with pytest.raises(ValueError, match=key):
            load_config(path)

    def test_wrong_typed_value_exits_with_config_error(self, tmp_path, capsys):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers, analyses=["forecast"], forecast={"lags": "4"})
        assert main(["run", "--config", str(path)]) == 1
        assert "config error: config key forecast.lags" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("analyses", "premiums"),
            ("analyses", ["premiums", "bogus"]),
            ("seed", 1.5),
            ("seed", True),
            ("seed", "abc"),
            ("out_dir", 5),
            ("tickers", {"AAA": 5}),
        ],
    )
    def test_wrong_typed_top_level_value_exits_with_config_error(self, tmp_path, capsys, key, value):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers, **{key: value})
        with pytest.raises(ValueError, match=f"config key {key} must be"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: config key {key} must be" in capsys.readouterr().err

    def test_top_level_array_exits_with_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="config must be a JSON object, got list"):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert "config error: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, values, message",
        [
            ("analyses", ["premiums", "coherence", "premiums"], "config key analyses must not repeat 'premiums'"),
            ("lags", [4, 4], "forecast.lags must not repeat 4"),
            ("duals", [False, True, False], "forecast.duals must not repeat False"),
            ("windows", [10, 20, 10], "forecast.windows must not repeat 10"),
            ("tickers", ["AAA", "BBB", "AAA"], "forecast.tickers must not repeat 'AAA'"),
        ],
        ids=["analyses", "lags", "duals", "windows", "tickers"],
    )
    def test_repeated_list_entry_exits_with_config_error(self, tmp_path, capsys, key, values, message):
        # a repeated entry would run (and write) the same unit twice; the record
        # that holds the list rejects it, for a library caller as for the CLI
        tickers = synthetic_tickers(tmp_path)
        if key == "analyses":
            path = write_config(tmp_path, tickers, analyses=values)
            declared = tuple((name, tmp_path / file) for name, file in tickers.items())
            build = functools.partial(RunConfig, tickers=declared, out_dir=tmp_path / "out", seed=0, analyses=tuple(values))
            line = message
        else:
            path = write_config(tmp_path, tickers, forecast={key: values})
            build = functools.partial(ForecastOptions, **{key: tuple(values)})
            line = f"config section forecast: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build()
        with pytest.raises(ValueError, match=re.escape(line)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.strip() == f"config error: {line}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "options, kwargs, message",
        [
            # a lag or a count is an int, not a float, a bool or a string
            (ForecastOptions, {"lags": (4.0,)}, "lag must be an integer >= 1, got 4.0"),
            (ForecastOptions, {"lags": (4, True)}, "lag must be an integer >= 1, got True"),
            (ForecastOptions, {"lags": ("4",)}, "lag must be an integer >= 1, got '4'"),
            (ForecastOptions, {"epochs": True}, "epochs must be an integer, got True"),
            (ForecastOptions, {"hidden_size": 16.0}, "hidden_size must be an integer, got 16.0"),
            (WaveletOptions, {"mc_iterations": 2.5}, "iterations must be an integer, got 2.5"),
        ],
        ids=["lag-float", "lag-bool", "lag-string", "epochs-bool", "hidden-size-float", "mc-iterations-float"],
    )
    def test_options_built_directly_reject_a_non_integer(self, options, kwargs, message):
        # JSON types stop these in load_config; a library caller gets the record's check
        with pytest.raises(ValueError, match=re.escape(message)):
            options(**kwargs)

    @pytest.mark.parametrize(
        "section, value, message", RANGE_ERRORS, ids=[f"{sec}.{next(iter(v))}" for sec, v, _ in RANGE_ERRORS]
    )
    def test_range_error_exits_before_any_analysis(self, tmp_path, capsys, section, value, message):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers, analyses=["premiums", "coherence", "forecast"], **{section: value})
        message = f"config section {section}: {message}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "anchor, injected, key",
        [
            ('"tickers": {', '"tickers": {"AAA": "bbb.csv", ', "AAA"),
            ('"seed": 321', '"seed": 7, "seed": 321', "seed"),
            ('"forecast": {', '"forecast": {"epochs": 3, ', "epochs"),
        ],
        ids=["ticker", "top-level", "section"],
    )
    def test_repeated_json_key_exits_with_config_error(self, tmp_path, capsys, anchor, injected, key):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, tickers, forecast={"epochs": 2})
        path.write_text(path.read_text(encoding="utf-8").replace(anchor, injected), encoding="utf-8")
        message = f"config key {key!r} is repeated in one JSON object"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"analyses": []}, "config key analyses must name at least one analysis"),
            ({"forecast": {"lags": []}}, "config section forecast: forecast.lags is empty"),
            ({"forecast": {"duals": []}}, "config section forecast: forecast.duals is empty"),
            ({"forecast": {"tickers": []}}, "config section forecast: forecast.tickers is empty"),
        ],
        ids=["analyses", "lags", "duals", "tickers"],
    )
    def test_empty_list_exits_with_config_error(self, tmp_path, capsys, overrides, message):
        # an empty list would run nothing, write an empty manifest and exit 0
        path = write_config(tmp_path, synthetic_tickers(tmp_path), **overrides)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, analyses, named",
        [
            ("run", ["premiums", "coherence", "forecast"], "premiums and coherence"),
            ("run", ["coherence"], "coherence"),
            ("premiums", ["forecast"], "premiums"),
            ("coherence", ["forecast"], "coherence"),
        ],
        ids=["run-premiums-coherence", "run-coherence", "premiums", "coherence"],
    )
    def test_pairwise_analysis_of_one_ticker_exits_with_config_error(
        self, tmp_path, capsys, monkeypatch, command, analyses, named
    ):
        cli_module = importlib.import_module("dualstock.cli")
        loaded = []
        monkeypatch.setattr(cli_module, "load_ohlc_csv", lambda path, *a, **k: loaded.append(path))
        path = write_config(tmp_path, {"AAA": synthetic_tickers(tmp_path)["AAA"]}, analyses=analyses)
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.strip() == f"config error: config key tickers must declare at least two tickers for {named}, got 1"
        assert loaded == []
        assert not (tmp_path / "out").exists()

    def test_forecast_of_one_ticker_needs_no_pair(self, tmp_path):
        # the default analyses select premiums and coherence, but forecast runs alone
        path = write_config(
            tmp_path,
            {"AAA": synthetic_tickers(tmp_path)["AAA"]},
            analyses=["premiums", "coherence", "forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2,
            },
        )
        assert main(["forecast", "--config", str(path)]) == 0

    def test_empty_windows_with_mece_is_valid(self, tmp_path):
        path = write_config(tmp_path, synthetic_tickers(tmp_path), forecast={"windows": [], "mece_train_size": 80})
        assert [r.label for r in load_config(path).forecast.regimes()] == ["mece"]

    def test_cli_shares_the_config_loader(self):
        # the console script and callers of dualstock.cli find the loader there
        config_module = importlib.import_module("dualstock.config")
        cli_module = importlib.import_module("dualstock.cli")
        assert cli_module.load_config is config_module.load_config
        assert callable(cli_module.main)

    @pytest.mark.parametrize(
        "names, overrides, message",
        [
            (
                ["AAA"],
                {"analyses": ["premiums"]},
                "config key tickers must declare at least two tickers for premiums, got 1",
            ),
            (
                ["AAA", "BBB"],
                {"analyses": ["forecast"], "forecast": {"duals": [False, True]}},
                "config key forecast.duals includes true: a dual run needs exactly three declared tickers, got 2",
            ),
        ],
        ids=["pair-of-one", "dual-of-two"],
    )
    def test_load_config_rejects_a_selection_its_tickers_cannot_run(self, tmp_path, names, overrides, message):
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, {name: tickers[name] for name in names}, **overrides)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)

    def test_subcommand_analysis_replaces_the_analyses_key(self, tmp_path):
        # the key selects coherence, which one ticker cannot run; forecast can
        path = write_config(
            tmp_path, {"AAA": synthetic_tickers(tmp_path)["AAA"]}, analyses=["coherence"], forecast={"duals": [False]}
        )
        assert load_config(path, analyses=("forecast",)).analyses == ("forecast",)
        with pytest.raises(ValueError, match="at least two tickers for coherence"):
            load_config(path)
        # an empty key fails all the same
        path = write_config(tmp_path, {"AAA": synthetic_tickers(tmp_path)["AAA"]}, analyses=[])
        with pytest.raises(ValueError, match="config key analyses must name at least one analysis"):
            load_config(path, analyses=("forecast",))

    def test_run_config_built_directly_rejects_an_unknown_analysis(self, tmp_path):
        # load_config and the record check the names by one rule, with one message
        message = "config key analyses must be names from ('premiums', 'coherence', 'forecast'), got 'bogus'"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(tickers=(("AAA", tmp_path / "a.csv"),), out_dir=tmp_path, seed=0, analyses=("bogus",))

    def test_forecast_cells_are_the_grid_at_lags_each_regime_runs(self):
        options = ForecastOptions(lags=(4, 9), duals=(False, True), windows=(5, 10), mece_train_size=9)
        assert [(lag, dual, regime.label) for lag, dual, regime in options.cells()] == [
            (4, False, "window=5"), (4, False, "window=10"), (4, False, "mece"),
            (4, True, "window=5"), (4, True, "window=10"), (4, True, "mece"),
            (9, False, "window=10"), (9, True, "window=10"),
        ]

    def test_readme_example_config_loads(self, tmp_path):
        # a config key deleted from the code must leave the README's example too
        example = readme_example_config(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(example), encoding="utf-8")
        config = load_config(path)
        assert [name for name, _ in config.tickers] == list(example["tickers"])
        assert config.out_dir == Path(example["out_dir"])
        assert config.forecast.windows == tuple(example["forecast"]["windows"])
        assert config.wavelet.mc_iterations == example["wavelet"]["mc_iterations"]

    def test_readme_wrong_type_examples_name_their_key(self, tmp_path):
        # each wrong-typed value the README quotes, set in its example config,
        # is the config error that names the key
        quoted = re.search(r"wrong type \(for example (.*?)\) names its\s+key", README, re.DOTALL).group(1)
        examples = re.findall(r'`"(\w+)": (.*?)`', quoted)
        assert examples
        for key, value in examples:
            example = readme_example_config(tmp_path)
            section = next((name for name, v in example.items() if isinstance(v, dict) and key in v), None)
            (example[section] if section else example)[key] = json.loads(value)
            path = tmp_path / "config.json"
            path.write_text(json.dumps(example), encoding="utf-8")
            name = f"{section}.{key}" if section else key
            with pytest.raises(ValueError, match=re.escape(f"config key {name} must be")):
                load_config(path)

    def test_readme_quickstart_imports_exist(self):
        # a public name deleted from the package must leave the README too
        code = re.search(r"## Library quickstart\s*```python\n(.*?)```", README, re.DOTALL).group(1)
        imported = [
            (node.module, alias.name)
            for node in ast.walk(ast.parse(code))
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "dualstock"
            for alias in node.names
        ]
        assert imported
        assert [(m, n) for m, n in imported if not hasattr(importlib.import_module(m), n)] == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tickers": {}}, "config must declare at least one ticker"),
            ({"csv": []}, "config section 'csv' must be an object"),
            ({"out_dir": None}, "no output directory: set out_dir in config or pass --out"),
        ],
        ids=["no-ticker", "section-not-an-object", "no-output-directory"],
    )
    def test_config_error_exits_before_any_output(self, tmp_path, capsys, overrides, message):
        path = write_config(tmp_path, synthetic_tickers(tmp_path), **overrides)
        # an override of None leaves the key out
        config = {k: v for k, v in json.loads(path.read_text(encoding="utf-8")).items() if v is not None}
        path.write_text(json.dumps(config), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("name", ["../../x", "a/b", "A_B", "A,B", ""])
    def test_unsafe_ticker_name_exits_with_config_error(self, tmp_path, capsys, name):
        # a name is part of output paths and CSV cells: it may not leave the
        # output directory, clash with the "_" that joins a pair, or split a cell
        tickers = synthetic_tickers(tmp_path)
        path = write_config(tmp_path, {name: tickers["AAA"], "BBB": tickers["BBB"]})
        before = sorted(tmp_path.rglob("*"))
        message = f"config key tickers: name {name!r} must match [A-Za-z0-9][A-Za-z0-9.-]*"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)
        assert main(["premiums", "--config", str(path)]) == 1
        assert capsys.readouterr().err.strip() == f"config error: {message}"
        assert sorted(tmp_path.rglob("*")) == before

    def test_missing_seed(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config = {"tickers": tickers, "out_dir": str(tmp_path / "o")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(ValueError, match="seed"):
            load_config(path)


# SHA-256 of each premiums file that the desk-scale fixture's inputs give
DESK_PREMIUM_DIGESTS = {
    "KRA_over_KRB_series.csv": "de240fd19efc75e683f2f770fd22fbb3ba4eb1b41b8d2a5ddef810990c12b341",
    "KRA_over_KRB_summary.csv": "0c43f3a098f1fa888acf0fa2fb2f7cdea478bda488ea1e5565c6fdbb4ef9d240",
    "KRA_over_KRB_summary.json": "eade905218b7758bd615bf13a98b8c85be1b0c0f81112c73e86f0c5abc16739c",
    "KRA_over_KRD_series.csv": "27e1898915deed3b89ffbc0698a6bbfbab73616b98776e4928836fba67805474",
    "KRA_over_KRD_summary.csv": "e91ad15442feeb3f7049715101af15830d03f6daa5fc102ae32c209d0ab3391e",
    "KRA_over_KRD_summary.json": "5d23ee5936ce2a4b579e9bd184944e5c3a4cf49bfe642ae534f4020ea578dd27",
    "KRB_over_KRD_series.csv": "8c61404c513e4701dac7cc7dc02307c46e2f937845ddbb3b7713939ef30fbb3f",
    "KRB_over_KRD_summary.csv": "93f080283c997022eefa9cdb79f94c87285c226b75da8edb6bf299dda4e1ccbf",
    "KRB_over_KRD_summary.json": "8ae9f3831e1fbd45774306863d55f391af644c41c98f6b75093d3f6d7b1be264",
}

# the run descriptors of a 3-ticker forecast grid: lags 4 and 9, both duals,
# window 10 and MECE, 1 epoch (TestForecastCommand.test_run_descriptors_are_pinned)
FORECAST_DESCRIPTOR_DIGESTS = {
    "AAA_lag4_dual-no_mece.json": "9ae69941d4e7d16fe958480283591971ab752b7650b041cbd01ea0a6d815d32a",
    "AAA_lag4_dual-no_w10.json": "590bf9c38967becd2255bbb29214c29068f8bde237184155786c2974aa61f329",
    "AAA_lag4_dual-yes_mece.json": "fed97491a958b2285b64cd104fed8c3700fd9dc91402276d70530f471eca50c2",
    "AAA_lag4_dual-yes_w10.json": "6d25c83df8eb759c3936cef21dce876f035fb066ac4e21e36b4fd0203e63da7a",
    "AAA_lag9_dual-no_mece.json": "a222bd8a1c980fe728917caeb42047e1fd4b0c91c08d001a601470467fa5fb32",
    "AAA_lag9_dual-no_w10.json": "88ff4da84d444aaac5c75b2afb623f5d1029274ca61691e58f8d4439bd413d25",
    "AAA_lag9_dual-yes_mece.json": "3809c08cf128140abf032f979c286ee08fb28fb2c91099f836b934bce8d7c822",
    "AAA_lag9_dual-yes_w10.json": "4edae43e1ac4ee06a7558a840f0c5ebd2b952006e95eb09f8fc3c644b44b3875",
    "BBB_lag4_dual-no_mece.json": "24cc2d653e14f80f2f49fb3fe10b767a17a410dbebca7ab070c0d7e0a28a98f8",
    "BBB_lag4_dual-no_w10.json": "4c32a3ae2728bfe7fa9b0c81c34c2fcb3fe95ebadc939fec29ba63a742b87940",
    "BBB_lag4_dual-yes_mece.json": "f49beba16eff7bf5b0e0ea70e35fb067e7ad3623175215da6b5a8fdca62664b1",
    "BBB_lag4_dual-yes_w10.json": "8de362505425be656925c455958b632b575bb6e9d98c48a42acd88e200088a05",
    "BBB_lag9_dual-no_mece.json": "f88635e42e5d75800a121602c0b4face2115f21220219f895ebe59027ac26c2f",
    "BBB_lag9_dual-no_w10.json": "6802fca45060c6eeb14f5d751c6d9217cb2a713af3d6eb19df5da338079406e7",
    "BBB_lag9_dual-yes_mece.json": "d8fcbfa00d72ec236b40bbbf3c4733e7593b23d9f358dfe6adb13dc83846d629",
    "BBB_lag9_dual-yes_w10.json": "2b2ede41b51a87ad128fbc2a6b8bf4f2dc45418e5e0ae25101dc17f87036a85e",
    "CCC_lag4_dual-no_mece.json": "79a796e3f40eb03fed0a33a96c786826c121139c154995f537778499a45a8aea",
    "CCC_lag4_dual-no_w10.json": "7495c03425b1e327d8cfe4522a8c82a7f85d73554603f0cc1797321c47958985",
    "CCC_lag4_dual-yes_mece.json": "942d4dee0ddcbee2273cb28850b00555e4c4a3302fb8c00e2e86af2ad812f51a",
    "CCC_lag4_dual-yes_w10.json": "29536f0a976f95b041b206e0c7daf103d76dc4398575faa55e40b220beed9a66",
    "CCC_lag9_dual-no_mece.json": "facc4f4ba4917324807b5bd54035ee7edeafe9d8255f305fec977c4a526fddd7",
    "CCC_lag9_dual-no_w10.json": "bc0a0a156993a15a59fd4e990ef077816da389ffdfe5ff323f0a709d16b5abdb",
    "CCC_lag9_dual-yes_mece.json": "ca76faa6d42efbcfcdeefd4bff240337d84e40ef67e513b857b963c99ac71096",
    "CCC_lag9_dual-yes_w10.json": "b2d2530b7899c5ed358d2f17488dd2ba7c8454a4bbb2a952375c1ec3308e7943",
}


class TestPremiumsCommand:
    def test_three_pairs_and_oracle(self, tmp_path, capsys):
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(tmp_path, tickers)
        assert main(["premiums", "--config", str(config_path)]) == 0
        out = tmp_path / "out" / "premiums"
        names = sorted(p.name for p in out.glob("*_summary.json"))
        assert names == [
            "AAA_over_BBB_summary.json",
            "AAA_over_CCC_summary.json",
            "BBB_over_CCC_summary.json",
        ]
        # summary values match an independent sort-based oracle
        series_lines = (out / "AAA_over_BBB_series.csv").read_text().strip().split("\n")[1:]
        values = np.array([float(line.split(",")[1]) for line in series_lines])
        summary = json.loads((out / "AAA_over_BBB_summary.json").read_text())
        assert summary["n"] == len(values)
        assert summary["median"] == pytest.approx(sorted_quantile(values, 0.5), abs=2e-6)

    def test_desk_outputs_are_pinned(self, tmp_path):
        # the premiums files depend on ingest, date alignment and decimal
        # formatting only, with no BLAS and no FFT, so their bytes hold on any machine
        config_path = write_desk_inputs(tmp_path)
        assert main(["premiums", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        out = tmp_path / "out" / "premiums"
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()} == DESK_PREMIUM_DIGESTS

    def test_identical_inputs_all_parity(self, tmp_path):
        rng = np.random.default_rng(3)
        mids = np.clip(10 + np.cumsum(rng.normal(0, 0.1, 50)), 1, 150)
        for name in ("aaa.csv", "bbb.csv"):
            write_prices(tmp_path / name, mids)
        config_path = write_config(tmp_path, {"AAA": "aaa.csv", "BBB": "bbb.csv"})
        assert main(["premiums", "--config", str(config_path)]) == 0
        summary = json.loads(
            (tmp_path / "out" / "premiums" / "AAA_over_BBB_summary.json").read_text()
        )
        assert summary["count_parity"] == summary["n"] == 50
        assert summary["count_premium"] == summary["count_discount"] == 0

    def test_write_error_in_one_pair_does_not_stop_the_others(self, tmp_path):
        config_path = write_config(tmp_path, synthetic_tickers(tmp_path))
        (tmp_path / "out" / "premiums" / "AAA_over_CCC_summary.json").mkdir(parents=True)
        assert main(["premiums", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        listed = [o["path"].split("/")[1] for o in manifest["outputs"]]
        assert listed == [
            "AAA_over_BBB_series.csv",
            "AAA_over_BBB_summary.csv",
            "AAA_over_BBB_summary.json",
            "AAA_over_CCC_series.csv",
            "AAA_over_CCC_summary.csv",
            "BBB_over_CCC_series.csv",
            "BBB_over_CCC_summary.csv",
            "BBB_over_CCC_summary.json",
        ]
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith("premiums AAA_over_CCC: ")

    def test_empty_intersection_fails(self, tmp_path):
        mids = np.full(30, 10.0)
        write_prices(tmp_path / "aaa.csv", mids, start=dt.date(2020, 1, 1))
        write_prices(tmp_path / "bbb.csv", mids, start=dt.date(2021, 1, 1))
        config_path = write_config(tmp_path, {"AAA": "aaa.csv", "BBB": "bbb.csv"})
        assert main(["premiums", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert any("empty date intersection" in f for f in manifest["failures"])

    def test_single_ticker_fails(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(tmp_path, {"AAA": tickers["AAA"]})
        assert main(["premiums", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("analysis", ["premiums", "coherence"])
    def test_library_call_with_one_series_raises(self, tmp_path, analysis):
        # load_config rejects such a config when it selects the analysis; on
        # one that selects another, a direct caller gets an error, not a silent no-op
        cli_module = importlib.import_module("dualstock.cli")
        config = load_config(
            write_config(
                tmp_path, {"AAA": synthetic_tickers(tmp_path)["AAA"]}, analyses=["forecast"], forecast={"duals": [False]}
            )
        )
        outcome = cli_module.CommandOutcome()
        with pytest.raises(ValueError, match=f"{analysis} needs at least two tickers"):
            outcome.execute(getattr(cli_module, f"cmd_{analysis}")(config, cli_module._load_all(config)))
        assert outcome.files == {} and outcome.failures == []
        assert not (tmp_path / "out").exists()

    def test_oversized_csv_field_fails_the_analysis(self, tmp_path):
        # a field over csv.field_size_limit fails the analysis with its line
        # named; the run still writes its manifest
        tickers = synthetic_tickers(tmp_path)
        path = tmp_path / tickers["BBB"]
        lines = path.read_text().split("\n")
        day, _high, low = lines[5].split(",")
        lines[5] = f"{day},{'1' * 200_000},{low}"
        path.write_text("\n".join(lines))
        config_path = write_config(tmp_path, tickers)
        assert main(["premiums", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == [f"premiums: {path}, line 6: field larger than field limit (131072)"]
        assert manifest["outputs"] == []


class TestCoherenceCommand:
    def coherence_config(self, tmp_path, n=140, iterations=20):
        tickers = synthetic_tickers(tmp_path, n=n)
        tickers.pop("CCC")
        return write_config(
            tmp_path,
            tickers,
            analyses=["coherence"],
            wavelet={"mc_iterations": iterations},
        )

    def test_outputs_and_row_count(self, tmp_path):
        config_path = self.coherence_config(tmp_path)
        assert main(["coherence", "--config", str(config_path)]) == 0
        out = tmp_path / "out" / "coherence"
        csv_path = out / "AAA_BBB.csv"
        svg_path = out / "AAA_BBB.svg"
        assert csv_path.exists() and svg_path.exists()
        lines = csv_path.read_text().strip().split("\n")
        header, rows = lines[0], lines[1:]
        assert header == "time_index,date,scale_days,period_days,rho2,phase_rad,significant,inside_coi"
        n_returns = 139
        config = load_config(config_path)
        from dualstock.wavelet import ScaleGrid

        grid = ScaleGrid.for_length(n_returns)
        assert len(rows) == grid.num_scales * n_returns

    def test_failing_pair_does_not_stop_the_others(self, tmp_path):
        tickers = synthetic_tickers(tmp_path, n=140)
        write_prices(tmp_path / "flat.csv", np.full(140, 10.0))
        config_path = write_config(
            tmp_path,
            {"AAA": tickers["AAA"], "BBB": tickers["BBB"], "FLAT": "flat.csv"},
            analyses=["coherence"],
            wavelet={"mc_iterations": 5},
        )
        assert main(["coherence", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [o["path"] for o in manifest["outputs"]] == ["coherence/AAA_BBB.csv", "coherence/AAA_BBB.svg"]
        assert [f.split(":")[0] for f in manifest["failures"]] == ["coherence AAA_FLAT", "coherence BBB_FLAT"]
        assert all("zero variance" in f for f in manifest["failures"])

    def test_write_error_in_one_pair_does_not_stop_the_others(self, tmp_path):
        tickers = synthetic_tickers(tmp_path, n=140)
        config_path = write_config(tmp_path, tickers, analyses=["coherence"], wavelet={"mc_iterations": 1})
        (tmp_path / "out" / "coherence" / "AAA_CCC.svg").mkdir(parents=True)
        assert main(["coherence", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [o["path"] for o in manifest["outputs"]] == [
            "coherence/AAA_BBB.csv",
            "coherence/AAA_BBB.svg",
            "coherence/AAA_CCC.csv",
            "coherence/BBB_CCC.csv",
            "coherence/BBB_CCC.svg",
        ]
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith("coherence AAA_CCC: ")
        assert "AAA_CCC.svg" in manifest["failures"][0]
        on_disk = sorted(p.name for p in (tmp_path / "out" / "coherence").iterdir())
        assert on_disk == ["AAA_BBB.csv", "AAA_BBB.svg", "AAA_CCC.csv", "AAA_CCC.svg", "BBB_CCC.csv", "BBB_CCC.svg"]

    def test_failure_line_does_not_depend_on_the_output_directory(self, tmp_path):
        tickers = synthetic_tickers(tmp_path, n=140)
        config_path = write_config(tmp_path, tickers, analyses=["coherence"], wavelet={"mc_iterations": 1})
        manifests = []
        for out in (tmp_path / "o1", tmp_path / "deeper" / "o2"):
            (out / "coherence" / "AAA_CCC.svg").mkdir(parents=True)
            assert main(["coherence", "--config", str(config_path), "--out", str(out)]) == 1
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["failures"] == [
            "coherence AAA_CCC: [Errno 21] Is a directory: 'coherence/.AAA_CCC.svg.tmp' -> 'coherence/AAA_CCC.svg'"
        ]

    def test_each_field_is_released_before_the_next_pair_computes(self, tmp_path, monkeypatch):
        # a pair's field, and the lazy CSV and SVG chunks over it, are dropped
        # once its files are written, so one field at a time is alive
        cli_module = importlib.import_module("dualstock.cli")
        compute = cli_module.significance
        fields = []

        def released_before(*args, **kwargs):
            assert all(ref() is None for ref in fields), "an earlier pair's field is still alive"
            field = compute(*args, **kwargs)
            fields.append(weakref.ref(field))
            return field

        monkeypatch.setattr(cli_module, "significance", released_before)
        config_path = write_config(
            tmp_path, synthetic_tickers(tmp_path, n=140), analyses=["coherence"], wavelet={"mc_iterations": 2}
        )
        assert main(["coherence", "--config", str(config_path)]) == 0
        assert len(fields) == 3

    def test_too_short_series_fails(self, tmp_path):
        tickers = synthetic_tickers(tmp_path, n=40)
        tickers.pop("CCC")
        config_path = write_config(tmp_path, tickers, analyses=["coherence"])
        assert main(["coherence", "--config", str(config_path)]) == 1


class TestForecastCommand:
    def forecast_config(self, tmp_path, ticker_files=None, analyses=("forecast",), **forecast):
        ticker_files = ticker_files or synthetic_tickers(tmp_path)
        defaults = {
            "lags": [4],
            "duals": [False],
            "windows": [5, 10],
            "mece_train_size": 80,
            "test_size": 10,
            "epochs": 2,
            "hidden_size": 3,
        }
        defaults.update(forecast)
        return write_config(tmp_path, ticker_files, analyses=list(analyses), forecast=defaults)

    def test_desk_grid(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config_path = self.forecast_config(tmp_path, {"AAA": tickers["AAA"], "BBB": tickers["BBB"], "CCC": tickers["CCC"]}, duals=[False, True])
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs = sorted((tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        # 3 tickers x 1 lag x 2 dual x 3 regimes
        assert len(runs) == 18
        grid_csv = (tmp_path / "out" / "forecast" / "grids" / "AAA.csv").read_text()
        assert grid_csv.startswith("regime,metric")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == []
        meta = json.loads(runs[0].read_text())
        assert meta["hyperparameters"]["epochs"] == 2
        csv_file = runs[0].parent / meta["predictions_csv"]
        header = csv_file.read_text().split("\n")[0]
        assert header == "origin_index,date,actual,predicted,train_start,train_end"

    def test_run_descriptors_are_pinned(self, tmp_path):
        # a descriptor holds its run's seed and settings but no predictions,
        # so its bytes hold on any machine and pin each run's seed derivation
        config_path = self.forecast_config(
            tmp_path, lags=[4, 9], duals=[False, True], windows=[10], test_size=5, epochs=1, hidden_size=2
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs = sorted((tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in runs} == FORECAST_DESCRIPTOR_DIGESTS

    def test_run_descriptor_records_the_training_settings(self, tmp_path):
        # epochs and hidden size come from the config; the learning rate and
        # the clip norm are constants, recorded all the same
        config_path = self.forecast_config(tmp_path, windows=[10], test_size=3, epochs=2, hidden_size=3)
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs = sorted((tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        assert runs
        for path in runs:
            assert json.loads(path.read_text())["hyperparameters"] == {
                "epochs": 2, "hidden_size": 3, "learning_rate": 0.01, "clip_norm": 1.0, "optimizer": "adam",
            }

    @pytest.mark.parametrize("names", [["AAA"], ["AAA", "BBB"]])
    @pytest.mark.parametrize("command", ["forecast", "run"])
    def test_dual_without_three_tickers_is_config_error(self, tmp_path, capsys, names, command):
        tickers = synthetic_tickers(tmp_path)
        config_path = self.forecast_config(tmp_path, {n: tickers[n] for n in names}, duals=[False, True])
        assert main([command, "--config", str(config_path)]) == 1
        message = (
            "config error: config key forecast.duals includes true: "
            f"a dual run needs exactly three declared tickers, got {len(names)}"
        )
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_two_tickers_without_dual_run(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config_path = self.forecast_config(tmp_path, {"AAA": tickers["AAA"], "BBB": tickers["BBB"]}, duals=[False])
        assert main(["forecast", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == []
        runs = sorted(p.stem for p in (tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        assert runs == [f"{t}_lag4_dual-no_{r}" for t in ("AAA", "BBB") for r in ("mece", "w10", "w5")]

    def test_dual_check_only_when_forecast_selected(self, tmp_path):
        # the coherence-paper benchmark's shape: two tickers, the default
        # duals [false, true], and no forecast among the selected analyses
        tickers = synthetic_tickers(tmp_path)
        two = {"AAA": tickers["AAA"], "BBB": tickers["BBB"]}
        config_path = write_config(tmp_path, two, analyses=["premiums", "coherence"], wavelet={"mc_iterations": 2})
        assert main(["run", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert {o["path"].split("/")[0] for o in manifest["outputs"]} == {"premiums", "coherence"}
        # a subcommand other than forecast runs on a config that lists forecast
        config_path = self.forecast_config(tmp_path, two, analyses=("forecast",), duals=[True])
        assert main(["premiums", "--config", str(config_path)]) == 0

    def test_library_call_with_dual_and_two_tickers_fails_each_run(self, tmp_path):
        # load_config rejects such a config when it selects forecast; on one
        # that selects another analysis, a direct caller gets one failure per
        # run from forecast itself, not a silent no-op
        cli_module = importlib.import_module("dualstock.cli")
        tickers = synthetic_tickers(tmp_path)
        config_path = self.forecast_config(
            tmp_path, {"AAA": tickers["AAA"], "BBB": tickers["BBB"]}, analyses=("premiums",), duals=[True]
        )
        config = load_config(config_path)
        outcome = cli_module.CommandOutcome()
        outcome.execute(cli_module.cmd_forecast(config, cli_module._load_all(config)))
        assert outcome.files == {}
        assert sorted(outcome.failures) == [
            f"forecast {t} lag=4 dual=yes {r}: a dual run needs exactly two sibling series"
            for t in ("AAA", "BBB")
            for r in ("mece", "window=10", "window=5")
        ]

    def test_library_call_with_dual_and_one_series_fails_each_dual_run(self, tmp_path):
        # a direct caller may give fewer series than the config declares; a
        # lone series has no siblings, so its dual runs fail and write nothing,
        # and its runs without a dual write the bytes they write alone
        cli_module = importlib.import_module("dualstock.cli")
        tickers = synthetic_tickers(tmp_path)
        config = load_config(
            self.forecast_config(
                tmp_path, {"AAA": tickers["AAA"], "BBB": tickers["BBB"]}, analyses=("premiums",), duals=[False, True]
            )
        )
        outcome = cli_module.CommandOutcome()
        outcome.execute(cli_module.cmd_forecast(config, cli_module._load_all(config)[:1]))
        assert sorted(outcome.failures) == [
            f"forecast AAA lag=4 dual=yes {r}: a dual run needs exactly two sibling series"
            for r in ("mece", "window=10", "window=5")
        ]
        runs = tmp_path / "out" / "forecast" / "runs"
        assert sorted(p.name for p in runs.iterdir()) == [
            f"AAA_lag4_dual-no_{r}.{ext}" for r in ("mece", "w10", "w5") for ext in ("csv", "json")
        ]
        alone = dataclasses.replace(
            config, out_dir=tmp_path / "alone", forecast=dataclasses.replace(config.forecast, duals=(False,))
        )
        cli_module.CommandOutcome().execute(cli_module.cmd_forecast(alone, cli_module._load_all(alone)[:1]))
        for path in runs.iterdir():
            assert path.read_bytes() == (tmp_path / "alone" / "forecast" / "runs" / path.name).read_bytes()
        grid = json.loads((tmp_path / "out" / "forecast" / "grids" / "AAA.json").read_text())
        assert sorted(grid["missing"]) == [f"{r}|lag=4|dual=yes" for r in ("mece", "window=10", "window=5")]

    def test_library_call_with_a_forecast_ticker_not_given_fails_the_analysis(self, tmp_path):
        # a direct caller may give fewer series than the config declares; a
        # forecast ticker among the missing fails the analysis at planning,
        # which main records as one failure line, and nothing is written
        cli_module = importlib.import_module("dualstock.cli")
        tickers = synthetic_tickers(tmp_path)
        config = load_config(
            self.forecast_config(tmp_path, tickers, analyses=("premiums",), duals=[False], tickers=["BBB", "CCC"])
        )
        series = cli_module._load_all(config)[:2]
        with pytest.raises(ValueError, match=re.escape("tickers ['CCC'] are not among the given series")):
            cli_module.cmd_forecast(config, series)
        outcome = cli_module.CommandOutcome()
        plan = cli_module.Unit(("forecast",), lambda written: [({}, cli_module.cmd_forecast(config, series))])
        assert outcome.execute([plan]) == []
        assert outcome.failures == ["forecast: tickers ['CCC'] are not among the given series"]
        assert outcome.files == {} and not (tmp_path / "out").exists()

    def test_window_too_small_reported(self, tmp_path):
        # the paper grid's shape: window 5 runs at lag 4 only, and the cell
        # it skips is reported missing in the grid, not as a failure
        config_path = self.forecast_config(
            tmp_path, lags=[4, 9], windows=[5, 10], mece_train_size=None, tickers=["AAA"], test_size=5
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == []
        runs = sorted(p.stem for p in (tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        assert runs == ["AAA_lag4_dual-no_w10", "AAA_lag4_dual-no_w5", "AAA_lag9_dual-no_w10"]
        grid = json.loads((tmp_path / "out" / "forecast" / "grids" / "AAA.json").read_text())
        assert grid["missing"] == ["window=5|lag=9|dual=no"]

    def test_mece_train_size_at_or_below_lag_skipped(self, tmp_path, capsys):
        # a MECE training set runs only at lags below its size, as a window
        # does; the cell it skips is missing in the grid, not a failure
        config_path = self.forecast_config(
            tmp_path, analyses=("premiums", "forecast"), lags=[4, 9], windows=[10],
            mece_train_size=5, tickers=["AAA"], test_size=5,
        )
        assert main(["run", "--config", str(config_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == []
        runs = sorted(p.stem for p in (tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        assert runs == ["AAA_lag4_dual-no_mece", "AAA_lag4_dual-no_w10", "AAA_lag9_dual-no_w10"]
        grid = json.loads((tmp_path / "out" / "forecast" / "grids" / "AAA.json").read_text())
        assert grid["missing"] == ["mece|lag=9|dual=no"]
        # with no window that runs at lag 9 either, no cell is left
        (tmp_path / "none").mkdir()
        config_path = self.forecast_config(tmp_path / "none", lags=[9], windows=[5], mece_train_size=5)
        message = "config section forecast: forecast.windows [5] and mece_train_size 5 give no cell at lags [9]"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(config_path)
        assert main(["forecast", "--config", str(config_path)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "none" / "out").exists()

    def test_no_runnable_cell_is_config_error(self, tmp_path, capsys):
        config_path = self.forecast_config(tmp_path, lags=[9], windows=[5, 9], mece_train_size=None)
        with pytest.raises(ValueError, match=r"config section forecast: forecast\.windows \[5, 9\]"):
            load_config(config_path)
        assert main(["forecast", "--config", str(config_path)]) == 1
        assert "config error: config section forecast: forecast.windows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_ticker_subset_windows_only(self, tmp_path):
        # 3 tickers loaded (so dual features exist), forecasts for one of
        # them over windows {5, 10} without the MECE regime: 4 runs
        config_path = self.forecast_config(
            tmp_path,
            duals=[False, True],
            windows=[5, 10],
            mece_train_size=None,
            tickers=["AAA"],
            test_size=5,
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs = sorted((tmp_path / "out" / "forecast" / "runs").glob("*.json"))
        assert len(runs) == 4
        assert all(p.name.startswith("AAA_") for p in runs)
        grids = sorted((tmp_path / "out" / "forecast" / "grids").glob("*.csv"))
        assert [g.name for g in grids] == ["AAA.csv", "long.csv"]

    def test_diverged_run_is_recorded_as_its_failure(self, tmp_path, monkeypatch):
        real_train_batch = forecast_module.train_batch
        calls = []

        def diverge_first(inputs, targets, cfg, seeds):
            calls.append(seeds)
            result = real_train_batch(inputs, targets, cfg, seeds)
            if len(calls) == 1:
                result.diverged_at[0] = 1
            return result

        monkeypatch.setattr(forecast_module, "train_batch", diverge_first)
        config_path = self.forecast_config(tmp_path, windows=[5], mece_train_size=80, tickers=["AAA"])
        assert main(["forecast", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == [
            "forecast AAA lag=4 dual=no window=5: training loss became non-finite at step 1"
        ]
        runs = sorted(o["path"] for o in manifest["outputs"] if "/runs/" in o["path"])
        assert runs == ["forecast/runs/AAA_lag4_dual-no_mece.csv", "forecast/runs/AAA_lag4_dual-no_mece.json"]

    def test_grouped_tickers_match_one_ticker_runs(self, tmp_path, monkeypatch):
        # the tickers' runs of one (lag, dual, regime) train in one call and
        # write the bytes that each ticker's own invocation writes
        real_train_batch = forecast_module.train_batch
        calls = []

        def counting(inputs, targets, cfg, seeds):
            calls.append(len(seeds))
            return real_train_batch(inputs, targets, cfg, seeds)

        monkeypatch.setattr(forecast_module, "train_batch", counting)
        config_path = self.forecast_config(tmp_path, duals=[False, True], windows=[10])
        assert main(["forecast", "--config", str(config_path)]) == 0
        # (window=10, mece) x (dual no, yes): one call each, of 10 models per
        # ticker for the window and one for MECE
        assert calls == [30, 3, 30, 3]
        grouped = tmp_path / "out" / "forecast" / "runs"
        alone = {}
        for ticker in ("AAA", "BBB", "CCC"):
            calls.clear()
            config_path = self.forecast_config(tmp_path, duals=[False, True], windows=[10], tickers=[ticker])
            assert main(["forecast", "--config", str(config_path), "--out", str(tmp_path / ticker)]) == 0
            assert calls == [10, 1, 10, 1]
            alone.update((p.name, p.read_bytes()) for p in (tmp_path / ticker / "forecast" / "runs").iterdir())
        assert len(alone) == 3 * 2 * 2 * 2  # tickers x dual x regimes x (CSV, JSON)
        assert {p.name: p.read_bytes() for p in grouped.iterdir()} == alone

    def test_diverged_model_fails_only_its_run(self, tmp_path, monkeypatch):
        # one call trains the three tickers' MECE models; a NaN target of
        # BBB's model fails BBB's run alone, at the step that ends its first
        # epoch, and the other two runs write what they write unpoisoned
        config_path = self.forecast_config(tmp_path)
        assert main(["forecast", "--config", str(config_path), "--out", str(tmp_path / "clean")]) == 0
        real_train_batch = forecast_module.train_batch

        def poison_bbb_mece(inputs, targets, cfg, seeds):
            if len(seeds) == 3:  # the MECE call: one model per ticker, in grid order
                targets = targets.copy()
                targets[1, 0] = np.nan
            return real_train_batch(inputs, targets, cfg, seeds)

        monkeypatch.setattr(forecast_module, "train_batch", poison_bbb_mece)
        assert main(["forecast", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        # MECE trains on 80 - 4 = 76 samples per epoch
        assert manifest["failures"] == ["forecast BBB lag=4 dual=no mece: training loss became non-finite at step 76"]
        runs = tmp_path / "out" / "forecast" / "runs"
        clean = tmp_path / "clean" / "forecast" / "runs"
        assert sorted(p.name for p in clean.iterdir() if p.name not in {q.name for q in runs.iterdir()}) == [
            "BBB_lag4_dual-no_mece.csv",
            "BBB_lag4_dual-no_mece.json",
        ]
        for path in runs.iterdir():
            assert path.read_bytes() == (clean / path.name).read_bytes()

    def test_range_check_failure_fails_every_run_of_its_call(self, tmp_path, monkeypatch):
        lstm_module = importlib.import_module("dualstock.lstm")
        real_check = lstm_module._check_ranges
        calls = []

        def fail_41st_call(cache):
            calls.append(None)
            if len(calls) == 41:
                raise FloatingPointError("gate activations escaped [0, 1]")
            real_check(cache)

        monkeypatch.setattr(lstm_module, "_check_ranges", fail_41st_call)
        config_path = self.forecast_config(tmp_path, analyses=("premiums", "forecast"))
        assert main(["run", "--config", str(config_path)]) == 1
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        # one call per regime trains the three tickers together: the
        # window=5 and window=10 calls make 2 + 12 checks, so the 41st is
        # inside the MECE call, and each of its three runs fails
        assert manifest["failures"] == [
            f"forecast {t} lag=4 dual=no mece: gate activations escaped [0, 1]" for t in ("AAA", "BBB", "CCC")
        ]
        listed = [o["path"] for o in manifest["outputs"]]
        runs = [
            f"forecast/runs/{t}_lag4_dual-no_{r}.{ext}"
            for t in ("AAA", "BBB", "CCC") for r in ("w10", "w5") for ext in ("csv", "json")
        ]
        grids = [f"forecast/grids/{name}" for name in ("AAA.csv", "AAA.json", "BBB.csv", "BBB.json", "CCC.csv", "CCC.json", "long.csv")]
        assert [p for p in listed if p.startswith("forecast/")] == grids + runs
        assert any(p.startswith("premiums/") for p in listed)
        on_disk = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
        assert on_disk == sorted(listed + ["manifest.json"])

    def test_failed_check_fails_every_run_of_its_call(self, tmp_path):
        # a MECE training set longer than the inputs fails the check of each
        # MECE call, so each ticker's MECE run fails; the window runs and the
        # grids are still written, with the MECE cells missing
        config_path = self.forecast_config(tmp_path, duals=[False, True], mece_train_size=200)
        assert main(["forecast", "--config", str(config_path)]) == 1
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["failures"] == [
            f"forecast {t} lag=4 dual={d} mece: the mece training range [0, 200) of origin 110 must lie in [0, 110)"
            for t in ("AAA", "BBB", "CCC")
            for d in ("no", "yes")
        ]
        runs = [
            f"forecast/runs/{t}_lag4_dual-{d}_{r}.{ext}"
            for t in ("AAA", "BBB", "CCC") for d in ("no", "yes") for r in ("w10", "w5") for ext in ("csv", "json")
        ]
        grids = [f"forecast/grids/{t}.{ext}" for t in ("AAA", "BBB", "CCC") for ext in ("csv", "json")]
        assert [o["path"] for o in manifest["outputs"]] == grids + ["forecast/grids/long.csv"] + runs
        for t in ("AAA", "BBB", "CCC"):
            grid = json.loads((out / "forecast" / "grids" / f"{t}.json").read_text())
            assert grid["missing"] == ["mece|lag=4|dual=no", "mece|lag=4|dual=yes"]

    def test_grids_keep_ticker_order_when_a_first_run_fails(self, tmp_path, monkeypatch):
        # AAA's run of the first call fails, so BBB's is the first run
        # written; the grids still list the tickers in declared order
        real_train_batch = forecast_module.train_batch
        calls = []

        def diverge_first_model(inputs, targets, cfg, seeds):
            calls.append(None)
            result = real_train_batch(inputs, targets, cfg, seeds)
            if len(calls) == 1:
                result.diverged_at[0] = 1
            return result

        monkeypatch.setattr(forecast_module, "train_batch", diverge_first_model)
        config_path = self.forecast_config(tmp_path)
        assert main(["forecast", "--config", str(config_path)]) == 1
        grids = tmp_path / "out" / "forecast" / "grids"
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == ["forecast AAA lag=4 dual=no window=5: training loss became non-finite at step 1"]
        with (grids / "long.csv").open(newline="") as fh:
            assert list(dict.fromkeys(row["ticker"] for row in csv.DictReader(fh))) == ["AAA", "BBB", "CCC"]
        assert json.loads((grids / "AAA.json").read_text())["missing"] == ["window=5|lag=4|dual=no"]

    def test_write_error_in_one_run_does_not_stop_the_others(self, tmp_path):
        config_path = self.forecast_config(tmp_path)
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        (runs_dir / "AAA_lag4_dual-no_w10.json").mkdir(parents=True)
        assert main(["forecast", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith("forecast AAA lag=4 dual=no window=10: ")
        listed = [o["path"].split("/")[-2:] for o in manifest["outputs"]]
        expected = [
            f"{t}_lag4_dual-no_{r}.{ext}"
            for t in ("AAA", "BBB", "CCC") for r in ("mece", "w10", "w5") for ext in ("csv", "json")
        ]
        expected.remove("AAA_lag4_dual-no_w10.json")
        assert [name for folder, name in listed if folder == "runs"] == expected
        assert sorted(p.name for p in runs_dir.iterdir() if p.is_file()) == expected
        assert [name for folder, name in listed if folder == "grids"] == [
            "AAA.csv", "AAA.json", "BBB.csv", "BBB.json", "CCC.csv", "CCC.json", "long.csv"
        ]
        # the run that failed is missing from its ticker's grid
        grid = json.loads((tmp_path / "out" / "forecast" / "grids" / "AAA.json").read_text())
        assert grid["missing"] == ["window=10|lag=4|dual=no"]

    def test_grid_write_error_keeps_the_written_files(self, tmp_path):
        config_path = self.forecast_config(tmp_path, windows=[5], mece_train_size=None)
        (tmp_path / "out" / "forecast" / "grids" / "long.csv").mkdir(parents=True)
        (tmp_path / "rep" / "report" / "long.csv").mkdir(parents=True)
        assert main(["forecast", "--config", str(config_path)]) == 1
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        runs = [f"{t}_lag4_dual-no_w5.{ext}" for t in ("AAA", "BBB", "CCC") for ext in ("csv", "json")]
        grids = ["AAA.csv", "AAA.json", "BBB.csv", "BBB.json", "CCC.csv", "CCC.json"]
        for out, command, expected in (
            ("out", "forecast", [f"forecast/grids/{g}" for g in grids] + [f"forecast/runs/{r}" for r in runs]),
            ("rep", "report", [f"report/{g}" for g in grids]),
        ):
            manifest = json.loads((tmp_path / out / "manifest.json").read_text())
            assert [o["path"] for o in manifest["outputs"]] == expected
            assert len(manifest["failures"]) == 1
            assert manifest["failures"][0].startswith(f"{command} grids: ")

    def test_no_common_date_fails_forecast_only(self, tmp_path):
        # every pair overlaps except AAA/CCC, and no date is common to all three
        mids = np.full(60, 10.0)
        for name, start in (("aaa", 0), ("bbb", 30), ("ccc", 60)):
            write_prices(tmp_path / f"{name}.csv", mids, start=dt.date(2021, 1, 1) + dt.timedelta(days=start))
        tickers = {"AAA": "aaa.csv", "BBB": "bbb.csv", "CCC": "ccc.csv"}
        config_path = self.forecast_config(tmp_path, tickers, analyses=("premiums", "forecast"))
        assert main(["run", "--config", str(config_path)]) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failures"] == [
            "forecast: tickers share no common dates",
            "premiums AAA_over_CCC: empty date intersection",
        ]
        assert [o["path"] for o in manifest["outputs"]] == [
            f"premiums/{pair}_{kind}"
            for pair in ("AAA_over_BBB", "BBB_over_CCC")
            for kind in ("series.csv", "summary.csv", "summary.json")
        ]

    def test_unknown_forecast_ticker_rejected(self, tmp_path):
        config_path = self.forecast_config(tmp_path, tickers=["ZZZ"])
        assert main(["forecast", "--config", str(config_path)]) == 1


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config = {
            "tickers": tickers,
            "seed": 999,
            "analyses": ["premiums", "coherence", "forecast"],
            "wavelet": {"mc_iterations": 10},
            "forecast": {
                "lags": [4], "duals": [False], "windows": [5],
                "mece_train_size": 60, "test_size": 5, "epochs": 2, "hidden_size": 2,
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o1")]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o2")]) == 0
        m1 = json.loads((tmp_path / "o1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]
        for entry in m1["outputs"]:
            a = (tmp_path / "o1" / entry["path"]).read_bytes()
            b = (tmp_path / "o2" / entry["path"]).read_bytes()
            assert a == b

    def test_only_filter(self, tmp_path):
        # run executes the config's analyses and nothing else
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(tmp_path, tickers, analyses=["premiums"])
        assert main(["run", "--config", str(config_path)]) == 0
        assert not (tmp_path / "out" / "forecast").exists()

    def test_each_input_read_once(self, tmp_path, monkeypatch):
        cli_module = importlib.import_module("dualstock.cli")
        real_load = cli_module.load_ohlc_csv
        loaded = []

        def counting_load(path, *args, **kwargs):
            loaded.append(path.name)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(cli_module, "load_ohlc_csv", counting_load)
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path, tickers, analyses=["premiums", "coherence"], wavelet={"mc_iterations": 2}
        )
        assert main(["run", "--config", str(config_path)]) == 0
        assert sorted(loaded) == sorted(tickers.values())


class TestStaleFiles:
    def test_unlisted_files_are_reported_and_kept(self, tmp_path, capsys):
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(tmp_path, tickers)
        out = tmp_path / "out"
        assert main(["premiums", "--config", str(config_path)]) == 0
        assert "WARNING" not in capsys.readouterr().err
        clean = (out / "manifest.json").read_bytes()
        stale = [out / "premiums" / "OLD_pair.csv", out / "forecast" / "runs" / "old.json"]
        for path in stale:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("left over\n", encoding="utf-8")
        (out / "notes.txt").write_text("outside the analysis folders\n", encoding="utf-8")
        assert main(["premiums", "--config", str(config_path)]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("WARNING")]
        assert warnings == [
            "WARNING: forecast/runs/old.json is not listed in manifest.json (left by an earlier run?)",
            "WARNING: premiums/OLD_pair.csv is not listed in manifest.json (left by an earlier run?)",
        ]
        assert all(path.is_file() for path in stale)
        assert (out / "manifest.json").read_bytes() == clean


class TestReportCommand:
    def forecast_and_report(self, tmp_path, ticker_files=None, **forecast):
        """Forecast on the synthetic tickers, report on its runs, and return the report's grid directory."""
        settings = {
            "lags": [4, 9], "duals": [False, True], "windows": [10],
            "mece_train_size": 80, "test_size": 3, "epochs": 1, "hidden_size": 2,
        }
        settings.update(forecast)
        ticker_files = ticker_files or synthetic_tickers(tmp_path)
        config_path = write_config(tmp_path, ticker_files, analyses=["forecast"], forecast=settings)
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 0
        grids, report = tmp_path / "out" / "forecast" / "grids", tmp_path / "rep" / "report"
        # every declared axis value has a run, so report writes forecast's grids byte for byte
        assert sorted(p.name for p in report.iterdir()) == sorted(p.name for p in grids.iterdir())
        for path in grids.iterdir():
            assert (report / path.name).read_bytes() == path.read_bytes()
        return report

    @pytest.mark.parametrize(
        "forecast, header, regimes",
        [
            ({}, "lag4_dual_no,lag4_dual_yes,lag9_dual_no,lag9_dual_yes", ["Training Window = 10", "MECE"]),
            ({"duals": [False]}, "lag4_dual_no,lag9_dual_no", ["Training Window = 10", "MECE"]),
            ({"windows": [15], "mece_train_size": None, "lags": [4]}, "lag4_dual_no,lag4_dual_yes", ["Training Window = 15"]),
            ({"windows": []}, "lag4_dual_no,lag4_dual_yes,lag9_dual_no,lag9_dual_yes", ["MECE"]),
        ],
        ids=["paper-shape", "dual-no-only", "window-15", "mece-only"],
    )
    def test_axes_are_the_runs(self, tmp_path, forecast, header, regimes):
        report = self.forecast_and_report(tmp_path, **forecast)
        for name in ("AAA", "BBB", "CCC"):
            lines = (report / f"{name}.csv").read_text().strip().split("\n")
            assert lines[0] == "regime,metric," + header
            assert [line.split(",")[0] for line in lines[1:]] == [r for r in regimes for _ in range(3)]

    def test_tickers_ascending_where_one_name_prefixes_another(self, tmp_path):
        # AB1's descriptor files sort before AB's, yet long.csv lists AB first, as the config does
        files = synthetic_tickers(tmp_path)
        report = self.forecast_and_report(tmp_path, {"AB": files["AAA"], "AB1": files["BBB"]}, duals=[False])
        rows = (report / "long.csv").read_text().strip().split("\n")[1:]
        assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == ["AB", "AB1"]

    def test_skipped_cells_are_missing_as_in_forecast(self, tmp_path):
        # the paper's windows and lags: window 5 runs at lag 4 only
        report = self.forecast_and_report(tmp_path, windows=[5, 10, 20, 50], duals=[False], tickers=["AAA"])
        grid = json.loads((report / "AAA.json").read_text())
        assert grid["regimes"] == ["window=5", "window=10", "window=20", "window=50", "mece"]
        assert grid["lags"] == [4, 9]
        assert grid["missing"] == ["window=5|lag=9|dual=no"]

    def test_duplicate_run_fails_its_descriptor_alone(self, tmp_path):
        # AAA_copy.json sorts first, so the original is the descriptor read
        # second: it fails, and the copy's run makes AAA's grid
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path,
            tickers,
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA", "BBB"],
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        descriptor = runs_dir / "AAA_lag4_dual-no_w10.json"
        (runs_dir / "AAA_copy.json").write_bytes(descriptor.read_bytes())
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["failures"] == [
            "report: AAA_lag4_dual-no_w10.json: duplicate run for configuration ('AAA', 'window=10', 4, False)"
        ]
        grids = tmp_path / "out" / "forecast" / "grids"
        assert [o["path"] for o in manifest["outputs"]] == [f"report/{p.name}" for p in sorted(grids.iterdir())]
        for path in grids.iterdir():
            assert (tmp_path / "rep" / "report" / path.name).read_bytes() == path.read_bytes()

    def test_failure_line_names_the_runs_file_relative_to_the_runs(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path,
            tickers,
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA", "BBB"],
            },
        )
        manifests = []
        for out in (tmp_path / "o1", tmp_path / "deeper" / "o2"):
            assert main(["forecast", "--config", str(config_path), "--out", str(out)]) == 0
            runs_dir = out / "forecast" / "runs"
            (runs_dir / "AAA_lag4_dual-no_w10.csv").unlink()
            assert main(["report", "--runs", str(runs_dir), "--out", str(out / "rep")]) == 1
            manifests.append((out / "rep" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["failures"] == [
            "report: [Errno 2] No such file or directory: 'AAA_lag4_dual-no_w10.csv'"
        ]

    def test_provenance_after_origin_rejected(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path,
            tickers,
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA"],
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        csv_path = runs_dir / "AAA_lag4_dual-no_w10.csv"
        header, first, *rest = csv_path.read_text().strip().split("\n")
        cells = first.split(",")
        cells[-1] = str(int(cells[0]) + 1)  # training range ends after its origin
        csv_path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["failures"] == [
            "report: AAA_lag4_dual-no_w10.json: "
            "provenance [107, 118) at origin 117 must be the window=10 training range [107, 117)"
        ]

    @pytest.mark.parametrize(
        "stem, size, message",
        [
            ("mece", {"train_size": 200}, "the mece training range [0, 200) of origin 117 must lie in [0, 117)"),
            ("w10", {"window": 200}, "the window=200 training range [-83, 117) of origin 117 must lie in [0, 117)"),
        ],
        ids=["mece", "rolling"],
    )
    def test_history_rule_has_one_message(self, tmp_path, monkeypatch, stem, size, message):
        # a regime whose training range does not fit before the first origin
        # fails forecast_group before any training, a ForecastRun at that
        # origin, and report on a descriptor enlarged to it, all with one message
        config_path = write_config(
            tmp_path,
            synthetic_tickers(tmp_path),
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": 80,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA"],
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        descriptor = tmp_path / "out" / "forecast" / "runs" / f"AAA_lag4_dual-no_{stem}.json"
        meta = json.loads(descriptor.read_text())
        meta["regime"].update(size)
        descriptor.write_text(json.dumps(meta))
        regime = forecast_module.RegimeSpec(**meta["regime"])

        calls = []
        monkeypatch.setattr(forecast_module, "train_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as excinfo:
            forecast_module.forecast_group(
                ["AAA"], [np.full(120, 20.0)], [()], [0], dual=False, regime=regime, lag=4,
                cfg=forecast_module.TrainConfig(epochs=1, hidden_size=2),
            )
        assert str(excinfo.value) == message and calls == []
        with pytest.raises(ValueError) as excinfo:
            forecast_module.ForecastRun(
                ticker="AAA", lag=4, dual=False, regime=regime, seed=0,
                predictions=[1.0] * 3, actuals=[1.0] * 3, origins=[117, 118, 119],
            )
        assert str(excinfo.value) == message
        runs_dir = descriptor.parent
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["failures"] == [f"report: {descriptor.name}: {message}"]

    def test_provenance_other_than_the_regime_range_rejected(self, tmp_path):
        # a training range that precedes its origin but is not the window
        # before it fails its run alone
        def widen_first(text):
            header, first, *rest = text.split("\n")
            cells = first.split(",")
            cells[-2] = str(int(cells[-2]) - 3)
            return "\n".join([header, ",".join(cells), *rest])

        manifest = self.corrupted_report(tmp_path, [10, 20], widen_first, suffix=".csv")
        assert manifest["failures"] == [
            "report: AAA_lag4_dual-no_w10.json: "
            "provenance [104, 117) at origin 117 must be the window=10 training range [107, 117)"
        ]
        assert [o["path"] for o in manifest["outputs"]] == [
            f"report/{name}.{ext}" for name in ("AAA", "BBB", "CCC") for ext in ("csv", "json")
        ] + ["report/long.csv"]
        cells = json.loads((tmp_path / "rep" / "report" / "AAA.json").read_text())["cells"]
        assert cells["window=10|lag=4|dual=no"] is None
        assert cells["window=20|lag=4|dual=no"] is not None

    def test_repeated_origin_rejected(self, tmp_path):
        # a predictions CSV whose second row repeats its first fails its run
        # alone: its origins are not consecutive
        def repeat_first(text):
            header, first, _second, *rest = text.split("\n")
            return "\n".join([header, first, first, *rest])

        manifest = self.corrupted_report(tmp_path, [10, 20], repeat_first, suffix=".csv")
        assert manifest["failures"] == [
            "report: AAA_lag4_dual-no_w10.json: origins must be consecutive: 117 follows 117"
        ]
        assert [o["path"] for o in manifest["outputs"]] == [
            f"report/{name}.{ext}" for name in ("AAA", "BBB", "CCC") for ext in ("csv", "json")
        ] + ["report/long.csv"]
        cells = json.loads((tmp_path / "rep" / "report" / "AAA.json").read_text())["cells"]
        assert cells["window=10|lag=4|dual=no"] is None
        assert cells["window=20|lag=4|dual=no"] is not None

    def test_descriptor_with_a_removed_regime_key_rejected(self, tmp_path):
        # a run descriptor whose regime holds retrain_per_origin (the train-once
        # switch, no longer a regime field) fails with the file and the key named
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path,
            tickers,
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA"],
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        descriptor = runs_dir / "AAA_lag4_dual-no_w10.json"
        meta = json.loads(descriptor.read_text())
        meta["regime"]["retrain_per_origin"] = True
        descriptor.write_text(json.dumps(meta), encoding="utf-8")
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        failures = json.loads((tmp_path / "rep" / "manifest.json").read_text())["failures"]
        assert len(failures) == 1
        assert failures[0].startswith("report: AAA_lag4_dual-no_w10.json: ")
        assert "retrain_per_origin" in failures[0]

    @pytest.mark.parametrize("key, value", [("window", 10.0), ("window", True), ("test_size", 3.0)])
    def test_descriptor_with_a_non_integer_regime_size_fails_alone(self, tmp_path, key, value):
        # the other ticker's runs still make their grid
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path,
            tickers,
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA", "BBB"],
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        descriptor = runs_dir / "AAA_lag4_dual-no_w10.json"
        meta = json.loads(descriptor.read_text())
        meta["regime"][key] = value
        descriptor.write_text(json.dumps(meta), encoding="utf-8")
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
        assert manifest["failures"] == [f"report: AAA_lag4_dual-no_w10.json: {key} must be an integer, got {value!r}"]
        assert [o["path"] for o in manifest["outputs"]] == ["report/BBB.csv", "report/BBB.json", "report/long.csv"]

    def test_descriptor_with_the_other_kinds_size_fails_alone(self, tmp_path):
        # a rolling regime with a train_size is rejected, not read as its window
        def add_train_size(text):
            meta = json.loads(text)
            meta["regime"]["train_size"] = 5
            return json.dumps(meta)

        manifest = self.corrupted_report(tmp_path, [10], add_train_size)
        assert manifest["failures"] == [
            "report: AAA_lag4_dual-no_w10.json: rolling regime takes no train_size, got train_size=5"
        ]
        assert [o["path"] for o in manifest["outputs"]] == [
            "report/BBB.csv", "report/BBB.json", "report/CCC.csv", "report/CCC.json", "report/long.csv",
        ]

    def test_descriptor_that_is_not_json_names_the_file(self, tmp_path):
        tickers = synthetic_tickers(tmp_path)
        config_path = write_config(
            tmp_path,
            tickers,
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": [10], "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2, "tickers": ["AAA"],
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        (runs_dir / "AAA_lag4_dual-no_w10.json").write_text("{not json", encoding="utf-8")
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        failures = json.loads((tmp_path / "rep" / "manifest.json").read_text())["failures"]
        assert failures == [
            "report: AAA_lag4_dual-no_w10.json: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ]

    def corrupted_report(
        self, tmp_path, windows, corrupt=lambda text: "{not json", suffix=".json", stem="AAA_lag4_dual-no_w10"
    ):
        """Report on a forecast's runs after ``corrupt`` rewrites one run's descriptor (or its ``.csv``)."""
        config_path = write_config(
            tmp_path,
            synthetic_tickers(tmp_path),
            analyses=["forecast"],
            forecast={
                "lags": [4], "duals": [False], "windows": windows, "mece_train_size": None,
                "test_size": 3, "epochs": 1, "hidden_size": 2,
            },
        )
        assert main(["forecast", "--config", str(config_path)]) == 0
        runs_dir = tmp_path / "out" / "forecast" / "runs"
        target = runs_dir / f"{stem}{suffix}"
        target.write_text(corrupt(target.read_text(encoding="utf-8")), encoding="utf-8")
        assert main(["report", "--runs", str(runs_dir), "--out", str(tmp_path / "rep")]) == 1
        return json.loads((tmp_path / "rep" / "manifest.json").read_text())

    def test_unreadable_descriptor_fails_only_its_run(self, tmp_path):
        manifest = self.corrupted_report(tmp_path, [10])
        assert [o["path"] for o in manifest["outputs"]] == [
            "report/BBB.csv", "report/BBB.json", "report/CCC.csv", "report/CCC.json", "report/long.csv",
        ]
        assert len(manifest["failures"]) == 1
        assert manifest["failures"][0].startswith("report: AAA_lag4_dual-no_w10.json: ")
        long_rows = (tmp_path / "rep" / "report" / "long.csv").read_text().strip().split("\n")[1:]
        assert sorted({row.split(",")[0] for row in long_rows}) == ["BBB", "CCC"]

    def test_unreadable_descriptor_is_a_missing_cell(self, tmp_path):
        manifest = self.corrupted_report(tmp_path, [10, 20])
        assert len(manifest["failures"]) == 1
        assert "report/AAA.json" in [o["path"] for o in manifest["outputs"]]
        cells = {
            name: json.loads((tmp_path / "rep" / "report" / f"{name}.json").read_text())["cells"]
            for name in ("AAA", "BBB")
        }
        assert cells["AAA"]["window=10|lag=4|dual=no"] is None
        assert cells["AAA"]["window=20|lag=4|dual=no"] is not None
        assert cells["BBB"]["window=10|lag=4|dual=no"] is not None

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("dual", True, "key dual must be 'yes' or 'no', got True"),
            ("lag", 4.7, "lag must be an integer >= 1, got 4.7"),
            ("seed", "7", "key seed must be an integer, got '7'"),
            ("lag", True, "lag must be an integer >= 1, got True"),
            ("ticker", "../AAA", "key ticker must match [A-Za-z0-9][A-Za-z0-9.-]*, got '../AAA'"),
            *(
                ("predictions_csv", name, f"key predictions_csv must be a file name in the descriptor's directory, got {name!r}")
                for name in ("../../../AAA_lag4_dual-no_w10.csv", "/AAA_lag4_dual-no_w10.csv", "..")
            ),
        ],
        ids=["dual-bool", "lag-float", "seed-string", "lag-bool", "ticker-path", "csv-outside", "csv-absolute", "csv-parent"],
    )
    def test_descriptor_field_read_strictly(self, tmp_path, key, value, message):
        manifest = self.corrupted_report(
            tmp_path, [10, 20], lambda text: json.dumps({**json.loads(text), key: value})
        )
        assert manifest["failures"] == [f"report: AAA_lag4_dual-no_w10.json: {message}"]
        cells = json.loads((tmp_path / "rep" / "report" / "AAA.json").read_text())["cells"]
        assert cells["window=10|lag=4|dual=no"] is None
        assert cells["window=20|lag=4|dual=no"] is not None

    @pytest.mark.parametrize(
        "stem, lag, message, regime",
        [
            ("AAA_lag4_dual-no_w10", 0, "lag must be an integer >= 1, got 0", "window=10"),
            ("AAA_lag4_dual-no_w5", 9, "window=5 too small for lag=9; need window >= lag+1", "window=5"),
        ],
        ids=["lag-0", "lag-9-window-5"],
    )
    def test_descriptor_lag_its_regime_cannot_run_fails_its_run(self, tmp_path, stem, lag, message, regime):
        # forecast never writes such a run, so report grids none
        manifest = self.corrupted_report(
            tmp_path, [5, 10], lambda text: json.dumps({**json.loads(text), "lag": lag}), stem=stem
        )
        assert manifest["failures"] == [f"report: {stem}.json: {message}"]
        assert "report/AAA.csv" in [o["path"] for o in manifest["outputs"]]
        header = (tmp_path / "rep" / "report" / "AAA.csv").read_text().split("\n")[0]
        assert header == "regime,metric,lag4_dual_no"
        cells = json.loads((tmp_path / "rep" / "report" / "AAA.json").read_text())["cells"]
        assert [key for key, cell in cells.items() if cell is None] == [f"{regime}|lag=4|dual=no"]

    @pytest.mark.parametrize("column", ["predicted", "actual"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_fails_its_run(self, tmp_path, column, value):
        def set_first(text):
            header, first, *rest = text.split("\n")
            cells = first.split(",")
            cells[header.split(",").index(column)] = value
            return "\n".join([header, ",".join(cells), *rest])

        manifest = self.corrupted_report(tmp_path, [10, 20], set_first, suffix=".csv")
        assert manifest["failures"] == ["report: AAA_lag4_dual-no_w10.json: predictions and actuals must be finite"]
        cells = json.loads((tmp_path / "rep" / "report" / "AAA.json").read_text())["cells"]
        assert cells["window=10|lag=4|dual=no"] is None
        assert cells["window=20|lag=4|dual=no"] is not None

    def test_empty_runs_dir_fails(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--runs", str(empty), "--out", str(tmp_path / "rep")]) == 1


def test_numpy_is_the_only_third_party_import():
    # scipy may be installed, but it is not a dependency: importing the CLI
    # in a fresh interpreter must load nothing outside the stdlib but numpy
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import dualstock.cli\n"
        "loaded = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'dualstock'}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
