import csv
import json
import math
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from widebnn.errors import BadRange, ConfigError
from widebnn.experiments import (
    DATASET_STREAM_ID,
    SECTIONS,
    ExperimentConfig,
    SweepRow,
    build_dataset,
    config_from_dict,
    linreg_rates_csv,
    load_config,
    width_sweep,
    write_sweep_csv,
)
from widebnn.likelihood import LikelihoodSpec
from widebnn.network import NetworkConfig, forward, sample_prior
from widebnn.numkit import GaussianStream
from widebnn import cli


def base_doc(**over):
    doc = {
        "network": {"depth": 1, "input_dim": 1, "output_dim": 1},
        "likelihood": {"kind": "gaussian", "sigma2": 0.1},
        "dataset": {"train_m": 3, "train_range": [-1.0, 1.0], "target_rule": "sin"},
        "eval": {"test_m": 5, "test_range": [-1.0, 1.0]},
        "widths": [1, 8],
        "n_proposals": 2000,
        "seed": 0,
        "workers": 1,
    }
    doc.update(over)
    return doc


class TestConfigParsing:
    def test_round_trip(self):
        cfg = config_from_dict(base_doc())
        assert cfg.widths == [1, 8]
        assert cfg.network.depth == 1
        assert cfg.likelihood.sigma2 == 0.1
        assert cfg.train_m == 3 and cfg.test_m == 5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(bogus=1))

    @pytest.mark.parametrize("where", [None, "network", "likelihood", "dataset", "eval"])
    def test_unknown_key_in_each_place(self, where):
        doc = base_doc()
        (doc if where is None else doc[where])["bogus"] = 1
        where = where or "config"
        with pytest.raises(ConfigError, match=rf"unknown keys in {where}: \['bogus'\]"):
            config_from_dict(doc)

    def test_every_dataclass_field_is_reachable_from_json(self):
        # Each value differs from its field's default, so each one must have
        # been read from the document.
        net = NetworkConfig(depth=2, input_dim=1, output_dim=3, hidden_width=7, sigma_w=1.5,
                            sigma_b=0.0, nonlinearity="relu", parametrisation="ntk")
        lik = LikelihoodSpec("categorical", sigma2=0.3, num_classes=3)
        want = ExperimentConfig(net, lik, train_m=5, train_range=(-2.0, 1.0),
                                target_rule="prior_draw", test_m=7, test_range=(0.0, 3.0),
                                widths=[2, 7], n_proposals=99, seed=4, workers=2,
                                output_path="x.csv")
        for obj in (net, lik, want):
            for f in fields(obj):
                assert f.default is MISSING or getattr(obj, f.name) != f.default
        doc = {name: {f.name: getattr(obj, f.name) for f in fields(obj)}
               for name, obj in (("network", net), ("likelihood", lik))}
        for f in fields(ExperimentConfig):
            if f.name not in doc:
                section = [s for s, keys in SECTIONS.items() if f.name in keys]
                target = doc.setdefault(section[0], {}) if section else doc
                target[f.name] = getattr(want, f.name)
        assert config_from_dict(json.loads(json.dumps(doc))) == want

    def test_unknown_nested_key(self):
        doc = base_doc()
        doc["network"]["activation"] = "erf"
        with pytest.raises(ConfigError):
            config_from_dict(doc)
        doc = base_doc()
        doc["dataset"]["noise"] = 0.1
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_widths_must_increase(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(widths=[8, 1]))
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(widths=[]))

    def test_bad_target_rule(self):
        doc = base_doc()
        doc["dataset"]["target_rule"] = "cosine"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    def test_bad_network_field_value(self):
        doc = base_doc()
        doc["network"]["nonlinearity"] = "tanh"
        with pytest.raises(ConfigError):
            config_from_dict(doc)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, "2", True, None])
    def test_workers_must_be_a_positive_int(self, workers):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(workers=workers))

    @pytest.mark.parametrize("seed", [1.5, "x", "3", True, None])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ConfigError):
            config_from_dict(base_doc(seed=seed))

    @pytest.mark.parametrize("field,value", [
        ("n_proposals", 100.0), ("n_proposals", True), ("n_proposals", 0),
        ("widths", [2.5]), ("widths", [1, True]), ("widths", [0, 8]),
    ])
    def test_top_level_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be"):
            config_from_dict(base_doc(**{field: value}))

    @pytest.mark.parametrize("section,field,value", [
        ("dataset", "train_m", 2.5), ("dataset", "train_m", -1),
        ("dataset", "train_m", "3"), ("eval", "test_m", 2.5), ("eval", "test_m", 0),
    ])
    def test_grid_sizes_must_be_integers(self, section, field, value):
        doc = base_doc()
        doc[section][field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            config_from_dict(doc)

    def test_load_config_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))


class TestBuildDataset:
    def cfg(self, **over):
        return config_from_dict(base_doc(**over))

    def test_equidistant_grid_endpoints(self):
        cfg = self.cfg()
        cfg.test_m = 100
        cfg.test_range = (-np.pi, np.pi)
        _, _, test_x = build_dataset(cfg)
        assert test_x.shape == (100, 1)
        assert np.isclose(test_x[0, 0], -np.pi)
        assert np.isclose(test_x[-1, 0], np.pi)
        assert np.isclose(test_x[1, 0] - test_x[0, 0], 2 * np.pi / 99)

    def test_degenerate_single_point_grid(self):
        doc = base_doc()
        doc["dataset"] = {"train_m": 1, "train_range": [0.0, 0.0]}
        cfg = config_from_dict(doc)
        train_x, train_y, _ = build_dataset(cfg)
        assert train_x.shape == (1, 1) and train_x[0, 0] == 0.0
        assert train_y[0, 0] == 0.0  # sin(0)

    def test_sin_rule(self):
        doc = base_doc()
        doc["dataset"] = {"train_m": 3, "train_range": [0.0, np.pi / 2]}
        cfg = config_from_dict(doc)
        _, train_y, _ = build_dataset(cfg)
        assert np.isclose(train_y[-1, 0], 1.0)  # sin(pi/2)

    def test_bad_range(self):
        doc = base_doc()
        doc["dataset"]["train_range"] = [1.0, -1.0]
        cfg = config_from_dict(doc)
        with pytest.raises(BadRange):
            build_dataset(cfg)

    def test_prior_draw_is_realizable_and_deterministic(self):
        doc = base_doc()
        doc["dataset"]["target_rule"] = "prior_draw"
        cfg = config_from_dict(doc)
        tx, ty, _ = build_dataset(cfg)
        tx2, ty2, _ = build_dataset(cfg)
        assert np.array_equal(ty, ty2)
        # Targets equal the forward pass of the same fixed draw at max width.
        net = cfg.network.with_width(max(cfg.widths))
        params = sample_prior(net, GaussianStream(cfg.seed, DATASET_STREAM_ID))
        assert np.allclose(ty, forward(params, net, tx))


class TestWidthSweep:
    def test_small_sweep_rows(self, tmp_path):
        cfg = config_from_dict(base_doc(
            likelihood={"kind": "gaussian", "sigma2": 0.5},
            widths=[1, 8], n_proposals=4000))
        rows = width_sweep(cfg)
        assert [r.width for r in rows] == [1, 8]
        for r in rows:
            assert r.proposals == 4000
            assert 0 <= r.accepts <= r.proposals
            if r.rf_cov_nngp is not None:
                assert r.rf_cov_nngp >= 0 and r.rf_mean_nngp >= 0
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(out))
        with open(out) as fh:
            got = list(csv.reader(fh))
        assert got[0][0] == "width" and len(got) == 3

    def test_requires_gaussian_likelihood(self):
        cfg = config_from_dict(base_doc(
            likelihood={"kind": "categorical", "num_classes": 2},
            network={"depth": 1, "input_dim": 1, "output_dim": 2}))
        with pytest.raises(ConfigError):
            width_sweep(cfg)

    def test_statistical_columns_worker_invariant(self):
        doc = base_doc(likelihood={"kind": "gaussian", "sigma2": 0.5},
                       n_proposals=3000)
        r1 = width_sweep(config_from_dict({**doc, "workers": 1}))
        r2 = width_sweep(config_from_dict({**doc, "workers": 8}))
        for a, b in zip(r1, r2):
            assert (a.width, a.proposals, a.accepts) == (b.width, b.proposals, b.accepts)
            assert a.rf_mean_nngp == b.rf_mean_nngp
            assert a.rf_cov_nngp == b.rf_cov_nngp

    def test_mean_likelihood_columns_worker_invariant(self, tmp_path):
        doc = base_doc(likelihood={"kind": "gaussian", "sigma2": 0.5},
                       n_proposals=3000)
        texts = []
        for workers in (1, 8):
            rows = width_sweep(config_from_dict({**doc, "workers": workers}))
            out = tmp_path / f"sweep{workers}.csv"
            write_sweep_csv(rows, str(out))
            with open(out) as fh:
                got = list(csv.reader(fh))
            assert got[0][-3:] == ["mean_likelihood", "mean_likelihood_se", "wall_seconds"]
            texts.append([row[-3:-1] for row in got[1:]])
            assert all(r.mean_likelihood > 0 and r.mean_likelihood_se > 0 for r in rows)
        assert texts[0] == texts[1]

    def test_mean_likelihood_present_without_moments(self, tmp_path):
        cfg = config_from_dict(base_doc(likelihood={"kind": "gaussian", "sigma2": 1e-12},
                                        n_proposals=50))
        rows = width_sweep(cfg)
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(out))
        with open(out) as fh:
            got = list(csv.DictReader(fh))
        for r, line in zip(rows, got):
            assert r.accepts == 0 and r.rf_cov_nngp is None
            assert r.mean_likelihood is not None and r.mean_likelihood_se is not None
            assert line["rf_cov_nngp"] == ""
            assert float(line["mean_likelihood"]) == r.mean_likelihood
            assert float(line["mean_likelihood_se"]) == r.mean_likelihood_se

    def test_csv_columns_are_the_sweep_row_fields(self, tmp_path):
        names = [f.name for f in fields(SweepRow)]
        values = list(range(len(names)))
        values[3] = None
        out = tmp_path / "sweep.csv"
        write_sweep_csv([SweepRow(*values)], str(out))
        with open(out) as fh:
            got = list(csv.reader(fh))
        assert got == [names, ["" if v is None else str(v) for v in values]]
        # The README names the same columns, in the same order.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        para = readme.split("`sweep` writes one CSV row per width")[1].split("\n\n")[0]
        assert re.findall(r"`(\w+)`", para.split("order:")[1]) == names


class TestLinregRatesCsv:
    def test_columns_identities_and_footer(self, tmp_path):
        out = tmp_path / "rates.csv"
        linreg_rates_csv([16, 32, 64, 128, 256], m=8, seed=0, path=str(out))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        header, body, footer = rows[0], rows[1:-1], rows[-1]
        assert header == ["n", "w2", "kl", "n_mu_norm_sq", "trace_term",
                          "w2_ntk_scaled", "kl_ntk_scaled"]
        assert footer[0] == "slope"
        for row in body:
            vals = dict(zip(header, row))
            n = int(vals["n"])
            # KL invariance and sqrt(n) W2 scaling under the rescaling.
            assert np.isclose(float(vals["kl_ntk_scaled"]), float(vals["kl"]),
                              rtol=1e-8)
            ratio = (float(vals["w2_ntk_scaled"]) / float(vals["w2"])) ** 2
            assert np.isclose(ratio, n, rtol=1e-6)

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        linreg_rates_csv([16, 32, 64], m=4, seed=3, path=str(a))
        linreg_rates_csv([16, 32, 64], m=4, seed=3, path=str(b))
        assert a.read_bytes() == b.read_bytes()


# Config documents that each hold one malformed value, at a key path.
MALFORMED = [
    (("dataset",), 5),
    (("dataset", "train_range"), 5),
    (("dataset", "train_range"), ["a", "b"]),
    (("dataset", "train_range"), [1]),
    (("dataset", "train_range"), [0, math.inf]),
    (("eval", "test_range"), [0, 1, 2]),
    (("network", "depth"), 1.5),
    (("network", "output_dim"), 2.5),
    (("network", "sigma_w"), math.inf),
    (("network", "sigma_b"), math.nan),
    (("likelihood", "sigma2"), math.inf),
    (("likelihood",), {"kind": "categorical", "num_classes": 2.5}),
    (("output_path",), None),
    (("output_path",), ["sweep.csv"]),
]


class TestCli:
    def write_config(self, tmp_path, **over):
        defaults = dict(likelihood={"kind": "gaussian", "sigma2": 0.5},
                        n_proposals=2000,
                        output_path=str(tmp_path / "sweep.csv"))
        defaults.update(over)
        doc = base_doc(**defaults)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_sweep_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"unknown": 1}))
        assert cli.main(["sweep", "--config", str(bad)]) == 2
        assert cli.main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
        bad.write_bytes(b"\xff\xfe{")  # not UTF-8
        assert cli.main(["sweep", "--config", str(bad)]) == 2

    def test_no_accepts_exit_code(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            likelihood={"kind": "gaussian", "sigma2": 1e-12},
            n_proposals=50,
        )
        assert cli.main(["sweep", "--config", str(cfg)]) == 3

    def test_linreg_rates_command(self, tmp_path):
        out = tmp_path / "rates.csv"
        code = cli.main(["linreg-rates", "--n-grid", "16,32,64",
                         "--m", "4", "--seed", "1", "--out", str(out)])
        assert code == 0 and out.exists()
        assert cli.main(["linreg-rates", "--n-grid", "abc",
                         "--m", "4", "--seed", "1", "--out", str(out)]) == 2

    def test_linreg_rates_route_mismatch_exit_code(self, tmp_path, monkeypatch, capsys):
        from widebnn import linreg

        real = linreg.w2_gaussian
        monkeypatch.setattr(linreg, "w2_gaussian", lambda p, q: real(p, q) + 1.0)
        out = tmp_path / "rates.csv"
        assert cli.main(["linreg-rates", "--n-grid", "16,32", "--m", "4",
                         "--seed", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: w2_sq: spectral route") and "Traceback" not in err

    def test_linreg_rates_wrong_kl_on_a_worker_exit_code(self, tmp_path, monkeypatch, capsys):
        from widebnn import linreg

        real = linreg.kl_gaussian
        monkeypatch.setattr(linreg, "kl_gaussian", lambda p, q: real(p, q) + 1.0)
        monkeypatch.setattr(linreg, "available_cores", lambda: 2)
        out = tmp_path / "rates.csv"
        assert cli.main(["linreg-rates", "--n-grid", "16,32", "--m", "4",
                         "--seed", "1", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: kl: spectral route")
        assert "np.float64" not in lines[0]

    @pytest.mark.parametrize("grid,m", [("8,4", 2), ("16", 8), ("4,16,32", 8),
                                        ("16,32", 0)])
    def test_linreg_rates_bad_grid_exit_code(self, tmp_path, grid, m):
        out = tmp_path / "rates.csv"
        assert cli.main(["linreg-rates", "--n-grid", grid, "--m", str(m),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [("workers", "2"), ("workers", 0),
                                             ("seed", "x"), ("seed", 1.5)])
    def test_sample_bad_workers_or_seed_exit_code(self, tmp_path, field, value):
        cfg = self.write_config(tmp_path, **{field: value})
        assert cli.main(["sample", "--config", str(cfg), "--width", "8"]) == 2

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_sample_bad_width_exit_code(self, tmp_path, width):
        cfg = self.write_config(tmp_path)
        assert cli.main(["sample", "--config", str(cfg), "--width", width]) == 2

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    @pytest.mark.parametrize("section,field,value", [
        (None, "n_proposals", 100.0), (None, "n_proposals", True),
        (None, "widths", [2.5]), ("dataset", "train_m", 2.5),
        ("eval", "test_m", 2.5),
    ])
    def test_non_integer_field_exit_code(self, tmp_path, capsys, command, section,
                                         field, value):
        doc = base_doc(output_path=str(tmp_path / "sweep.csv"))
        (doc if section is None else doc[section])[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--config", str(path)]
        if command == "sample":
            argv += ["--width", "8"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field} must be")
        assert f"got {value[0] if field == 'widths' else value!r}" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["sweep", "nngp", "sample"])
    @pytest.mark.parametrize("path,value", MALFORMED,
                             ids=[".".join(p) + "=" + json.dumps(v) for p, v in MALFORMED])
    def test_malformed_config_exit_code(self, tmp_path, capsys, command, path, value):
        doc = base_doc(output_path=str(tmp_path / "sweep.csv"))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))  # inf and nan as JSON's Infinity and NaN
        argv = [command, "--config", str(cfg)]
        if command == "sample":
            argv += ["--width", "8"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "sweep.csv").exists()

    def test_sample_reports_the_mean_likelihood(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli.main(["sample", "--config", str(cfg), "--width", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepts"] > 0
        assert 0.0 < doc["mean_likelihood"] <= 1.0
        assert 0.0 < doc["mean_likelihood_se"] < doc["mean_likelihood"]
        # Nothing accepted: the evidence is still reported.
        cfg = self.write_config(tmp_path, likelihood={"kind": "gaussian", "sigma2": 1e-3},
                                n_proposals=50)
        assert cli.main(["sample", "--config", str(cfg), "--width", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accepts"] == 0 and not doc["moments_valid"]
        assert 0.0 < doc["mean_likelihood"] < 1.0 / 50
        assert doc["mean_likelihood_se"] > 0.0

    def test_sample_reports_the_survivors(self, tmp_path, capsys):
        # Depth 1 runs in parameter mode and screens nothing; at depth 2 the
        # function-space layers are screened at one train point first.
        cfg = self.write_config(tmp_path)
        assert cli.main(["sample", "--config", str(cfg), "--width", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "parameter" and doc["survivors"] == doc["proposals"]
        cfg = self.write_config(tmp_path, network={"depth": 2, "input_dim": 1,
                                                   "output_dim": 1})
        assert cli.main(["sample", "--config", str(cfg), "--width", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "function"
        assert doc["accepts"] <= doc["survivors"] < doc["proposals"]

    def test_nngp_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli.main(["nngp", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["mean"]) == 5
        assert len(doc["cov"]) == 5

    def test_sample_command(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli.main(["sample", "--config", str(cfg), "--width", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["width"] == 8
        assert doc["proposals"] == 2000
        assert 0 <= doc["accepts"] <= 2000
