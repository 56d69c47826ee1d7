"""Command line behaviour: config resolution, exit codes, end-to-end flow."""

import argparse
import ctypes
import glob
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from sparseloc import (DescriptorDatabase, MinkLoc, ModelConfig, PointCloud,
                       PointCloudRecord, cli, compute_descriptor,
                       load_checkpoint, load_database, recall_curve,
                       save_checkpoint, save_database, write_cloud,
                       write_index)
from sparseloc import data as data_io
from sparseloc import gradcheck
from sparseloc.errors import FormatError


def run(argv):
    return cli.main(argv)


# each command's options; the ones that set a config field have its name as dest
OPTIONS = {
    "train": {"--config", "--seed", "--dataset", "--out", "--descriptor-dim",
              "--epochs", "--batch", "--batch-limit"},
    "embed": {"--checkpoint", "--index", "--out"},
    "eval": {"--db", "--query", "--out", "--radius"},
    "query": {"--checkpoint", "--db", "--cloud", "-k"},
    "gradcheck": {"--seed"},
}

# the required flags of each command, with values that are never opened
REQUIRED = {
    "embed": ["--checkpoint", "c.ckpt", "--index", "i.csv", "--out", "o.db"],
    "eval": ["--db", "d.db", "--query", "q.db", "--out", "r.csv"],
    "query": ["--checkpoint", "c.ckpt", "--db", "d.db", "--cloud", "s.bin"],
    "gradcheck": [],
    "train": ["--dataset", "x", "--out", "y"],
}

REMOVED = ([(cmd, flag) for cmd in ("embed", "eval", "query")
            for flag in ("--config", "--seed", "--descriptor-dim",
                         "--pooling")]
           + [("gradcheck", flag) for flag in ("--config", "--descriptor-dim",
                                               "--pooling", "--corrupt")]
           + [("train", "--pooling")])


def parser_options() -> dict:
    """Each command's option strings, from ``build_parser``."""
    (sub,) = [a for a in cli.build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: {o for a in sp._actions for o in a.option_strings}
            - {"-h", "--help"} for name, sp in sub.choices.items()}


class TestOptions:
    def test_each_command_takes_only_what_it_reads(self):
        got = parser_options()
        assert got == OPTIONS
        assert sum(len(opts) for opts in got.values()) == 20

    def test_readme_table_matches_parser(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme) as fh:
            rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|$", fh.read(),
                              re.MULTILINE)
        table = {cmd: flags.split() for cmd, flags in rows}
        assert {cmd: set(flags) for cmd, flags in table.items()} \
            == parser_options()
        assert all(len(set(flags)) == len(flags) for flags in table.values())

    @pytest.mark.parametrize("cmd,flag", REMOVED)
    def test_removed_flag_is_usage_error(self, capsys, cmd, flag):
        value = {"--seed": ["9"], "--descriptor-dim": ["7"],
                 "--pooling": ["mac"], "--config": ["x.cfg"],
                 "--corrupt": []}[flag]
        assert run([cmd, *REQUIRED[cmd], flag, *value]) == cli.EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_flags_set_their_fields(self):
        parser = cli.build_parser()
        tcfg, mcfg, _ = cli.resolve_configs(parser.parse_args(
            ["train", "--dataset", "x", "--out", "y", "--descriptor-dim", "5",
             "--epochs", "2", "--batch", "3", "--batch-limit", "9"]))
        assert mcfg.descriptor_dim == 5
        assert (tcfg.epochs, tcfg.initial_batch, tcfg.batch_limit) == (2, 3, 9)
        for flags, radius in (([], 25.0), (["--radius", "7.5"], 7.5)):
            args = parser.parse_args(["eval", *REQUIRED["eval"], *flags])
            assert args.success_radius == radius

    def test_dropped_config_key_is_2(self, tmp_path, capsys):
        # success_radius is eval's --radius, which reads no config file;
        # GeM is the only pooling head
        for key in ("top_n_percent", "success_radius", "pooling"):
            cfg = tmp_path / "old.cfg"
            cfg.write_text(f"{key} = 1\n")
            code = run(["train", "--config", str(cfg), "--dataset", "x",
                        "--out", str(tmp_path / "out")])
            assert code == cli.EXIT_DATA
            assert f"unknown config key: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigResolution:
    def test_parse_flat_key_value(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("# comment\nepochs = 5\nmargin=0.3  # inline\n\n")
        assert cli.parse_config_file(str(path)) == {"epochs": "5",
                                                    "margin": "0.3"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("epochs 5\n")
        with pytest.raises(FormatError):
            cli.parse_config_file(str(path))

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            cli._coerce("no_such_key", "1")

    @pytest.mark.parametrize("raw", ["ture", "2", "", "y"])
    def test_unknown_bool_rejected(self, raw):
        # normalize is no config key, whatever its value
        with pytest.raises(FormatError, match="normalize"):
            cli._coerce("normalize", raw)

    def test_config_fields_are_int_float_or_str(self):
        # _coerce parses only these; anything not an int is read as a float
        assert set(cli._CONFIG_FIELDS.values()) <= {"int", "float"}

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("epochs = 5\nmargin = 0.3\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(path),
                                  "--epochs", "7", "--dataset", "x",
                                  "--out", "y"])
        tcfg, mcfg, _ = cli.resolve_configs(args)
        assert tcfg.epochs == 7        # flag wins
        assert tcfg.margin == 0.3      # file wins over default
        assert tcfg.lr == 1e-3         # default survives
        assert mcfg.descriptor_dim == 256

    def test_shipped_presets_parse(self):
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for name, epochs, step in (("baseline.cfg", 40, 30),
                                   ("refined.cfg", 80, 60)):
            values = cli.parse_config_file(os.path.join(here, "configs", name))
            assert int(values["epochs"]) == epochs
            assert int(values["lr_step_epoch"]) == step
            assert float(values["quantization_step"]) == 0.01


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(["train"]) == cli.EXIT_USAGE  # missing required flags
        assert run(["no-such-command"]) == cli.EXIT_USAGE

    def test_missing_index_is_2(self, tmp_path, capsys):
        code = run(["train", "--dataset", str(tmp_path / "nope"),
                    "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        assert "index" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "pooling = GEM", "pooling = avg", "normalize = ture",
        "normalize = true", "gem_p_init = 3", "descriptor_dim = 0",
        "conv0_ch = 0", "conv3_ch = -1", "quantization_step = 0",
        "quantization_step = -0.01", "quantization_step = inf",
        "quantization_step = nan", "expansion_rate = 0",
        "expansion_rate = nan", "lr = inf", "lr = nan", "lr = 0",
        "weight_decay = nan", "margin = nan", "translation_max = nan",
        "epochs = 2.5", "lr = fast",
        "jitter_sigma = -1", "removal_max_fraction = 1.5",
        "erase_min_fraction = 0.9", "erase_max_fraction = 1.5"])
    def test_bad_config_value_is_2(self, tmp_path, synth_root, capsys, line):
        # pooling, normalize and gem_p_init are not config keys; a value
        # that is not a number names its key; a zero expansion
        # rate or a minimum erase above the maximum died after epoch 1, and
        # a NaN or infinite value trained NaN weights
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run(["train", "--config", str(cfg), "--dataset", synth_root,
                    "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and line.split()[0] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_descriptor_dim_flag_below_1_is_2(self, tmp_path, synth_root,
                                              capsys):
        out = tmp_path / "out"
        code = run(["train", "--dataset", synth_root, "--out", str(out),
                    "--descriptor-dim", "0"])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "descriptor_dim" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", ["nan", "-5"])
    def test_bad_radius_is_2(self, tmp_path, capsys, radius):
        paths = [str(tmp_path / f"run{r}.db") for r in range(2)]
        for r, path in enumerate(paths):
            save_database(path, DescriptorDatabase(
                np.ones((3, 3)), np.zeros(3), np.zeros(3), np.arange(3) + 10 * r))
        out = tmp_path / "r.csv"
        code = run(["eval", "--db", paths[0], "--query", paths[1],
                    "--out", str(out), f"--radius={radius}"])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "success_radius" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()
        with pytest.raises(ValueError, match="success_radius"):
            recall_curve(load_database(paths[1]), load_database(paths[0]), 1,
                         float(radius))

    def test_corrupt_checkpoint_is_2(self, tmp_path, synth_root, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"junk")
        code = run(["embed", "--checkpoint", str(bad),
                    "--index", os.path.join(synth_root, "index.csv"),
                    "--out", str(tmp_path / "d.db")])
        assert code == cli.EXIT_DATA


    def assert_os_error_is_2(self, argv, capsys):
        assert run(argv) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_checkpoint_is_directory_is_2(self, tmp_path, synth_root, capsys):
        self.assert_os_error_is_2(
            ["embed", "--checkpoint", str(tmp_path),
             "--index", os.path.join(synth_root, "index.csv"),
             "--out", str(tmp_path / "d.db")], capsys)

    @pytest.mark.parametrize("flags, field", [
        (["--epochs", "0"], "epochs"),
        (["--batch", "0"], "initial_batch"),
        (["--batch", "3"], "initial_batch"),
        (["--batch", "8", "--batch-limit", "4"], "batch_limit"),
    ])
    def test_unrunnable_schedule_is_2(self, tmp_path, synth_root, capsys,
                                      flags, field):
        out = tmp_path / "out"
        code = run(["train", "--dataset", synth_root, "--out", str(out),
                    *flags])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and field in captured.err
        assert "Traceback" not in captured.err
        assert "final checkpoint" not in captured.out
        assert not (out / "metrics.csv").exists()

    def test_train_out_is_file_is_2(self, tmp_path, synth_root, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        self.assert_os_error_is_2(["train", "--dataset", synth_root,
                                   "--out", str(out)], capsys)

    def test_eval_out_is_directory_is_2(self, tmp_path, capsys):
        paths = [str(tmp_path / f"run{r}.db") for r in range(2)]
        for r, path in enumerate(paths):
            save_database(path, DescriptorDatabase(
                np.ones((3, 3)), np.zeros(3), np.zeros(3), np.arange(3) + 10 * r))
        self.assert_os_error_is_2(["eval", "--db", paths[0], "--query",
                                   paths[1], "--out", str(tmp_path)], capsys)


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert run(["gradcheck", "--seed", "0"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)

    def test_failing_check_is_3(self, capsys, monkeypatch):
        result = gradcheck.CheckResult
        monkeypatch.setattr(cli, "run_suite", lambda seed: [
            result("relu", 0.0, 1e-4), result("sparse_conv", 1.0, 1e-4)])
        assert run(["gradcheck"]) == cli.EXIT_NUMERIC
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("PASS") and out[1].startswith("FAIL")

    def test_wrong_conv_gradient_fails(self, monkeypatch):
        # a conv backward that adds 1e-3 to the weight gradient is caught
        conv = gradcheck.sparse_conv

        def wrong(x, w, *args, tape=None, **kw):
            out = conv(x, w, *args, tape=tape, **kw)
            if tape is not None:
                tape.record_for(out.fvar, lambda g: w.acc.add(
                    np.full(w.value.shape, 1e-3)))
            return out

        assert gradcheck.check_conv(np.random.default_rng(0)).passed
        monkeypatch.setattr(gradcheck, "sparse_conv", wrong)
        assert not gradcheck.check_conv(np.random.default_rng(0)).passed


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train a tiny model via the CLI and reuse its artifacts."""
    from sparseloc import synth_dataset
    base = tmp_path_factory.mktemp("cli")
    root = str(base / "data")
    synth_dataset(root, n_places=3, n_revisits=3, geometry_seed=1,
                  points_per_cloud=128)
    cfg = base / "tiny.cfg"
    cfg.write_text("conv0_ch = 2\nconv1_ch = 2\nconv2_ch = 2\nconv3_ch = 2\n"
                   "descriptor_dim = 3\nepochs = 2\ninitial_batch = 4\n"
                   "batch_limit = 4\nquantization_step = 0.02\n")
    out = str(base / "run")
    code = cli.main(["train", "--config", str(cfg), "--dataset", root,
                     "--out", out, "--seed", "0"])
    assert code == cli.EXIT_OK
    return {"root": root, "out": out,
            "ckpt": os.path.join(out, "epoch_2.ckpt"), "base": base}


class TestPipeline:
    def test_train_artifacts(self, pipeline):
        assert os.path.exists(pipeline["ckpt"])
        assert os.path.exists(os.path.join(pipeline["out"], "metrics.csv"))

    def test_embed_writes_database(self, pipeline, capsys):
        db_path = str(pipeline["base"] / "run0.db")
        code = run(["embed", "--checkpoint", pipeline["ckpt"],
                    "--index", os.path.join(pipeline["root"], "run_0.csv"),
                    "--out", db_path])
        assert code == cli.EXIT_OK
        db = load_database(db_path)
        assert len(db) == 3 and db.dim == 3
        assert "clouds/s" in capsys.readouterr().out

    def test_index_is_directory_is_2(self, pipeline, tmp_path, capsys):
        code = run(["embed", "--checkpoint", pipeline["ckpt"],
                    "--index", str(tmp_path), "--out", str(tmp_path / "d.db")])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_step_comes_from_checkpoint(self, pipeline, capsys):
        # trained at 0.02, not the default 0.01; embed reads no config file
        cfg = ModelConfig(conv0_ch=2, conv1_ch=2, conv2_ch=2, conv3_ch=2,
                          descriptor_dim=3, quantization_step=0.02)
        model = MinkLoc(cfg)
        model.load_state_dict(load_checkpoint(pipeline["ckpt"]))
        index = os.path.join(pipeline["root"], "run_0.csv")
        records = sorted(data_io.load_index(index), key=lambda rec: rec.id)
        descs = [compute_descriptor(PointCloud(data_io.load_cloud(
            os.path.join(pipeline["root"], rec.path))), model).values
            for rec in records]
        want = str(pipeline["base"] / "step_want.db")
        save_database(want, DescriptorDatabase(
            np.stack(descs), np.array([rec.northing for rec in records]),
            np.array([rec.easting for rec in records]),
            np.array([rec.id for rec in records])))
        got = str(pipeline["base"] / "step_got.db")
        assert run(["embed", "--checkpoint", pipeline["ckpt"],
                    "--index", index, "--out", got]) == cli.EXIT_OK
        for suffix in ("", ".geo.csv"):
            with open(got + suffix, "rb") as a, open(want + suffix, "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("step", [None, np.nan, 0.0])
    def test_bad_quantization_step_is_2(self, pipeline, capsys, step):
        state = load_checkpoint(pipeline["ckpt"])
        if step is None:
            del state["quantization_step"]
        else:
            state["quantization_step"] = np.asarray(step)
        bad = str(pipeline["base"] / f"step_{step}.ckpt")
        save_checkpoint(bad, state)
        out = pipeline["base"] / f"step_{step}.db"
        index = os.path.join(pipeline["root"], "run_0.csv")
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        for argv in (["embed", "--index", index, "--out", str(out)],
                     ["query", "--db", str(pipeline["base"] / "q.db"),
                      "--cloud", cloud]):
            assert run(argv + ["--checkpoint", bad]) == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "quantization_step" in captured.err
            assert "Traceback" not in captured.err
        assert not out.exists()

    def assert_embed_refuses_without(self, pipeline, capsys, entry):
        state = load_checkpoint(pipeline["ckpt"])
        del state[entry]
        bad = str(pipeline["base"] / f"no_{entry}.ckpt")
        save_checkpoint(bad, state)
        out = pipeline["base"] / f"no_{entry}.db"
        code = run(["embed", "--checkpoint", bad,
                    "--index", os.path.join(pipeline["root"], "run_0.csv"),
                    "--out", str(out)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checkpoint" in err
        assert entry in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_without_lateral_is_2(self, pipeline, capsys):
        self.assert_embed_refuses_without(pipeline, capsys, "lateral2.w")

    def test_checkpoint_without_gem_p_is_2(self, pipeline, capsys):
        # GeM is the only head, so a checkpoint without p (a MAC one) is refused
        self.assert_embed_refuses_without(pipeline, capsys, "gem.p")

    def test_embed_deterministic(self, pipeline, capsys):
        paths = [str(pipeline["base"] / f"det{i}.db") for i in range(2)]
        for p in paths:
            run(["embed", "--checkpoint", pipeline["ckpt"],
                 "--index", os.path.join(pipeline["root"], "run_1.csv"),
                 "--out", p])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_eval_reports_metrics(self, pipeline, capsys):
        dbs = []
        for r in range(2):
            p = str(pipeline["base"] / f"eval{r}.db")
            run(["embed", "--checkpoint", pipeline["ckpt"],
                 "--index", os.path.join(pipeline["root"], f"run_{r}.csv"),
                 "--out", p])
            dbs.append(p)
        capsys.readouterr()
        out_csv = str(pipeline["base"] / "report.csv")
        code = run(["eval", "--db", dbs[0], "--query", dbs[1],
                    "--out", out_csv])
        assert code == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert "AR@1" in printed
        with open(out_csv) as fh:
            text = fh.read()
        assert text.startswith("metric,value")
        assert "n,recall" in text

    def test_query_prints_sorted_table(self, pipeline, capsys):
        db_path = str(pipeline["base"] / "q.db")
        run(["embed", "--checkpoint", pipeline["ckpt"],
             "--index", os.path.join(pipeline["root"], "index.csv"),
             "--out", db_path])
        capsys.readouterr()
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--checkpoint", pipeline["ckpt"], "--db", db_path,
                    "--cloud", cloud, "-k", "3"])
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        dists = [float(l.split()[-1]) for l in lines[1:]]
        assert len(dists) == 3
        assert dists == sorted(dists)
        assert dists[0] < 1e-9  # the query cloud is in the database

    def test_query_k_clamped(self, pipeline, capsys):
        db_path = str(pipeline["base"] / "q.db")
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--checkpoint", pipeline["ckpt"], "--db", db_path,
                    "--cloud", cloud, "-k", "99"])
        assert code == cli.EXIT_OK
        assert "clamped" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_query_k_below_one_is_usage_error(self, pipeline, capsys, k):
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--checkpoint", pipeline["ckpt"],
                    "--db", str(pipeline["base"] / "q.db"),
                    "--cloud", cloud, "-k", k])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "-k" in captured.err

    @pytest.mark.parametrize("damage", ["truncated_header", "missing_bn_stat"])
    def test_query_damaged_checkpoint_is_2(self, pipeline, capsys, damage):
        from sparseloc import load_checkpoint, save_checkpoint
        bad = str(pipeline["base"] / f"{damage}.ckpt")
        if damage == "truncated_header":
            with open(pipeline["ckpt"], "rb") as fh:
                head = fh.read(10)   # cut inside the header length field
            with open(bad, "wb") as fh:
                fh.write(head)
        else:
            state = load_checkpoint(pipeline["ckpt"])
            del state["conv1.down.bn.mean"]
            save_checkpoint(bad, state)
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--checkpoint", bad,
                    "--db", str(pipeline["base"] / "q.db"), "--cloud", cloud])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "checkpoint" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("p", [0.0, np.inf, np.nan, -2.0])
    def test_degenerate_gem_p_is_2(self, pipeline, capsys, p):
        state = load_checkpoint(pipeline["ckpt"])
        state["gem.p"] = np.asarray(p)
        bad = str(pipeline["base"] / f"gem_p_{p}.ckpt")
        save_checkpoint(bad, state)
        out = pipeline["base"] / f"gem_p_{p}.db"
        index = os.path.join(pipeline["root"], "run_0.csv")
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        for argv in (["embed", "--index", index, "--out", str(out)],
                     ["query", "--db", str(pipeline["base"] / "q.db"),
                      "--cloud", cloud]):
            code = run(argv + ["--checkpoint", bad])
            assert code == cli.EXIT_DATA
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "gem.p" in captured.err
            assert "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("entry, index, value", [
        ("conv2.down.bn.mean", (0,), np.inf),
        ("conv1.res1.w", (0, 0, 0), np.nan),
        ("conv0.bn.var", (0,), -1.0),
    ])
    def test_bad_checkpoint_value_is_2(self, pipeline, capsys, entry, index,
                                       value):
        # a value that is not finite, or a negative variance, is refused at load
        state = load_checkpoint(pipeline["ckpt"])
        state[entry][index] = value
        bad = str(pipeline["base"] / f"bad_{entry}.ckpt")
        save_checkpoint(bad, state)
        out = pipeline["base"] / f"bad_{entry}.db"
        code = run(["embed", "--checkpoint", bad, "--out", str(out),
                    "--index", os.path.join(pipeline["root"], "run_0.csv")])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and entry in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_unwritable_sidecar_keeps_database(self, pipeline, capsys):
        db_path = str(pipeline["base"] / "kept.db")
        old = DescriptorDatabase(np.eye(2), np.zeros(2), np.zeros(2), [7, 8])
        save_database(db_path, old)
        os.rename(db_path + ".geo.csv", db_path + ".old")
        os.mkdir(db_path + ".geo.csv")
        code = run(["embed", "--checkpoint", pipeline["ckpt"], "--out", db_path,
                    "--index", os.path.join(pipeline["root"], "run_0.csv")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")
        assert not glob.glob(db_path + "*.tmp")
        os.rmdir(db_path + ".geo.csv")
        os.rename(db_path + ".old", db_path + ".geo.csv")
        back = load_database(db_path)
        assert np.array_equal(back.descriptors, old.descriptors)
        assert np.array_equal(back.ids, old.ids)

    def test_query_dimension_mismatch_is_2(self, pipeline, capsys):
        db_path = str(pipeline["base"] / "dim5.db")
        save_database(db_path, DescriptorDatabase(
            np.ones((6, 5)), np.zeros(6), np.zeros(6), np.arange(6)))
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--checkpoint", pipeline["ckpt"], "--db", db_path,
                    "--cloud", cloud])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "dimension 3" in captured.err and "dimension 5" in captured.err

    def test_query_non_finite_database_is_2(self, pipeline, capsys):
        db_path = non_finite_database(pipeline["base"] / "nan.db", dim=3)
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--checkpoint", pipeline["ckpt"], "--db", db_path,
                    "--cloud", cloud])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {db_path}: ")

    def test_embed_past_float32_is_2(self, pipeline, capsys, monkeypatch):
        huge = DescriptorDatabase(np.full((3, 3), 1e39), np.zeros(3),
                                  np.zeros(3), np.arange(3))
        monkeypatch.setattr(cli, "_embed_records", lambda *args, **kw: huge)
        db_path = pipeline["base"] / "huge.db"
        code = run(["embed", "--checkpoint", pipeline["ckpt"],
                    "--index", os.path.join(pipeline["root"], "run_0.csv"),
                    "--out", str(db_path)])
        assert code == cli.EXIT_DATA
        assert "float32" in capsys.readouterr().err
        assert not db_path.exists()
        assert not (pipeline["base"] / "huge.db.geo.csv").exists()


def non_finite_database(path, dim, first_id=0):
    """A saved database whose last float32 is then overwritten with NaN."""
    save_database(str(path), DescriptorDatabase(
        np.ones((4, dim)), np.zeros(4), np.zeros(4), np.arange(4) + first_id))
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        fh.write(np.array(np.nan, dtype="<f4").tobytes())
    return str(path)


class TestQueryCloudErrors:
    @pytest.fixture
    def query(self, pipeline, tmp_path):
        db_path = str(pipeline["base"] / "qe.db")
        if not os.path.exists(db_path):
            assert run(["embed", "--checkpoint", pipeline["ckpt"],
                        "--index", os.path.join(pipeline["root"], "run_0.csv"),
                        "--out", db_path]) == cli.EXIT_OK

        def query_points(points):
            cloud = str(tmp_path / "scan.bin")
            write_cloud(cloud, np.asarray(points, dtype=float))
            return cloud, run(["query", "--checkpoint", pipeline["ckpt"],
                               "--db", db_path, "--cloud", cloud, "-k", "2"])

        return query_points

    @pytest.mark.parametrize("bad", [np.nan, 5000.0])
    def test_unusable_coordinate_is_2(self, query, capsys, bad):
        # NaN fails PointCloud validation; 5000 overflows the coordinate key
        # after load_cloud's range warning, which main prints as a line
        capsys.readouterr()
        _, code = query([[0.1, 0.2, 0.3], [bad, 0.0, 0.0]])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[-1].startswith("error: ")
        assert all(line.startswith("warning: ") for line in lines[:-1])

    def test_out_of_range_cloud_warns_once(self, query, capsys):
        capsys.readouterr()
        cloud, code = query([[0.1, 0.2, 0.3], [1.5, 0.0, 0.0]])
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("warning: ") and cloud in lines[0]

    @pytest.mark.parametrize("bad, want", [(1.5, cli.EXIT_OK),
                                           (5000.0, cli.EXIT_DATA)])
    def test_stderr_lines_in_a_fresh_interpreter(self, query, pipeline,
                                                 tmp_path, bad, want):
        # no test harness between the warning and stderr here; the query
        # fixture has written the database
        cloud = str(tmp_path / "scan.bin")
        write_cloud(cloud, np.array([[0.1, 0.2, 0.3], [bad, 0.0, 0.0]]))
        argv = ["query", "--checkpoint", pipeline["ckpt"],
                "--db", str(pipeline["base"] / "qe.db"), "--cloud", cloud,
                "-k", "2"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(cli.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from sparseloc import cli; "
             "sys.exit(cli.main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == want
        lines = done.stderr.splitlines()
        assert lines and all(line.startswith(("warning: ", "error: "))
                             for line in lines)
        assert "coordinates outside [-1, 1]" in lines[0]


class TestEvalDatabaseErrors:
    @pytest.mark.parametrize("damage", ["truncated_header", "short_row",
                                        "no_id_column"])
    def test_damaged_database_is_2(self, tmp_path, capsys, damage):
        paths = []
        for r in range(2):
            ids = np.arange(4) + 10 * r
            db = DescriptorDatabase(np.random.default_rng(r).normal(size=(4, 3)),
                                    np.zeros(4), np.zeros(4), ids)
            paths.append(str(tmp_path / f"run{r}.db"))
            save_database(paths[-1], db)
        bad = paths[1]
        if damage == "truncated_header":
            with open(bad, "rb") as fh:
                head = fh.read(12)   # magic plus half of the dim/count header
            with open(bad, "wb") as fh:
                fh.write(head)
        else:
            with open(bad + ".geo.csv") as fh:
                lines = fh.read().splitlines()
            if damage == "short_row":
                lines[2] = lines[2].rsplit(",", 1)[0]
            else:
                lines[0] = "key,northing,easting"
            with open(bad + ".geo.csv", "w") as fh:
                fh.write("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            load_database(bad)
        code = run(["eval", "--db", paths[0], "--query", bad,
                    "--out", str(tmp_path / "r.csv")])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert bad in captured.err
        assert "Traceback" not in captured.err


def test_eval_dimension_mismatch_is_2(tmp_path, capsys):
    paths = []
    for r, dim in enumerate((3, 4)):
        db = DescriptorDatabase(np.ones((3, dim)), np.zeros(3), np.zeros(3),
                                np.arange(3) + 10 * r)
        paths.append(str(tmp_path / f"run{r}.db"))
        save_database(paths[-1], db)
    code = run(["eval", "--db", paths[0], "--query", paths[1],
                "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "dimension 4" in captured.err and "dimension 3" in captured.err


def test_eval_run_against_itself_is_2(tmp_path, capsys):
    path = str(tmp_path / "run0.db")
    save_database(path, DescriptorDatabase(np.ones((3, 3)), np.zeros(3),
                                           np.zeros(3), np.arange(3)))
    code = run(["eval", "--db", path, "--query", path,
                "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "no usable query/database pairings" in captured.err
    assert not (tmp_path / "r.csv").exists()


def test_eval_non_finite_database_is_2(tmp_path, capsys):
    good = str(tmp_path / "run0.db")
    save_database(good, DescriptorDatabase(np.ones((3, 3)), np.zeros(3),
                                           np.zeros(3), np.arange(3)))
    bad = non_finite_database(tmp_path / "run1.db", dim=3, first_id=10)
    code = run(["eval", "--db", good, "--query", bad,
                "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert "id 13 is NaN or infinite" in captured.err


def test_eval_zero_width_database_is_2(tmp_path, capsys):
    # a header of dim 0: every distance would be 0 and every query a hit
    good = str(tmp_path / "run0.db")
    save_database(good, DescriptorDatabase(np.ones((3, 3)), np.zeros(3),
                                           np.zeros(3), np.arange(3)))
    bad = str(tmp_path / "run1.db")
    save_database(bad, DescriptorDatabase(np.ones((3, 1)), np.zeros(3),
                                          np.zeros(3), np.arange(3) + 10))
    with open(bad, "rb") as fh:
        magic = fh.read(len(b"SLDESC1\n"))
    with open(bad, "wb") as fh:
        fh.write(magic + struct.pack("<II", 0, 3))
    with pytest.raises(FormatError, match="zero columns"):
        load_database(bad)
    code = run(["eval", "--db", good, "--query", bad,
                "--out", str(tmp_path / "r.csv")])
    assert code == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ")
    assert "zero columns" in captured.err
    assert "Traceback" not in captured.err


class TestEvalPublishesWhole:
    """A second ``eval`` that cannot write its results leaves the first
    one's ``results.csv`` byte for byte, and no ``.tmp``."""

    @pytest.fixture
    def rerun(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = [str(tmp_path / f"run{r}.db") for r in range(2)]
        for r, path in enumerate(paths):
            save_database(path, DescriptorDatabase(
                rng.normal(size=(30, 4)), np.arange(30) * 10.0, np.zeros(30),
                np.arange(30) + 100 * r))
        out = tmp_path / "results.csv"
        argv = ["eval", "--db", paths[0], "--query", paths[1]]
        assert run(argv + ["--out", str(out), "--radius", "5"]) == cli.EXIT_OK
        want = tmp_path / "want.csv"
        assert run(argv + ["--out", str(want)]) == cli.EXIT_OK
        assert want.read_bytes() != out.read_bytes()
        return out, argv + ["--out", str(out)], len(want.read_bytes())

    @staticmethod
    def assert_kept(out, first):
        assert out.read_bytes() == first
        assert not list(out.parent.glob("*.tmp"))

    def test_file_size_limit(self, rerun):
        pytest.importorskip("resource")
        out, argv, size = rerun
        first = out.read_bytes()
        # the limit stops the write one byte short, with EFBIG, not a signal
        code = run_python(
            "import resource, signal; from sparseloc import cli; "
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN); "
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]; "
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({size - 1}, hard)); "
            f"print(cli.main({argv!r}))", {})
        assert code.split()[-1] == str(cli.EXIT_DATA)
        self.assert_kept(out, first)

    def test_refused_replace(self, rerun, monkeypatch, capsys):
        out, argv, _ = rerun
        first = out.read_bytes()
        capsys.readouterr()

        def refuse(src, dst):
            raise PermissionError(dst)
        monkeypatch.setattr(os, "replace", refuse)
        assert_data_error(argv, capsys)
        monkeypatch.undo()
        self.assert_kept(out, first)


def assert_data_error(argv, capsys):
    assert run(argv) == cli.EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    return captured.err


def index_of(pipeline, path, ids):
    """An index whose records, with the given ids, name the pipeline's clouds."""
    clouds = sorted(f for f in os.listdir(pipeline["root"]) if f.endswith(".bin"))
    write_index(str(path), [PointCloudRecord(
        rid, os.path.join(pipeline["root"], cloud), float(i), 0.0)
        for i, (rid, cloud) in enumerate(zip(ids, clouds))])
    return str(path)


class TestIdsOutsideInt64:
    """An id that int64 cannot hold exits 2, from a sidecar or an index."""

    @pytest.fixture
    def huge_id_db(self, tmp_path):
        path = str(tmp_path / "huge_id.db")
        save_database(path, DescriptorDatabase(
            np.ones((3, 3)), np.zeros(3), np.zeros(3), np.arange(3)))
        with open(path + ".geo.csv") as fh:
            text = fh.read()
        with open(path + ".geo.csv", "w") as fh:
            fh.write(text.replace("\n0,", f"\n{2 ** 63},", 1))
        return path

    def test_eval(self, tmp_path, huge_id_db, capsys):
        other = str(tmp_path / "other.db")
        save_database(other, DescriptorDatabase(
            np.ones((3, 3)), np.zeros(3), np.zeros(3), np.arange(3) + 10))
        err = assert_data_error(["eval", "--db", other, "--query", huge_id_db,
                                 "--out", str(tmp_path / "r.csv")], capsys)
        assert huge_id_db in err

    def test_query(self, pipeline, huge_id_db, capsys):
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        err = assert_data_error(["query", "--checkpoint", pipeline["ckpt"],
                                 "--db", huge_id_db, "--cloud", cloud], capsys)
        assert huge_id_db in err

    def test_embed_before_any_cloud(self, pipeline, tmp_path, capsys,
                                    monkeypatch):
        index = index_of(pipeline, tmp_path / "index.csv", [0, 2 ** 63])
        monkeypatch.setattr(data_io, "load_cloud", pytest.fail)
        err = assert_data_error(["embed", "--checkpoint", pipeline["ckpt"],
                                 "--index", index,
                                 "--out", str(tmp_path / "d.db")], capsys)
        assert "int64" in err and not (tmp_path / "d.db").exists()


class TestEmbedIndex:
    def test_builds_no_tuples_and_reads_each_cloud_once(self, pipeline,
                                                        tmp_path, capsys,
                                                        monkeypatch):
        def no_tuples(*args, **kw):
            raise AssertionError("embed built training tuples")

        read = []
        load_cloud = data_io.load_cloud
        monkeypatch.setattr(data_io, "build_tuples", no_tuples)
        monkeypatch.setattr(data_io, "load_cloud",
                            lambda path: read.append(path) or load_cloud(path))
        index = os.path.join(pipeline["root"], "run_0.csv")
        out = str(tmp_path / "d.db")
        assert run(["embed", "--checkpoint", pipeline["ckpt"],
                    "--index", index, "--out", out]) == cli.EXIT_OK
        db = load_database(out)
        assert db.ids.tolist() == [0, 3, 6]
        assert sorted(read) == sorted(
            os.path.join(pipeline["root"], rec.path)
            for rec in data_io.load_index(index))

    def test_duplicate_id_before_any_cloud(self, pipeline, tmp_path, capsys,
                                           monkeypatch):
        index = index_of(pipeline, tmp_path / "index.csv", [4, 1, 4])
        monkeypatch.setattr(data_io, "load_cloud", pytest.fail)
        err = assert_data_error(["embed", "--checkpoint", pipeline["ckpt"],
                                 "--index", index,
                                 "--out", str(tmp_path / "d.db")], capsys)
        assert "duplicate record ids" in err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"OMP_NUM_THREADS": "2"}, "None"),
])
def test_blas_runs_one_thread_unless_set(preset, want):
    # a fresh interpreter, so the package loads before numpy, as the
    # console script loads it
    got = run_python("import os, sparseloc; "
                     "print(os.environ.get('OPENBLAS_NUM_THREADS'))", preset)
    assert got.strip() == want


def run_python(code: str, preset: dict) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports the package
    from ``src/``, with ``preset`` as its only BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120).stdout


@pytest.mark.parametrize("preset, want", [({}, "1"),
                                          ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_numpy_imported_first_gets_the_package_default(preset, want):
    # numpy has loaded OpenBLAS before the package sets the variable, so
    # the package sets the count in effect itself, unless one is preset
    threads, variable = run_python(
        "import os, numpy, sparseloc; "
        "from sparseloc.layers import _blas_threads; "
        "print(_blas_threads(), os.environ.get('OPENBLAS_NUM_THREADS'))",
        preset).split()
    if threads == "None":
        pytest.skip("numpy's BLAS exports no known thread-count call")
    if want == "2" and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs at most one thread per CPU")
    assert threads == want
    # the variable is written only where it can still take effect
    assert variable == preset.get("OPENBLAS_NUM_THREADS", "None")


def test_suite_blas_reads_the_package_default():
    # conftest imports sparseloc before numpy, so the OpenBLAS that numpy
    # loaded read the thread count the package sets (or the environment's)
    assert any(var in os.environ for var in BLAS_VARS)
    want = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*"))
    if want is None or not libs:
        pytest.skip("no OPENBLAS_NUM_THREADS, or no scipy-openblas64 in numpy")
    lib = ctypes.CDLL(libs[0])
    assert lib.scipy_openblas_get_num_threads64_() == int(want)
