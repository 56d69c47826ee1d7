"""Command line behaviour: config resolution, exit codes, end-to-end flow."""

import os

import numpy as np
import pytest

from sparseloc import cli, load_database, write_cloud
from sparseloc.errors import FormatError


def run(argv):
    return cli.main(argv)


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

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("epochs = 5\nmargin = 0.3\n")
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--config", str(path),
                                  "--epochs", "7", "--dataset", "x",
                                  "--out", "y"])
        tcfg, mcfg, _, _ = cli.resolve_configs(args)
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

    def test_corrupt_checkpoint_is_2(self, tmp_path, synth_root, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"junk")
        code = run(["embed", "--checkpoint", str(bad),
                    "--index", os.path.join(synth_root, "index.csv"),
                    "--out", str(tmp_path / "d.db")])
        assert code == cli.EXIT_DATA


class TestGradcheckCommand:
    def test_passes_and_reports(self, capsys):
        assert run(["gradcheck", "--seed", "0"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 9
        assert all(l.startswith("PASS") for l in lines)

    def test_corrupt_hook_fails(self, capsys):
        assert run(["gradcheck", "--seed", "0", "--corrupt"]) == cli.EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


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
    return {"root": root, "cfg": str(cfg), "out": out,
            "ckpt": os.path.join(out, "epoch_2.ckpt"), "base": base}


class TestPipeline:
    def test_train_artifacts(self, pipeline):
        assert os.path.exists(pipeline["ckpt"])
        assert os.path.exists(os.path.join(pipeline["out"], "metrics.csv"))

    def test_embed_writes_database(self, pipeline, capsys):
        db_path = str(pipeline["base"] / "run0.db")
        code = run(["embed", "--config", pipeline["cfg"],
                    "--checkpoint", pipeline["ckpt"],
                    "--index", os.path.join(pipeline["root"], "run_0.csv"),
                    "--out", db_path])
        assert code == cli.EXIT_OK
        db = load_database(db_path)
        assert len(db) == 3 and db.dim == 3
        assert "clouds/s" in capsys.readouterr().out

    def test_embed_deterministic(self, pipeline, capsys):
        paths = [str(pipeline["base"] / f"det{i}.db") for i in range(2)]
        for p in paths:
            run(["embed", "--config", pipeline["cfg"],
                 "--checkpoint", pipeline["ckpt"],
                 "--index", os.path.join(pipeline["root"], "run_1.csv"),
                 "--out", p])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_eval_reports_metrics(self, pipeline, capsys):
        dbs = []
        for r in range(2):
            p = str(pipeline["base"] / f"eval{r}.db")
            run(["embed", "--config", pipeline["cfg"],
                 "--checkpoint", pipeline["ckpt"],
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
        run(["embed", "--config", pipeline["cfg"],
             "--checkpoint", pipeline["ckpt"],
             "--index", os.path.join(pipeline["root"], "index.csv"),
             "--out", db_path])
        capsys.readouterr()
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--config", pipeline["cfg"],
                    "--checkpoint", pipeline["ckpt"], "--db", db_path,
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
        code = run(["query", "--config", pipeline["cfg"],
                    "--checkpoint", pipeline["ckpt"], "--db", db_path,
                    "--cloud", cloud, "-k", "99"])
        assert code == cli.EXIT_OK
        assert "clamped" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_query_k_below_one_is_usage_error(self, pipeline, capsys, k):
        cloud = os.path.join(pipeline["root"], "place000_rev00.bin")
        code = run(["query", "--config", pipeline["cfg"],
                    "--checkpoint", pipeline["ckpt"],
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
        code = run(["query", "--config", pipeline["cfg"], "--checkpoint", bad,
                    "--db", str(pipeline["base"] / "q.db"), "--cloud", cloud])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "checkpoint" in captured.err
        assert "Traceback" not in captured.err


class TestQueryCloudErrors:
    @pytest.fixture
    def query(self, pipeline, tmp_path):
        db_path = str(pipeline["base"] / "qe.db")
        if not os.path.exists(db_path):
            assert run(["embed", "--config", pipeline["cfg"],
                        "--checkpoint", pipeline["ckpt"],
                        "--index", os.path.join(pipeline["root"], "run_0.csv"),
                        "--out", db_path]) == cli.EXIT_OK

        def query_points(points):
            cloud = str(tmp_path / "scan.bin")
            write_cloud(cloud, np.asarray(points, dtype=float))
            return cloud, run(["query", "--config", pipeline["cfg"],
                               "--checkpoint", pipeline["ckpt"],
                               "--db", db_path, "--cloud", cloud, "-k", "2"])

        return query_points

    @pytest.mark.parametrize("bad", [np.nan, 5000.0])
    def test_unusable_coordinate_is_2(self, query, capsys, bad):
        # NaN fails PointCloud validation; 5000 overflows the coordinate key
        capsys.readouterr()
        _, code = query([[0.1, 0.2, 0.3], [bad, 0.0, 0.0]])
        assert code == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_out_of_range_cloud_warns_once(self, query, capsys, recwarn):
        cloud, code = query([[0.1, 0.2, 0.3], [1.5, 0.0, 0.0]])
        assert code == cli.EXIT_OK
        assert len(recwarn) == 1
        assert cloud in str(recwarn[0].message)
