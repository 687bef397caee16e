import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import polypack
from polypack.cli import build_parser, run
from polypack.generators import GenConfig, gen_jigsaw
from polypack.model import save_instance, save_solution, write_solution, Solution
from polypack.render import RenderOfInvalidSolution, RenderSpec, render
from polypack.valuation import ValueKind

from test_model import UNDECODABLE


@pytest.fixture()
def workdir(tmp_path, capsys):
    return tmp_path


def run_ok(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    assert code == 0, f"exit {code}; stderr: {out.err}"
    return out.out


def test_generate_verify_empty_solution(workdir, capsys):
    inst_path = workdir / "i.json"
    run_ok(capsys, "generate", "atris", "--seed", "1", "--n", "50",
           "-o", str(inst_path))
    inst = json.loads(inst_path.read_text())
    assert inst["type"] == "cgshop2024_instance"

    empty = workdir / "empty.json"
    empty.write_bytes(write_solution(Solution(inst["name"])))
    out = run_ok(capsys, "verify", str(inst_path), str(empty))
    report = json.loads(out)
    assert report["valid"] and report["packed_value"] == 0


def test_generate_solve_verify_pipeline(workdir, capsys):
    inst_path = workdir / "i.json"
    sol_path = workdir / "s.json"
    run_ok(capsys, "generate", "random", "--seed", "3", "--n", "12",
           "-o", str(inst_path))
    summary = json.loads(run_ok(capsys, "solve", str(inst_path), "--budget", "10",
                                "--seed", "1", "-o", str(sol_path), "--quiet"))
    assert summary["packed_value"] > 0
    out = run_ok(capsys, "verify", str(inst_path), str(sol_path))
    assert json.loads(out)["valid"]


def test_verify_detects_overlap(workdir, capsys):
    inst_path = workdir / "i.json"
    run_ok(capsys, "generate", "atris", "--seed", "2", "--n", "20",
           "-o", str(inst_path))
    from polypack.model import load_instance, Placement
    inst = load_instance(inst_path)
    bad = Solution(inst.name, (Placement(0, (0, 0)), Placement(1, (0, 0))))
    bad_path = workdir / "bad.json"
    save_solution(bad, bad_path)
    code = run(["verify", str(inst_path), str(bad_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["violation"]["kind"] in ("Overlap", "NotContained")


def test_verify_rejects_duplicate_file(workdir, capsys):
    inst_path = workdir / "i.json"
    run_ok(capsys, "generate", "atris", "--seed", "2", "--n", "10",
           "-o", str(inst_path))
    name = json.loads(inst_path.read_text())["name"]
    dup = {"type": "cgshop2024_solution", "instance_name": name,
           "item_indices": [0, 0], "x_translations": [0, 0],
           "y_translations": [0, 0]}
    bad_path = workdir / "dup.json"
    bad_path.write_text(json.dumps(dup))
    code = run(["verify", str(inst_path), str(bad_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["violation"]["kind"] == "InvalidFile"


@pytest.mark.parametrize("data", UNDECODABLE.values(), ids=UNDECODABLE.keys())
def test_verify_reports_undecodable_file_as_invalid(workdir, capsys, data):
    inst_path = workdir / "i.json"
    run_ok(capsys, "generate", "atris", "--seed", "2", "--n", "10",
           "-o", str(inst_path))
    bad_path = workdir / "bad.json"
    bad_path.write_bytes(data)
    code = run(["verify", str(inst_path), str(bad_path)])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    assert json.loads(captured.out)["violation"]["kind"] == "InvalidFile"


@pytest.mark.parametrize("bad_file, field, value, detail", [
    ("instance", "x", 0.5, "items[0].x entry must be an integer, got 0.5"),
    ("instance", "x", 2**50 + 1,
     "items[0].x entry 1125899906842625 exceeds coordinate bound 2^50"),
    ("solution", "x_translations", True, "x_translations[0] must be an integer, got True"),
], ids=["float-coordinate", "coordinate-past-bound", "bool-translation"])
def test_verify_reports_invalid_value_as_invalid_file(workdir, capsys, bad_file,
                                                      field, value, detail):
    inst_path = workdir / "i.json"
    run_ok(capsys, "generate", "atris", "--seed", "2", "--n", "10",
           "-o", str(inst_path))
    inst = json.loads(inst_path.read_text())
    sol = {"type": "cgshop2024_solution", "instance_name": inst["name"],
           "item_indices": [0], "x_translations": [0], "y_translations": [0]}
    if bad_file == "instance":
        inst["items"][0][field][0] = value
    else:
        sol[field][0] = value
    inst_path.write_text(json.dumps(inst))
    sol_path = workdir / "s.json"
    sol_path.write_text(json.dumps(sol))
    code = run(["verify", str(inst_path), str(sol_path)])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    report = json.loads(captured.out)
    assert report["violation"] == {"kind": "InvalidFile", "detail": detail}
    assert report["instance_name"] == (None if bad_file == "instance" else inst["name"])


def test_usage_errors(workdir, capsys):
    assert run(["generate", "nosuchfamily"]) == 2
    capsys.readouterr()
    assert run(["verify", str(workdir / "missing.json"), "x"]) == 2
    capsys.readouterr()


# (subcommand, shared flag, whether the subcommand reads it)
COMMON_FLAG_USE = [
    ("value", "--seed", True), ("value", "--quiet", False),
    ("verify", "--seed", False), ("verify", "--quiet", False),
    ("score", "--seed", False), ("score", "--quiet", True),
    ("render", "--seed", False), ("render", "--quiet", False),
]


@pytest.mark.parametrize("command, flag, reads", COMMON_FLAG_USE)
def test_shared_flags_only_where_read(workdir, capsys, command, flag, reads):
    inst_dir = workdir / "instances"
    inst_dir.mkdir()
    inst_path = inst_dir / "i.json"
    run_ok(capsys, "generate", "random", "--seed", "1", "--n", "5", "-o", str(inst_path))
    name = json.loads(inst_path.read_text())["name"]
    sol_path = workdir / "s.json"
    sol_path.write_bytes(write_solution(Solution(name)))
    records = workdir / "records.csv"
    records.write_text(f"alpha,{name},1,2024-01-01T00:00:00\n")
    argv = {
        "value": ["value", str(inst_path), "-o", str(workdir / "v.json")],
        "verify": ["verify", str(inst_path), str(sol_path)],
        "score": ["score", "--instances", str(inst_dir), "--records", str(records)],
        "render": ["render", str(inst_path), "-o", str(workdir / "p.svg")],
    }[command]
    run_ok(capsys, *argv)
    extra = [flag, "1"] if flag == "--seed" else [flag]
    if reads:
        run_ok(capsys, *argv, *extra)
    else:
        assert run(argv + extra) == 2
        assert "unrecognized arguments: " + " ".join(extra) in capsys.readouterr().err


def test_score_subcommand(workdir, capsys):
    inst_dir = workdir / "instances"
    inst_dir.mkdir()
    names = []
    for seed in range(3):
        run_ok(capsys, "generate", "random", "--seed", str(seed), "--n", "5",
               "-o", str(inst_dir / f"i{seed}.json"))
        names.append(json.loads((inst_dir / f"i{seed}.json").read_text())["name"])
    rows = ["team,instance,value,timestamp"]
    for k, n in enumerate(names):
        rows.append(f"alpha,{n},100,2023-10-01T0{k + 1}:00:00")
        rows.append(f"beta,{n},50,2023-10-01T0{k + 1}:30:00")
    records = workdir / "records.csv"
    records.write_text("\n".join(rows) + "\n")
    out = run_ok(capsys, "score", "--instances", str(inst_dir),
                 "--records", str(records))
    board = json.loads(out)
    assert board["standings"][0]["team"] == "alpha"
    assert board["standings"][0]["total_display"] == "3.00"
    assert board["standings"][1]["total_display"] == "0.75"


def test_score_mixed_utc_offsets_exits_2(workdir, capsys):
    inst_dir = workdir / "instances"
    inst_dir.mkdir()
    run_ok(capsys, "generate", "random", "--seed", "1", "--n", "5",
           "-o", str(inst_dir / "i.json"))
    name = json.loads((inst_dir / "i.json").read_text())["name"]
    records = workdir / "records.csv"
    records.write_text(f"t1,{name},5,2024-01-01T00:00:00\n"
                       f"t1,{name},7,2024-01-02T00:00:00+00:00\n")
    assert run(["score", "--instances", str(inst_dir), "--records", str(records)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "UTC offset" in err
    assert "internal error" not in err


def test_select_subcommand(workdir, capsys):
    cand = workdir / "cands"
    cand.mkdir()
    for seed in range(8):
        fam = "random" if seed % 2 else "atris"
        run_ok(capsys, "generate", fam, "--seed", str(seed), "--n", "6",
               "-o", str(cand / f"c{seed}.json"))
    out = run_ok(capsys, "select", "--candidates", str(cand), "--k", "3",
                 "--seed", "1", "--features-csv", str(workdir / "f.csv"))
    sel = json.loads(out)
    assert len(sel["selected"]) == 3
    assert (workdir / "f.csv").read_text().startswith("name,")


def run_python(script, *args):
    src = Path(polypack.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_leaves_numpy_out():
    done = run_python("import sys, polypack, polypack.cli; "
                      "sys.exit('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr


def test_select_runs_without_numpy(workdir, capsys):
    cand = workdir / "cands"
    cand.mkdir()
    for seed in range(6):
        fam = "random" if seed % 2 else "atris"
        run_ok(capsys, "generate", fam, "--seed", str(seed), "--n", "6",
               "-o", str(cand / f"c{seed}.json"))
    # a None entry in sys.modules makes every `import numpy` fail
    done = run_python("import sys; sys.modules['numpy'] = None; "
                      "from polypack.cli import run; sys.exit(run(sys.argv[1:]))",
                      "select", "--candidates", str(cand), "--k", "2", "--seed", "1")
    assert done.returncode == 0, done.stderr
    assert len(json.loads(done.stdout)["selected"]) == 2


def test_solve_moves_flag(workdir, capsys):
    # the solver has one search configuration: no moves or ordering flags
    inst_path = workdir / "i.json"
    sol_path = workdir / "s.json"
    run_ok(capsys, "generate", "random", "--seed", "3", "--n", "12",
           "-o", str(inst_path))
    summary = json.loads(run_ok(capsys, "solve", str(inst_path), "--budget", "10",
                                "--seed", "1", "-o", str(sol_path), "--quiet"))
    assert summary["packed_value"] > 0
    report = json.loads(run_ok(capsys, "verify", str(inst_path), str(sol_path)))
    assert report["valid"]
    assert report["packed_value"] == summary["packed_value"]
    for flag, value in (("--moves", "relocate"), ("--moves", "insert"),
                        ("--ordering", "value")):
        assert run(["solve", str(inst_path), flag, value, "--quiet"]) == 2
        capsys.readouterr()


def test_solve_shelf_flag(workdir, capsys):
    inst_path = workdir / "i.json"
    sol_path = workdir / "s.json"
    run_ok(capsys, "generate", "atris", "--seed", "2", "--n", "20",
           "-o", str(inst_path))
    summary = json.loads(run_ok(capsys, "solve", str(inst_path), "--shelf",
                                "-o", str(sol_path), "--quiet"))
    assert summary["n_placed"] > 0
    report = json.loads(run_ok(capsys, "verify", str(inst_path), str(sol_path)))
    assert report["valid"]
    assert report["packed_value"] == summary["packed_value"]
    # random containers are not rectangles
    run_ok(capsys, "generate", "random", "--seed", "3", "--n", "6",
           "-o", str(inst_path))
    assert run(["solve", str(inst_path), "--shelf", "--quiet"]) == 2
    assert "rectangular" in capsys.readouterr().err


def test_solve_nan_budget_exits_2(workdir, capsys):
    inst_path = workdir / "i.json"
    run_ok(capsys, "generate", "random", "--seed", "3", "--n", "6",
           "-o", str(inst_path))
    assert run(["solve", str(inst_path), "--budget", "nan", "--quiet"]) == 2
    assert "time_budget" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["atris", "satris"])
@pytest.mark.parametrize("flag, value", [
    ("--value-kind", "uniform"), ("--value-noise", "5"), ("--value-scale", "100"),
])
def test_tetro_value_flags_exit_2(workdir, capsys, family, flag, value):
    # atris and satris set their own values, so a value setting cannot apply
    assert run(["generate", family, "--seed", "2", "--n", "10", flag, value]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag[2:].replace("-", "_") in err


# a valid value for each family-specific generate flag
FLAG_VALUES = {"--n": "5", "--t": "3/2", "--convexity-ratio": "1/2", "--lines": "3",
               "--copies": "2", "--perturb": "0", "--pixel-range": "4:6",
               "--shear-prob": "1/2"}
FLAGS_READ = {
    "random": ["--n", "--t", "--convexity-ratio"],
    "jigsaw": ["--lines", "--copies", "--perturb"],
    "atris": ["--n", "--t", "--pixel-range"],
    "satris": ["--n", "--t", "--pixel-range", "--shear-prob"],
}


@pytest.mark.parametrize("family, flag", [
    (family, flag) for family, read in FLAGS_READ.items()
    for flag in FLAG_VALUES if flag not in read])
def test_generate_rejects_flags_the_family_does_not_read(workdir, capsys, family, flag):
    out = workdir / "i.json"
    assert run(["generate", family, "--seed", "1", flag, FLAG_VALUES[flag],
                "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("family", sorted(FLAGS_READ))
def test_generate_accepts_every_flag_it_reads(workdir, capsys, family):
    argv = ["generate", family, "--seed", "1", "-o", str(workdir / "i.json")]
    for flag in FLAGS_READ[family]:
        argv += [flag, FLAG_VALUES[flag]]
    if family != "random":
        argv += ["--container", "60x60"]
    if family in ("random", "jigsaw"):
        argv += ["--value-kind", "hull", "--value-noise", "1/10", "--value-scale", "2"]
    assert json.loads(run_ok(capsys, *argv))["n_items"] > 0


def test_value_kind_help_choices_parse(workdir, capsys):
    assert run(["generate", "--help"]) == 0
    listed = re.search(r"--value-kind \{([^}]*)\}", capsys.readouterr().out)
    choices = listed.group(1).split(",")
    assert sorted(choices) == sorted(k.value for k in ValueKind)
    totals = set()
    for choice in choices:
        out = json.loads(run_ok(capsys, "generate", "random", "--seed", "1", "--n", "5",
                                "--value-kind", choice, "-o", str(workdir / "i.json")))
        totals.add(out["total_value"])
    assert len(totals) > 1


def test_readme_quick_start_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    commands = [line for line in section.splitlines() if line.startswith("polypack ")]
    assert len(commands) >= 7
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def test_jobs_flag_only_on_select(workdir, capsys):
    cand = workdir / "cands"
    cand.mkdir()
    for seed in range(4):
        run_ok(capsys, "generate", "random", "--seed", str(seed), "--n", "5",
               "-o", str(cand / f"c{seed}.json"))
    assert run(["solve", str(cand / "c0.json"), "--jobs", "2"]) == 2
    capsys.readouterr()
    argv = ["select", "--candidates", str(cand), "--k", "2", "--seed", "1"]
    sel = json.loads(run_ok(capsys, *argv, "--jobs", "2"))
    assert len(sel["selected"]) == 2
    assert sel == json.loads(run_ok(capsys, *argv))


@pytest.mark.parametrize("flag, value, named", [
    ("--jobs", "0", "--jobs"), ("--jobs", "-3", "--jobs"),
    ("--restarts", "0", "restarts"), ("--restarts", "-1", "restarts"),
    ("--pca-components", "-1", "pca_components")])
def test_select_rejects_unusable_counts(workdir, capsys, flag, value, named):
    # these used to run serially, clamp to one restart, or mean "auto"
    cand = workdir / "cands"
    cand.mkdir()
    for seed in range(3):
        run_ok(capsys, "generate", "random", "--seed", str(seed), "--n", "5",
               "-o", str(cand / f"c{seed}.json"))
    assert run(["select", "--candidates", str(cand), "--k", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert "internal error" not in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_select_names_an_instance_without_items(workdir, capsys, jobs):
    # the parser accepts "items": [], but no metric is defined without items
    cand = workdir / "cands"
    cand.mkdir()
    for seed in range(2):
        run_ok(capsys, "generate", "random", "--seed", str(seed), "--n", "5",
               "-o", str(cand / f"c{seed}.json"))
    bare = json.loads((cand / "c0.json").read_text())
    bare.update(name="bare", items=[])
    (cand / "c2.json").write_text(json.dumps(bare))
    assert run(["select", "--candidates", str(cand), "--k", "1", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "'bare' has no items" in err
    assert "internal error" not in err


def test_select_starts_no_more_workers_than_files(workdir, capsys, monkeypatch):
    import concurrent.futures
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cand = workdir / "cands"
    cand.mkdir()
    for seed in range(2):
        run_ok(capsys, "generate", "random", "--seed", str(seed), "--n", "5",
               "-o", str(cand / f"c{seed}.json"))
    argv = ["select", "--candidates", str(cand), "--k", "1", "--seed", "1"]
    serial = run_ok(capsys, *argv)
    assert started == []
    assert run_ok(capsys, *argv, "--jobs", "100000") == serial
    assert started == [2]


def test_generate_config_file(workdir, capsys):
    cfg = workdir / "gen.cfg"
    cfg.write_text("seed = 9\nn_target = 7\nconvexity_ratio = 1/1\n")
    out = json.loads(run_ok(capsys, "generate", "random", "--config", str(cfg),
                            "-o", str(workdir / "i.json")))
    assert out["n_items"] == 7


@pytest.mark.parametrize("argv, config, named", [
    (["generate", "random", "--t", "1/0"], None, "--t"),
    (["value", "i.json", "--noise", "1/0"], None, "--noise"),
    (["generate", "random"], "seed = 1\nbogus = 3\n", "bogus"),
    (["generate", "random"], "value_noise = 1/0\n", "1/0"),
    (["generate", "jigsaw"], "jigsaw_merge_fraction = 3/2\n", "jigsaw_merge_fraction"),
    # {dir} is the test's directory, where the config file is gen.cfg
    (["generate", "random", "--n", "5", "--config", "{dir}"], None, "Is a directory"),
    (["generate", "random", "--n", "5", "-o", "{dir}"], None, "Is a directory"),
    (["verify", "{dir}", "{dir}"], None, "Is a directory"),
    (["generate", "random", "-o", "{dir}/gen.cfg/i.json"], "seed = 1\n",
     "Not a directory"),
], ids=["zero-denominator-flag", "zero-denominator-value-flag",
        "unknown-config-key", "zero-denominator-config", "merge-fraction-above-1",
        "config-is-directory", "output-is-directory", "verify-directories",
        "output-under-file"])
def test_bad_input_exits_2(workdir, capsys, argv, config, named):
    # PermissionError is caught with these but not tested: root reads anything
    argv = [a.format(dir=workdir) for a in argv]
    if config is not None:
        path = workdir / "gen.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert "internal error" not in err


@pytest.mark.parametrize("family, container", [("random", "50x50"), ("atris", "0x40"),
                                               ("jigsaw", "600x0"), ("random", "0x0"),
                                               ("jigsaw", "0x0"), ("atris", "0x0"),
                                               ("satris", "0x0")])
def test_unusable_container_exits_2(workdir, capsys, family, container):
    # random draws its own container; a zero side has no default of its own,
    # and only a config-file 0 (both sides) means the family default
    out = workdir / "i.json"
    assert run(["generate", family, "--seed", "1", "--n", "5",
                "--container", container, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "container" in err
    assert "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("container", ["10x20x30", "10x", "x20", "10", "tenx20", "10.5x20"])
def test_malformed_container_names_the_flag(workdir, capsys, container):
    out = workdir / "i.json"
    assert run(["generate", "atris", "--seed", "1", "--n", "5",
                "--container", container, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--container" in err and "WxH" in err
    assert "unpack" not in err and "int()" not in err
    assert "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, form", [
    ("--pixel-range", "3", "lo:hi"),
    ("--pixel-range", "1:2:3", "lo:hi"),
    ("--pixel-range", "a:b", "lo:hi"),
    ("--pixel-range", "", "lo:hi"),
    ("--shear-prob", "x", "fraction"),
    ("--shear-prob", "1/2/3", "fraction"),
])
def test_malformed_range_or_fraction_names_the_flag(workdir, capsys, flag, value, form):
    out = workdir / "i.json"
    assert run(["generate", "satris", "--seed", "1", "--n", "5", flag, value,
                "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and flag in err and form in err
    assert "_parse_range" not in err and "_fraction" not in err
    assert "unpack" not in err and "internal error" not in err
    assert not out.exists()


@pytest.mark.parametrize("line, form", [
    ("pixel_size_range = 3", "lo:hi"),
    ("pixel_size_range = 1:2:3", "lo:hi"),
    ("pixel_size_range = 4:x", "lo:hi"),
    ("shear_probability = x", "fraction"),
    ("area_multiple_t = 1/0", "zero denominator"),
    ("n_target = many", "many"),
])
def test_malformed_config_value_names_the_key(workdir, capsys, line, form):
    cfg = workdir / "gen.cfg"
    cfg.write_text(line + "\n")
    out = workdir / "i.json"
    assert run(["generate", "satris", "--seed", "1", "--config", str(cfg),
                "-o", str(out)]) == 2
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert err.startswith(f"error: {key} in {cfg}: ") and form in err
    assert "unpack" not in err and "internal error" not in err
    assert not out.exists()


def test_zero_container_config_keeps_family_default(workdir, capsys):
    cfg = workdir / "gen.cfg"
    cfg.write_text("container_width = 0\ncontainer_height = 0\n")
    for family in ("jigsaw", "atris"):
        default = run_ok(capsys, "generate", family, "--seed", "1")
        assert run_ok(capsys, "generate", family, "--seed", "1",
                      "--config", str(cfg)) == default


def test_stdout_is_instance_json_without_out(workdir, capsys):
    out = run_ok(capsys, "generate", "atris", "--seed", "4", "--n", "8", "--quiet")
    obj = json.loads(out)
    assert obj["type"] == "cgshop2024_instance"


class TestRender:
    def make_jigsaw(self):
        return gen_jigsaw(GenConfig(seed=5, jigsaw_line_count=5,
                                    jigsaw_perturb_amplitude=0))

    def identity(self, inst):
        from polypack.model import Placement
        ident = inst.meta["identity"]
        return Solution(inst.name, tuple(
            Placement(i, (tx, ty)) for i, tx, ty in
            zip(ident["item_indices"], ident["x_translations"],
                ident["y_translations"])))

    def test_instance_only_svg_well_formed(self):
        svg = render(RenderSpec(self.make_jigsaw()))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_jigsaw_identity_golden(self):
        inst = self.make_jigsaw()
        svg = render(RenderSpec(inst, self.identity(inst), scale=1.0))
        golden = Path(__file__).parent / "golden" / "jigsaw_identity.svg"
        assert svg == golden.read_bytes()

    def test_deterministic_bytes(self):
        inst = self.make_jigsaw()
        a = render(RenderSpec(inst, self.identity(inst)))
        b = render(RenderSpec(inst, self.identity(inst)))
        assert a == b

    def test_refuses_invalid_solution(self):
        from polypack.model import Placement
        inst = self.make_jigsaw()
        bad = Solution(inst.name, (Placement(0, (0, 0)), Placement(0, (0, 0))))
        with pytest.raises(RenderOfInvalidSolution):
            render(RenderSpec(inst, bad))
        assert render(RenderSpec(inst, bad, force=True)).startswith(b"<svg")

    def test_tray_renders_unplaced(self):
        inst = self.make_jigsaw()
        svg = render(RenderSpec(inst, Solution(inst.name), tray=True))
        root = ET.fromstring(svg)
        polys = root.findall(".//{http://www.w3.org/2000/svg}polygon")
        assert len(polys) == 1 + inst.n_items  # container + every item in tray

    def test_render_cli(self, workdir, capsys):
        inst = self.make_jigsaw()
        inst_path = workdir / "i.json"
        save_instance(inst, inst_path)
        out_path = workdir / "i.svg"
        summary = json.loads(run_ok(capsys, "render", str(inst_path),
                                    "-o", str(out_path)))
        assert summary["bytes"] > 0
        ET.fromstring(out_path.read_bytes())

    @pytest.mark.parametrize("scale", ["0", "-1", "inf", "nan"])
    def test_rejects_scale_not_finite_positive(self, workdir, capsys, scale):
        inst = self.make_jigsaw()
        with pytest.raises(ValueError, match="scale"):
            RenderSpec(inst, scale=float(scale))
        inst_path = workdir / "i.json"
        save_instance(inst, inst_path)
        assert run(["render", str(inst_path), "--scale", scale,
                    "-o", str(workdir / "i.svg")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "scale" in err
        assert not (workdir / "i.svg").exists()

    def test_rejects_scale_that_overflows(self, workdir, capsys):
        inst_path = workdir / "i.json"
        save_instance(self.make_jigsaw(), inst_path)
        assert run(["render", str(inst_path), "--scale", "1e308"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "overflow" in err
