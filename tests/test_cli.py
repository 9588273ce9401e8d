"""End-to-end checks of the command-line front end.

Core claims:
- Every subcommand prints a single-line JSON report on stdout carrying the
  command name, a SHA-256 digest of its input files, the result fields, and
  wall_time_ms, then exits 0.
- Reports are byte-identical across repeated runs and across --threads
  settings once the wall_time_ms field is masked.
- All validation failures exit 2 with the error name on stderr and nothing
  on stdout, malformed input files, array-valued atom weights, non-string
  kernel kinds, non-finite --at coordinates and seeds outside [0, 2^64)
  included; argparse usage errors also exit 2.
- Atom weights near the top of the double range work: trig weights of
  1e200 and polynomial weights of 4e153, whose sigma^4 overflows, give the
  unit-weight intensity and measure, and weights of 1e308, which overflow
  the moments themselves, give the unit-weight report bit for bit with
  nothing on stderr.
- A points file must hold an (N, d) matrix: a flat or a 3-level list exits
  2 with DimensionMismatch.  A planar sudakov report (hull path) is
  byte-identical at --threads 1 and 2.
- stdout only ever carries valid JSON: a z-score without a standard error
  is null, and a report holding NaN or infinity exits 1 as an InternalError.
- Deterministic subcommands reproduce known closed forms exactly: the mixed
  discriminant of diag(1,2), diag(3,4) is 5, the planar oracle returns the
  half-perimeter of the (2,1)-ellipse, and the stationary-field intensity
  takes the exact single-sample path.
- Every subcommand of the command table prints --help and exits 0, and its
  least argv parses to the documented defaults.
- The fieldzeros alias entry point routes into the fieldzeros subtree.
- `fieldzeros simulate` solves its realization once per grid.
- Every name the benchmark's probes trace resolves to a callable of its
  layer module and keeps the count parameter the trace binds.
- `fieldzeros measure` and `fieldzeros simulate` of a polynomial field
  whose variance vanishes inside the region exit 2 with DegenerateVariance,
  even where no quadrature node or grid node falls on the vanishing point;
  the floor is relative to the largest weight, so weights of 2^-44 give the
  unit-weight intensity and measure.
- One process builds the parser once, on the first call of main and not at
  import, and reusing it changes no exit code, report or message.
"""

import ast
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from mixvol import (
    CHUNK,
    FieldSpec,
    Region,
    RngStream,
    cli,
    count_zeros_1d,
    expected_zero_measure,
    fields,
    simulate_realization,
)
from mixvol.fields import field_from_json

WALL_TIME = re.compile(r'"wall_time_ms": \d+')

DISK = {"dim": 2, "sigma": [[1.0, 0.0], [0.0, 1.0]]}
ELLIPSE_41 = {"dim": 2, "sigma": [[4.0, 0.0], [0.0, 1.0]]}
HALF_PERIMETER_21 = 4.844224110273838
RICE_INTENSITY = math.sqrt(5.0) / math.pi

RICE = {
    "dim": 1,
    "components": [
        {"kind": "trig", "atoms": [{"w": 1.0, "omega": [1.0]}, {"w": 1.0, "omega": [3.0]}]}
    ],
}
# two independent components, each with 8 unit frequencies on a circle
WAVE_PAIR = {
    "dim": 2,
    "components": [
        {
            "kind": "trig",
            "atoms": [
                {"w": 0.125, "omega": [math.cos(m * math.pi / 4), math.sin(m * math.pi / 4)]}
                for m in range(8)
            ],
        }
    ]
    * 2,
}
KAC = {
    "dim": 1,
    "components": [
        {
            "kind": "polynomial",
            "atoms": [
                {"w": 1.0, "degree": 0},
                {"w": 1.0, "degree": 1},
                {"w": 1.0, "degree": 2},
            ],
        }
    ],
}
# sigma^2 = t^2 + t^6 vanishes at t = 0 only
ODD_POLY = {
    "dim": 1,
    "components": [
        {"kind": "polynomial", "atoms": [{"w": 1, "degree": 1}, {"w": 1, "degree": 3}]}
    ],
}
PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


# -- Helpers ----------------------------------------------------------------


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "mixvol", *[str(a) for a in argv]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, f"argv={argv}\nstderr={proc.stderr}"
    return proc


def report_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1, proc.stdout
    return json.loads(lines[0])


def masked(proc):
    return WALL_TIME.sub('"wall_time_ms": 0', proc.stdout)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")

    def dump(name, obj):
        path = root / name
        path.write_text(json.dumps(obj))
        return path

    def text(name, body):
        path = root / name
        path.write_text(body)
        return path

    return {
        "two_balls": dump("two_balls.json", [DISK, DISK]),
        "disk": dump("disk.json", DISK),
        "ellipse_pair": dump("ellipse_pair.json", [ELLIPSE_41, DISK]),
        "mats": dump(
            "mats.json",
            {"matrices": [[[1.0, 0.0], [0.0, 2.0]], [[3.0, 0.0], [0.0, 4.0]]]},
        ),
        "segment": dump("segment.json", {"points": [[-1.0, 0.0], [1.0, 0.0]]}),
        "rice": dump("rice.json", RICE),
        "r100": dump("r100.json", {"lower": [0.0], "upper": [100.0]}),
        "kac": dump("kac.json", KAC),
        "r55": dump("r55.json", {"lower": [-5.0], "upper": [5.0]}),
        "notpd": dump("notpd.json", {"dim": 2, "sigma": [[1.0, 2.0], [2.0, 1.0]]}),
        "garbage": dump("garbage.json", "not a matrix file"),
        "wave_pair": dump("wave_pair.json", WAVE_PAIR),
        "box": dump("box.json", {"lower": [0.0, 0.0], "upper": [6.0, 6.0]}),
        "truncated": text("truncated.json", json.dumps([ELLIPSE_41])[:30]),
        "string_sigma": dump(
            "string_sigma.json", [{"dim": 2, "sigma": [[4.0, "x"], [0.0, 1.0]]}, DISK]
        ),
        "numeric_string_sigma": dump(
            "numeric_string_sigma.json", [{"dim": 2, "sigma": [["4", "0"], ["0", "1e0"]]}, DISK]
        ),
        "ragged": dump("ragged.json", {"points": [[1.0, 0.0], [0.0]]}),
        "flat_points": dump("flat_points.json", {"points": [1.0, -2.0, 3.0]}),
        "nested_points": dump("nested_points.json", {"points": [[[1, 2]], [[3, 4]]]}),
        "polygon": dump("polygon.json", {"points": [
            [math.cos(a) + 0.3, 2.0 * math.sin(a)] for a in np.linspace(0.0, 6.0, 97)]}),
        # Python's json reads 1e400 as inf and NaN as nan
        "huge_sigma": text("huge_sigma.json", '{"dim": 2, "sigma": [[1e400, 0.0], [0.0, 1.0]]}'),
        "huge_mats": text("huge_mats.json", '[[[1e400, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]'),
        "nan_mats": text("nan_mats.json", '[[[NaN, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]'),
        "huge_points": dump(
            "huge_points.json", {"points": [[1e155, 0.0], [0.0, 1e155], [-1e155, -1e155]]}
        ),
        "inf_points": text("inf_points.json", '{"points": [[1e400, 0.0], [0.0, 1.0]]}'),
        "bool_dim_field": dump("bool_dim_field.json", {**RICE, "dim": True}),
        "bool_dim_disk": dump("bool_dim_disk.json", {"dim": True, "sigma": [[1.0]]}),
        "float_dim_disk": dump("float_dim_disk.json", {**DISK, "dim": 2.0}),
        "trig3d": dump(
            "trig3d.json",
            {"dim": 3, "components": [{"kind": "trig", "atoms": [{"w": 1.0, "omega": [1.0, 0.0, 0.0]}]}]},
        ),
        "cube": dump("cube.json", {"lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]}),
        "array_weight_trig": dump("array_weight_trig.json", {"dim": 1, "components": [
            {"kind": "trig", "atoms": [{"w": [1.0], "omega": [1.0]}]}]}),
        "array_weight_poly": dump("array_weight_poly.json", {"dim": 1, "components": [
            {"kind": "polynomial", "atoms": [{"w": [2.0], "degree": 1}]}]}),
        "one_wave": dump("one_wave.json", {"dim": 1, "components": [
            {"kind": "trig", "atoms": [{"w": 1.0, "omega": [1.0]}]}]}),
        "r10pi": dump("r10pi.json", {"lower": [0.0], "upper": [10.0 * math.pi]}),
        "huge_wave": dump("huge_wave.json", {"dim": 1, "components": [
            {"kind": "trig", "atoms": [{"w": 1e200, "omega": 1.0}]}]}),
        "axes_waves": dump("axes_waves.json", {"dim": 2, "components": [
            {"kind": "trig", "atoms": [{"w": 1.0, "omega": [1.0, 0.0]}, {"w": 1.0, "omega": [0.0, 1.0]}]}]}),
        "huge_axes_waves": dump("huge_axes_waves.json", {"dim": 2, "components": [
            {"kind": "trig", "atoms": [{"w": 1e200, "omega": [1.0, 0.0]}, {"w": 1e200, "omega": [0.0, 1.0]}]}]}),
        "line_poly": dump("line_poly.json", {"dim": 1, "components": [
            {"kind": "polynomial", "atoms": [{"w": 1.0, "degree": 0}, {"w": 1.0, "degree": 1}]}]}),
        "huge_line_poly": dump("huge_line_poly.json", {"dim": 1, "components": [
            {"kind": "polynomial", "atoms": [{"w": 4e153, "degree": 0}, {"w": 4e153, "degree": 1}]}]}),
        "huge_poly": dump("huge_poly.json", {"dim": 1, "components": [
            {"kind": "polynomial", "atoms": [{"w": 1e308, "degree": 0}, {"w": 1e308, "degree": 2}]}]}),
        "quad_poly": dump("quad_poly.json", {"dim": 1, "components": [
            {"kind": "polynomial", "atoms": [{"w": 1.0, "degree": 0}, {"w": 1.0, "degree": 2}]}]}),
        "max_line_poly": dump("max_line_poly.json", {"dim": 1, "components": [
            {"kind": "polynomial", "atoms": [{"w": 1e308, "degree": 0}, {"w": 1e308, "degree": 1}]}]}),
        "r_m1_2": dump("r_m1_2.json", {"lower": [-1.0], "upper": [2.0]}),
        "max_axes_waves": dump("max_axes_waves.json", {"dim": 2, "components": [
            {"kind": "trig", "atoms": [{"w": 1e308, "omega": [1.0, 0.0]}, {"w": 1e308, "omega": [0.0, 1.0]}]}]}),
        "list_kind": dump("list_kind.json", {"dim": 1, "components": [
            {"kind": ["trig"], "atoms": [{"w": 1.0, "omega": [1.0]}]}]}),
        "dict_kind": dump("dict_kind.json", {"dim": 1, "components": [
            {"kind": {}, "atoms": [{"w": 1.0, "omega": [1.0]}]}]}),
        "odd_poly": dump("odd_poly.json", ODD_POLY),
        "r_m1_1": dump("r_m1_1.json", {"lower": [-1.0], "upper": [1.0]}),
        "r_0_1": dump("r_0_1.json", {"lower": [0.0], "upper": [1.0]}),
        "r_m1_0": dump("r_m1_0.json", {"lower": [-1.0], "upper": [0.0]}),
        "r_half_1": dump("r_half_1.json", {"lower": [0.5], "upper": [1.0]}),
        "r_m1_101": dump("r_m1_101.json", {"lower": [-1.0], "upper": [1.01]}),
        "tiny_rice": dump("tiny_rice.json", {"dim": 1, "components": [{"kind": "trig", "atoms": [
            {"w": 2.0**-44, "omega": [1.0]}, {"w": 2.0**-44, "omega": [3.0]}]}]}),
        "tiny_kac": dump("tiny_kac.json", {"dim": 1, "components": [{"kind": "polynomial", "atoms": [
            {**atom, "w": 2.0**-44} for atom in KAC["components"][0]["atoms"]]}]}),
    }


# each subcommand's required flags, with placeholder file names
LEAST_ARGV = {
    "full": ["--ellipsoids", "e.json"],
    "withballs": ["--ellipsoids", "e.json"],
    "intrinsic": ["--ellipsoid", "e.json", "--k", "1"],
    "meanwidth": ["--ellipsoid", "e.json"],
    "discriminant": ["--matrices", "m.json"],
    "bounds": ["--ellipsoids", "e.json"],
    "oracle2d": ["--ellipsoids", "e.json"],
    "sudakov": ["--points", "p.json"],
    "fieldzeros intensity": ["--field", "f.json"],
    "fieldzeros measure": ["--field", "f.json", "--region", "r.json"],
    "fieldzeros simulate": ["--field", "f.json", "--region", "r.json"],
    "fieldzeros compare": ["--field", "f.json", "--region", "r.json"],
}
MC_COMMANDS = {"full", "withballs", "intrinsic", "meanwidth", "sudakov",
               "fieldzeros intensity", "fieldzeros measure", "fieldzeros compare"}
DOCUMENTED_DEFAULTS = {"samples": 1_000_000, "seed": 0, "confidence": 0.99, "grid": 512,
                       "quadrature_order": 32, "realizations": 1000, "at": None}
COMMANDS = [name for name, _, handler, _ in cli._COMMANDS if handler is not None]


def mc_keys(report):
    return {"command", "inputs_digest", "value", "std_error", "ci", "ci_level",
            "n_samples", "seed", "wall_time_ms"} <= set(report)


# == 1. Report envelope =====================================================


class TestReportEnvelope:
    def test_single_line_json_with_mc_fields(self, inputs):
        proc = run_cli("full", "--ellipsoids", inputs["two_balls"], "--samples", 20000)
        report = report_of(proc)
        assert mc_keys(report)
        assert report["command"] == "full"
        assert report["n_samples"] == 20000
        assert report["seed"] == 0
        assert report["dim"] == 2
        lo, hi = report["ci"]
        assert lo < report["value"] < hi

    def test_digest_is_sha256_of_input_file(self, inputs):
        proc = run_cli("full", "--ellipsoids", inputs["two_balls"], "--samples", 10000)
        expected = hashlib.sha256(inputs["two_balls"].read_bytes()).hexdigest()
        assert report_of(proc)["inputs_digest"] == expected

    def test_measure_digest_covers_both_files(self, inputs):
        proc = run_cli(
            "fieldzeros", "measure", "--field", inputs["rice"],
            "--region", inputs["r100"], "--samples", 1000,
        )
        h = hashlib.sha256()
        h.update(inputs["rice"].read_bytes())
        h.update(inputs["r100"].read_bytes())
        assert report_of(proc)["inputs_digest"] == h.hexdigest()

    def test_reports_byte_identical_across_runs(self, inputs):
        args = ("full", "--ellipsoids", inputs["two_balls"], "--samples", 20000,
                "--seed", 3)
        assert masked(run_cli(*args)) == masked(run_cli(*args))

    def test_reports_byte_identical_across_threads(self, inputs):
        args = ("full", "--ellipsoids", inputs["two_balls"], "--samples", 60001,
                "--seed", 5)
        one = run_cli(*args, "--threads", 1)
        two = run_cli(*args, "--threads", 2)
        assert masked(one) == masked(two)

    def test_verbose_summary_goes_to_stderr(self, inputs):
        proc = run_cli("full", "--ellipsoids", inputs["two_balls"],
                       "--samples", 20000, "--verbose")
        assert len(proc.stdout.strip().splitlines()) == 1
        assert "+-" in proc.stderr
        report_of(proc)  # stdout still parses as a lone JSON report

    def test_help_exits_zero(self):
        top = run_cli("--help")
        assert "full" in top.stdout and "fieldzeros" in top.stdout
        fz = run_cli("fieldzeros", "--help")
        for name in ("intensity", "measure", "simulate", "compare"):
            assert name in fz.stdout


# == 2. Command table =======================================================


class TestCommandTable:
    def test_every_subcommand_has_least_argv(self):
        assert sorted(COMMANDS) == sorted(LEAST_ARGV)

    @pytest.mark.parametrize("name", COMMANDS)
    def test_subcommand_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*name.split(), "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: mixvol {name} [-h]")

    @pytest.mark.parametrize("name", COMMANDS)
    def test_least_argv_gives_documented_defaults(self, name):
        args = cli.build_parser().parse_args([*name.split(), *LEAST_ARGV[name]])
        assert args.command_name == name and args.verbose is False
        assert hasattr(args, "samples") == (name in MC_COMMANDS)
        if name in MC_COMMANDS:
            assert args.threads == (os.cpu_count() or 1)
        for key, value in DOCUMENTED_DEFAULTS.items():
            if hasattr(args, key):
                assert getattr(args, key) == value, key


class TestSharedParser:
    def _calls(self, inputs):
        full = ["full", "--ellipsoids", inputs["two_balls"], "--samples", "4096", "--threads", "1"]
        return [
            [*full, "--bogus"],
            ["full", "--help"],
            [*full, "--verbose"],
            full,
            ["discriminant", "--matrices", inputs["mats"]],
            ["fieldzeros", "measure", "--field", inputs["kac"], "--region", inputs["r55"]],
            ["fieldzeros", "compare", "--field", inputs["rice"]],
            full,
        ]

    def _run(self, argv, capsys):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse exits on usage errors and --help
            code = exc.code
        out, err = capsys.readouterr()
        return code, WALL_TIME.sub('"wall_time_ms": 0', out), err

    def test_reuse_matches_fresh_parsers(self, inputs, capsys, monkeypatch):
        cli._shared_parser.cache_clear()
        shared = [self._run(argv, capsys) for argv in self._calls(inputs)]
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [self._run(argv, capsys) for argv in self._calls(inputs)]
        assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 2, 0]
        assert shared == fresh

    def test_built_once_per_process(self, inputs, capsys, monkeypatch):
        built, build = [], cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._shared_parser.cache_clear()
        for argv in self._calls(inputs):
            self._run(argv, capsys)
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        probe = "import mixvol.cli as c; print(c._shared_parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


# == 3. Volume and width subcommands ========================================


class TestVolumeCommands:
    def test_full_recovers_disk_area(self, inputs):
        report = report_of(
            run_cli("full", "--ellipsoids", inputs["two_balls"], "--samples", 60000)
        )
        assert abs(report["value"] - math.pi) < 5 * report["std_error"]

    def test_withballs_counts_ellipsoid_slots(self, inputs):
        report = report_of(
            run_cli("withballs", "--ellipsoids", inputs["disk"], "--samples", 60000)
        )
        assert report["n_ellipsoids"] == 1
        assert abs(report["value"] - math.pi) < 5 * report["std_error"]

    def test_intrinsic_first_of_disk(self, inputs):
        report = report_of(
            run_cli("intrinsic", "--ellipsoid", inputs["disk"], "--k", 1,
                    "--samples", 60000)
        )
        assert report["k"] == 1
        assert abs(report["value"] - math.pi) < 5 * report["std_error"]

    def test_meanwidth_of_disk(self, inputs):
        report = report_of(
            run_cli("meanwidth", "--ellipsoid", inputs["disk"], "--samples", 60000)
        )
        assert abs(report["value"] - 2.0) < 5 * report["std_error"]

    def test_sudakov_segment(self, inputs):
        report = report_of(
            run_cli("sudakov", "--points", inputs["segment"], "--samples", 200000,
                    "--seed", 2)
        )
        assert report["n_points"] == 2
        assert abs(report["value"] - math.sqrt(2.0 / math.pi)) < 5 * report["std_error"]
        assert abs(report["implied_v1"] - 2.0) < 5 * report["implied_v1_std_error"]

    def test_sudakov_planar_report_identical_across_threads(self, inputs):
        # the hull and its angle table are shared by both workers
        args = ("sudakov", "--points", inputs["polygon"], "--samples", 3 * CHUNK + 5,
                "--seed", 4)
        assert masked(run_cli(*args, "--threads", 1)) == masked(run_cli(*args, "--threads", 2))

    def test_huge_points_exit_zero(self, inputs):
        # used to exit 0 with "std_error": NaN, then 2 with OutOfRange; the
        # width of 1e155-sized points is an ordinary double
        report = report_of(run_cli("sudakov", "--points", inputs["huge_points"],
                                   "--samples", 1000))
        assert math.isfinite(report["value"]) and math.isfinite(report["std_error"])
        assert 1e154 < report["value"] < 1e156


# == 4. Deterministic subcommands ===========================================


class TestDeterministicCommands:
    def test_discriminant_exact_value(self, inputs):
        report = report_of(run_cli("discriminant", "--matrices", inputs["mats"]))
        assert report["value"] == 5.0
        assert report["dim"] == 2
        # no Monte Carlo fields on the exact path
        assert "seed" not in report and "n_samples" not in report

    def test_bounds_for_two_disks(self, inputs):
        report = report_of(run_cli("bounds", "--ellipsoids", inputs["two_balls"]))
        assert report["discriminant"] == approx(1.0, rel=1e-12)
        assert report["lower"] == approx(math.pi / math.sqrt(3.0), rel=1e-12)
        assert report["upper"] == approx(math.pi, rel=1e-12)
        assert report["lower"] <= report["upper"]

    def test_oracle2d_half_perimeter(self, inputs):
        report = report_of(
            run_cli("oracle2d", "--ellipsoids", inputs["ellipse_pair"])
        )
        assert report["mixed_area"] == approx(HALF_PERIMETER_21, abs=1e-6)
        assert report["fit_discrepancy"] < 1e-6
        assert report["area_first"] == approx(2.0 * math.pi, rel=1e-6)
        assert report["area_second"] == approx(math.pi, rel=1e-6)
        assert report["n_theta"] == 512


# == 5. fieldzeros subcommands ==============================================


class TestFieldzeros:
    def test_intensity_takes_exact_path(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "intensity", "--field", inputs["rice"])
        )
        assert report["command"] == "fieldzeros intensity"
        assert report["method"] == "exact"
        assert report["n_samples"] == 1
        assert report["std_error"] == 0.0
        assert report["value"] == approx(RICE_INTENSITY, rel=1e-12)
        assert report["at"] == [0.0]

    def test_intensity_at_flag(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "intensity", "--field", inputs["rice"],
                    "--at", "0.7")
        )
        assert report["at"] == [0.7]
        # stationary field: same intensity away from the origin
        assert report["value"] == approx(RICE_INTENSITY, rel=1e-12)

    def test_measure_stationary_exact(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "measure", "--field", inputs["rice"],
                    "--region", inputs["r100"], "--samples", 1000)
        )
        assert report["method"] == "exact"
        assert report["stationary"] is True
        assert report["region_volume"] == 100.0
        assert report["value"] == approx(100.0 * RICE_INTENSITY, rel=1e-12)

    def test_measure_quadrature_path_matches_library(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "measure", "--field", inputs["kac"],
                    "--region", inputs["r55"], "--samples", 1000, "--seed", 7)
        )
        assert report["method"] == "gauss-legendre"
        assert report["stationary"] is False
        assert report["quadrature_order"] == 32
        est = expected_zero_measure(
            field_from_json(KAC), Region([-5.0], [5.0]), 1000, 7
        )
        assert report["value"] == est.mean
        assert report["std_error"] == est.std_error

    def test_simulate_matches_library_count(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "simulate", "--field", inputs["rice"],
                    "--region", inputs["r100"], "--seed", 4, "--grid", 2048)
        )
        assert report["kind"] == "count-1d"
        assert report["count"] == len(report["zeros"])
        zeros = report["zeros"]
        assert all(0.0 <= z < 100.0 for z in zeros)
        assert zeros == sorted(zeros)
        realization = simulate_realization(field_from_json(RICE), RngStream(4, 0))
        assert report["count"] == count_zeros_1d(
            realization, Region([0.0], [100.0]), 2048
        )

    def test_traced_names_stay_importable(self):
        # the benchmark's traced run patches every CROSS_MODULE name of its
        # probes on the module named there and binds the count argument by
        # name, so a rename, a dropped import or a renamed count breaks it;
        # the table is read, not imported, to keep the benchmark out of tier 1
        tree = ast.parse(PROBES.read_text(encoding="utf-8"))
        (table,) = [
            node.value for node in tree.body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CROSS_MODULE"]
        ]
        entries = [(e.elts[0].id, *map(ast.literal_eval, e.elts[1:])) for e in table.elts]
        assert len(entries) == 27
        for module, name, layer, count in entries:
            fn = getattr(importlib.import_module(f"mixvol.{module}"), name)
            assert callable(fn)
            assert fn is getattr(importlib.import_module(f"mixvol.{layer}"), name)
            if count is not None:
                assert count in inspect.signature(fn).parameters, (module, name, count)

    @pytest.mark.parametrize(
        "solver, field, region, grid, solved",
        [
            ("_roots_2d", "wave_pair", "box", 128, [128, 256]),
            ("_zeros_1d", "rice", "r100", 2048, [2048]),
        ],
    )
    def test_simulate_solves_each_grid_once(
        self, inputs, monkeypatch, capsys, solver, field, region, grid, solved
    ):
        grids = []
        solve = getattr(fields, solver)

        def counted(r, box, grid_n, *args, **kwargs):
            grids.append(grid_n)
            return solve(r, box, grid_n, *args, **kwargs)

        # count solves under every name the CLI module can reach the solver by
        monkeypatch.setattr(fields, solver, counted)
        monkeypatch.setattr(cli, solver, counted)
        code = cli.main(["fieldzeros", "simulate", "--field", str(inputs[field]),
                         "--region", str(inputs[region]), "--seed", "3", "--grid", str(grid)])
        assert code == 0
        assert grids == solved
        report = json.loads(capsys.readouterr().out)
        with open(inputs[field]) as fh:
            realization = simulate_realization(field_from_json(json.load(fh)), RngStream(3, 0))
        with open(inputs[region]) as fh:
            box = Region(**json.load(fh))
        zeros = solve(realization, box, grid)
        assert report["count"] == zeros.shape[0] > 0
        assert report["zeros"] == zeros.tolist()

    def test_simulate_deterministic(self, inputs):
        args = ("fieldzeros", "simulate", "--field", inputs["rice"],
                "--region", inputs["r100"], "--seed", 9, "--grid", 2048)
        assert masked(run_cli(*args)) == masked(run_cli(*args))

    def test_compare_rice_consistent(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "compare", "--field", inputs["rice"],
                    "--region", inputs["r100"], "--realizations", 400,
                    "--grid", 2048, "--samples", 1000, "--seed", 11)
        )
        assert report["kind"] == "count-1d"
        assert report["n_realizations"] == 400
        assert report["analytic_intensity"] == approx(RICE_INTENSITY, rel=1e-12)
        assert report["analytic_std_error"] == 0.0
        assert abs(report["z_score"]) < 4.0
        assert report["empirical_mean"] == approx(100.0 * RICE_INTENSITY, rel=0.1)

    def test_compare_uses_distinct_analytic_stream(self, inputs):
        report = report_of(
            run_cli("fieldzeros", "compare", "--field", inputs["rice"],
                    "--region", inputs["r100"], "--realizations", 50,
                    "--grid", 2048, "--samples", 1000, "--seed", 11)
        )
        assert report["analytic_seed"] != report["seed"]

    def test_alias_entry_point_routes_to_subtree(self, inputs):
        code = (
            "import sys; from mixvol.cli import fieldzeros_main; "
            f"sys.exit(fieldzeros_main(['intensity', '--field', {str(inputs['rice'])!r}]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["command"] == "fieldzeros intensity"
        assert report["value"] == approx(RICE_INTENSITY, rel=1e-12)


# == 6. Failure paths =======================================================


class TestFailurePaths:
    def test_missing_file_exits_two(self):
        proc = run_cli("full", "--ellipsoids", "/nonexistent/e.json", expect=2)
        assert "FileNotFoundError" in proc.stderr
        assert proc.stdout == ""

    def test_not_positive_definite_exits_two(self, inputs):
        proc = run_cli("meanwidth", "--ellipsoid", inputs["notpd"], expect=2)
        assert "NotPositiveDefinite" in proc.stderr
        assert proc.stdout == ""

    def test_malformed_matrix_file_exits_two(self, inputs):
        proc = run_cli("discriminant", "--matrices", inputs["garbage"], expect=2)
        assert "OutOfRange" in proc.stderr
        assert proc.stdout == ""

    def test_truncated_ellipsoid_file_exits_two(self, inputs):
        proc = run_cli("full", "--ellipsoids", inputs["truncated"], expect=2)
        assert "OutOfRange" in proc.stderr and "invalid JSON" in proc.stderr
        assert proc.stdout == ""

    def test_string_in_sigma_exits_two(self, inputs):
        proc = run_cli("withballs", "--ellipsoids", inputs["string_sigma"], expect=2)
        assert "OutOfRange" in proc.stderr and "sigma" in proc.stderr
        assert proc.stdout == ""

    def test_numeric_string_in_sigma_exits_two(self, inputs):
        # numpy reads "4" as 4.0, so this used to run on diag(4, 1)
        proc = run_cli("withballs", "--ellipsoids", inputs["numeric_string_sigma"], expect=2)
        assert "OutOfRange" in proc.stderr and "got a string" in proc.stderr
        assert proc.stdout == ""

    def test_ragged_points_file_exits_two(self, inputs):
        proc = run_cli("sudakov", "--points", inputs["ragged"], expect=2)
        assert "OutOfRange" in proc.stderr and "points" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name, shape", [("flat_points", "(3,)"), ("nested_points", "(2, 1, 2)")])
    def test_points_not_a_matrix_exit_two(self, inputs, name, shape):
        # a flat list read as one point in R^3 (exit 0, value ~ 0), and a
        # nested one was an InternalError (exit 1)
        proc = run_cli("sudakov", "--points", inputs[name], "--samples", 1000, expect=2)
        assert "DimensionMismatch" in proc.stderr and shape in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_sigma_exits_two(self, inputs):
        # used to exit 0 with "value": Infinity, "std_error": NaN
        proc = run_cli("intrinsic", "--ellipsoid", inputs["huge_sigma"], "--k", 1,
                       "--samples", 1000, expect=2)
        assert "OutOfRange" in proc.stderr and "non-finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name", ["huge_mats", "nan_mats"])
    def test_non_finite_matrix_exits_two(self, inputs, name):
        # used to exit 0 with "value": NaN
        proc = run_cli("discriminant", "--matrices", inputs[name], expect=2)
        assert "OutOfRange" in proc.stderr and "non-finite" in proc.stderr
        assert proc.stdout == ""

    def test_non_finite_points_exit_two(self, inputs):
        # PointCloud raised DimensionMismatch for a non-finite point
        proc = run_cli("sudakov", "--points", inputs["inf_points"],
                       "--samples", 1000, expect=2)
        assert "OutOfRange" in proc.stderr and "finite" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["fieldzeros", "intensity", "--field", "bool_dim_field", "--samples", 1000], "OutOfRange"),
            (["meanwidth", "--ellipsoid", "bool_dim_disk", "--samples", 1000], "DimensionMismatch"),
            (["meanwidth", "--ellipsoid", "float_dim_disk", "--samples", 1000], "DimensionMismatch"),
        ],
    )
    def test_boolean_dim_exits_two(self, inputs, argv, error):
        # JSON true used to load as dimension 1, and 2.0 as dimension 2
        proc = run_cli(*[inputs.get(a, a) for a in argv], expect=2)
        assert error in proc.stderr and "dim" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "extra", [["simulate"], ["compare", "--realizations", 10, "--samples", 1000]]
    )
    def test_unsupported_field_shape_exits_two(self, inputs, extra):
        # realizations support (d, k) in (1, 1), (2, 2) and (2, 1) only
        proc = run_cli("fieldzeros", extra[0], "--field", inputs["trig3d"],
                       "--region", inputs["cube"], *extra[1:], expect=2)
        assert "OutOfRange" in proc.stderr and "(3, 1)" in proc.stderr
        assert proc.stdout == ""

    def test_oracle2d_needs_exactly_two_bodies(self, inputs):
        proc = run_cli("oracle2d", "--ellipsoids", inputs["disk"], expect=2)
        assert "DimensionMismatch" in proc.stderr

    def test_unknown_flag_is_usage_error(self, inputs):
        proc = run_cli("full", "--ellipsoids", inputs["two_balls"],
                       "--bogus", expect=2)
        assert "usage" in proc.stderr.lower()

    def test_missing_subcommand_is_usage_error(self):
        run_cli(expect=2)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_two(self, inputs, seed):
        # seeds were reduced modulo 2^64, so -1 aliased 2^64 - 1
        proc = run_cli("full", "--ellipsoids", inputs["two_balls"],
                       "--samples", 1000, "--seed", seed, expect=2)
        assert "OutOfRange" in proc.stderr and "seed" in proc.stderr
        assert proc.stdout == ""
        proc = run_cli("fieldzeros", "simulate", "--field", inputs["rice"],
                       "--region", inputs["r100"], "--seed", seed, expect=2)
        assert "OutOfRange" in proc.stderr and "seed" in proc.stderr

    def test_nonpositive_threads_rejected(self, inputs):
        proc = run_cli("full", "--ellipsoids", inputs["two_balls"],
                       "--threads", 0, expect=2)
        assert "threads must be positive" in proc.stderr

    def test_bad_at_coordinates_exit_two(self, inputs):
        proc = run_cli("fieldzeros", "intensity", "--field", inputs["rice"],
                       "--at", "a,b", expect=2)
        assert "OutOfRange" in proc.stderr

    @pytest.mark.parametrize("field, at", [("wave_pair", "nan,inf"), ("kac", "inf")])
    def test_non_finite_at_exits_two(self, inputs, field, at):
        # a stationary field printed "at": [NaN, Infinity], a polynomial one
        # blamed a non-finite matrix entry
        proc = run_cli("fieldzeros", "intensity", "--field", inputs[field],
                       "--at", at, "--samples", 1000, expect=2)
        assert "OutOfRange" in proc.stderr and "--at" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name", ["array_weight_trig", "array_weight_poly"])
    def test_array_weight_exits_two(self, inputs, name):
        # float() of a one-element weight array was an InternalError, exit 1
        proc = run_cli("fieldzeros", "intensity", "--field", inputs[name], expect=2)
        assert "OutOfRange" in proc.stderr and "weight" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["intensity", "measure"])
    @pytest.mark.parametrize(
        "huge, unit, region, at",
        [
            ("huge_wave", "one_wave", "r10pi", "1"),
            ("huge_axes_waves", "axes_waves", "box", "1,1"),
            # at t = 2, sigma^4 = 4e308 overflows but g g^T = 6.4e307 does
            # not, and C = 0.2 - 0.16 needs the g g^T / sigma^4 term
            ("huge_line_poly", "line_poly", "r10pi", "2"),
        ],
    )
    def test_huge_weights_give_unit_weight_value(self, inputs, command, huge, unit, region, at):
        # sigma^4 >= 1e400 overflowed a Python float: exit 1, InternalError(OverflowError)
        extra = ["--region", inputs[region]] if command == "measure" else ["--at", at]
        values = [
            report_of(run_cli("fieldzeros", command, "--field", inputs[name], *extra))["value"]
            for name in (huge, unit)
        ]
        assert values[0] == approx(values[1], rel=1e-12)
        if huge == "huge_line_poly" and command == "intensity":
            assert values[1] == approx(0.2 / math.pi, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, huge, unit",
        [
            # sigma^2 = 2e308 at t = 1; at t = 0 it was w * 2 in g and H
            # that overflowed and turned them NaN: exit 2
            (["intensity", "--at", "1"], "huge_poly", "quad_poly"),
            # sigma^2 = 1e308 (1 + t^2) overflowed for |t| > 0.9: "nan +- nan"
            (["measure", "--region", "r_m1_2"], "max_line_poly", "line_poly"),
            # sum w = 2e308: "matrix has a non-finite entry"
            (["intensity", "--at", "1,1", "--samples", 4096], "max_axes_waves", "axes_waves"),
        ],
        ids=["poly_intensity", "poly_measure", "trig_intensity"],
    )
    def test_largest_weights_give_unit_weight_report(self, inputs, argv, huge, unit):
        # both weights 1e308: the moments are redone at largest weight 1,
        # so the report is that of the unit-weight field, with no warning
        argv = [inputs.get(a, a) for a in argv]
        procs = [run_cli("fieldzeros", argv[0], "--field", inputs[name], *argv[1:])
                 for name in (huge, unit)]
        reports = [report_of(p) for p in procs]
        assert reports[0]["value"] == reports[1]["value"]
        assert reports[0]["std_error"] == reports[1]["std_error"]
        assert procs[0].stderr == ""

    @pytest.mark.parametrize("name", ["list_kind", "dict_kind"])
    def test_non_string_kind_exits_two(self, inputs, name):
        proc = run_cli("fieldzeros", "intensity", "--field", inputs[name], expect=2)
        assert "OutOfRange" in proc.stderr and "kind" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("region", ["r_m1_1", "r_0_1", "r_m1_0"])
    def test_variance_vanishing_in_region_exits_two(self, inputs, region):
        # no Gauss-Legendre node falls on t = 0, so measure exited 0 with
        # 0.500 on [-1, 1], where simulated realizations average 1.5 zeros
        proc = run_cli("fieldzeros", "measure", "--field", inputs["odd_poly"],
                       "--region", inputs[region], expect=2)
        assert "DegenerateVariance" in proc.stderr and "t=[0.0]" in proc.stderr
        assert proc.stdout == ""

    def test_simulate_exits_two_where_variance_vanishes(self, inputs):
        # simulate printed t = -1.3e-65, where |X| / sigma = 0.16, as a zero
        proc = run_cli("fieldzeros", "simulate", "--field", inputs["odd_poly"],
                       "--region", inputs["r_m1_101"], "--seed", 0, "--grid", 512, expect=2)
        assert "DegenerateVariance" in proc.stderr and "t=[0.0]" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv, tiny, unit",
        [
            (["intensity", "--at", "1"], "tiny_rice", "rice"),
            (["measure", "--region", "r100"], "tiny_rice", "rice"),
            (["measure", "--region", "r55"], "tiny_kac", "kac"),
        ],
        ids=["trig_intensity", "trig_measure", "poly_measure"],
    )
    def test_small_weights_give_unit_weight_report(self, inputs, argv, tiny, unit):
        # all weights 2^-44: sigma^2 = 1.1e-13 fell below the absolute
        # floor 1e-12 and exited 2 with DegenerateVariance
        argv = [inputs.get(a, a) for a in argv]
        reports = [report_of(run_cli("fieldzeros", argv[0], "--field", inputs[name], *argv[1:]))
                   for name in (tiny, unit)]
        assert reports[0]["value"] == reports[1]["value"]
        assert reports[0]["std_error"] == reports[1]["std_error"]

    def test_variance_away_from_zero_is_measured(self, inputs):
        def intensity(t):
            s2, g, h = t**2 + t**6, t + 3.0 * t**5, 1.0 + 9.0 * t**4
            return math.sqrt(h / s2 - (g / s2) ** 2) / math.pi

        report = report_of(run_cli("fieldzeros", "measure", "--field", inputs["odd_poly"],
                                   "--region", inputs["r_half_1"]))
        assert report["value"] == approx(quad(intensity, 0.5, 1.0, epsabs=0.0)[0], rel=1e-12)

    def test_zero_standard_error_gives_null_z_score(self, inputs):
        # exact analytic side and a constant count of 10: the z-score used
        # to print as -Infinity, which is not JSON
        proc = run_cli("fieldzeros", "compare", "--field", inputs["one_wave"],
                       "--region", inputs["r10pi"], "--realizations", 50,
                       "--grid", 2048, "--verbose")
        report = report_of(proc)
        assert report["analytic_std_error"] == 0.0 and report["empirical_std_error"] == 0.0
        assert report["empirical_mean"] == 10.0
        assert report["z_score"] is None
        assert "z = undefined" in proc.stderr

    def test_non_finite_report_is_internal_error(self, inputs, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mixed_discriminant", lambda mats: math.nan)
        assert cli.main(["discriminant", "--matrices", str(inputs["mats"])]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("InternalError(ValueError)")

    def test_at_dimension_checked(self, inputs):
        proc = run_cli("fieldzeros", "intensity", "--field", inputs["rice"],
                       "--at", "0.0,1.0", expect=2)
        assert "DimensionMismatch" in proc.stderr

    def test_compare_surfaces_coarse_grid(self, inputs):
        # at the default 512-node grid some realizations of this field change
        # their count under grid doubling, and the experiment must say so
        proc = run_cli("fieldzeros", "compare", "--field", inputs["rice"],
                       "--region", inputs["r100"], "--realizations", 200,
                       "--samples", 1000, expect=2)
        assert "GridTooCoarse" in proc.stderr
        assert proc.stdout == ""
