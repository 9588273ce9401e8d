"""End-to-end checks of the command-line front end.

Core claims:
- Every subcommand prints a single-line JSON report on stdout carrying the
  command name, a SHA-256 digest of its input files, the result fields, and
  wall_time_ms, then exits 0.
- Reports are byte-identical across repeated runs and across --threads
  settings once the wall_time_ms field is masked.
- All validation failures exit 2 with the error name on stderr and nothing
  on stdout, malformed input files and seeds outside [0, 2^64) included;
  argparse usage errors also exit 2.
- Deterministic subcommands reproduce known closed forms exactly: the mixed
  discriminant of diag(1,2), diag(3,4) is 5, the planar oracle returns the
  half-perimeter of the (2,1)-ellipse, and the stationary-field intensity
  takes the exact single-sample path.
- The fieldzeros alias entry point routes into the fieldzeros subtree.
- `fieldzeros simulate` solves its realization once per grid.
"""

import hashlib
import json
import math
import re
import subprocess
import sys

import pytest
from pytest import approx

from mixvol import (
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
        "ragged": dump("ragged.json", {"points": [[1.0, 0.0], [0.0]]}),
    }


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


# == 2. Volume and width subcommands ========================================


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


# == 3. Deterministic subcommands ===========================================


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


# == 4. fieldzeros subcommands ==============================================


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
        zeros = solve(realization, box, grid, 1e-9)
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


# == 5. Failure paths =======================================================


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

    def test_ragged_points_file_exits_two(self, inputs):
        proc = run_cli("sudakov", "--points", inputs["ragged"], expect=2)
        assert "OutOfRange" in proc.stderr and "points" in proc.stderr
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
