"""Command-line interface: generate, value, solve, verify, score, select,
render.

Machine-readable output (JSON, SVG, CSV) goes to stdout or --out; diagnostics
go to stderr.  Exit codes: 0 success, 1 invalid solution / verification
failure, 2 usage or input error, 3 internal error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .generators import FAMILIES, GenConfig, GenerationFailed
from .model import (ParseError, ValidationError, load_instance, load_solution,
                    write_instance, write_solution)
from .render import PALETTES, RenderOfInvalidSolution, RenderSpec, render
from .scoring import build_leaderboard, read_records_csv, render_table
from .selection import (SelectionConfig, compute_metrics, features_csv,
                        select_from_features)
from .solver import SolverConfig, shelf_pack, solve
from .valuation import ValueKind, ValueSpec, assign_values
from .verifier import InstanceMismatch, verify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _eprint(args, *msg):
    if not args.quiet:
        print(*msg, file=sys.stderr)


def _emit(args, data: bytes, summary=None):
    """Write bytes to --out (summary JSON to stdout) or bytes to stdout."""
    if args.out:
        Path(args.out).write_bytes(data)
        if summary is not None:
            print(json.dumps(summary))
    else:
        sys.stdout.write(data.decode("utf-8"))


def _fraction(text: str) -> Fraction:
    """Fraction(text); a malformed value or a zero denominator is an
    ArgumentTypeError naming the expected form."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a fraction such as 1/2 or 0.5, got {text!r}") from None


def _parse_range(text: str) -> tuple[int, int]:
    """lo:hi (or lo,hi) as two ints; anything else is an ArgumentTypeError
    naming that form."""
    sep = ":" if ":" in text else ","
    try:
        lo, hi = text.split(sep)
        return int(lo), int(hi)
    except ValueError:  # not two parts, or a part that is not an int
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with integer ends, got {text!r}") from None


def _load_config_file(path: str) -> dict:
    """key = value lines; '#' comments; values are returned as strings."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        out[key] = value
    return out


# a config-file value is parsed by the type of its GenConfig field's default
_PARSERS = {int: int, Fraction: _fraction, tuple: _parse_range, ValueKind: ValueKind}


def _gen_config_from(args) -> GenConfig:
    fields = {f.name: f for f in dataclasses.fields(GenConfig)}
    kwargs = {}
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r} in {args.config}")
            try:
                kwargs[key] = _PARSERS[type(fields[key].default)](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{key} in {args.config}: {exc}") from None
    # generate's flags are stored under field names and default to None, so a
    # flag overrides a file entry only when it is given
    for name in fields:
        v = getattr(args, name, None)
        if v is not None:
            kwargs[name] = v
    if args.container is not None:
        # a zero side means the family default only as a config-file value
        try:
            w, h = (int(p) for p in args.container.lower().split("x"))
        except ValueError:  # not two sides, or a side that is not an int
            raise ValueError(f"--container must be WxH with integer sides, "
                             f"got {args.container!r}") from None
        if w < 1 or h < 1:
            raise ValueError(f"--container sides must be at least 1, got {args.container!r}")
        kwargs["container_width"] = w
        kwargs["container_height"] = h
    return GenConfig(**kwargs)


# generate's family-specific flags: (dest, flag, families that read it).  A
# flag given to a family that does not read it is a usage error; config-file
# keys stay shared, since one GenConfig serves every family.
_FAMILY_FLAGS = (
    ("n_target", "--n", {"random", "atris", "satris"}),
    ("area_multiple_t", "--t", {"random", "atris", "satris"}),
    ("convexity_ratio", "--convexity-ratio", {"random"}),
    ("jigsaw_line_count", "--lines", {"jigsaw"}),
    ("jigsaw_copies", "--copies", {"jigsaw"}),
    ("jigsaw_perturb_amplitude", "--perturb", {"jigsaw"}),
    ("pixel_size_range", "--pixel-range", {"atris", "satris"}),
    ("shear_probability", "--shear-prob", {"satris"}),
)


def cmd_generate(args) -> int:
    cfg = _gen_config_from(args)
    for dest, flag, families in _FAMILY_FLAGS:
        if getattr(args, dest) is not None and args.family not in families:
            raise ValueError(f"{args.family} does not read {flag}")
    instance = FAMILIES[args.family](cfg)
    data = write_instance(instance)
    _emit(args, data, {
        "name": instance.name, "family": args.family, "n_items": instance.n_items,
        "total_value": sum(it.value for it in instance.items),
        "out": args.out,
    })
    _eprint(args, f"generated {instance.name}: {instance.n_items} items")
    return EXIT_OK


def cmd_value(args) -> int:
    instance = load_instance(args.instance)
    spec = ValueSpec(ValueKind(args.kind), args.noise,
                     seed=args.seed or 0, global_scale=args.scale)
    out = assign_values(instance, spec, record=not args.no_record)
    _emit(args, write_instance(out), {
        "name": out.name, "kind": args.kind,
        "total_value": sum(it.value for it in out.items), "out": args.out,
    })
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    cfg = SolverConfig(time_budget=args.budget, seed=args.seed or 0)
    started = time.monotonic()

    def progress(iteration, value):
        _eprint(args, f"iter {iteration}: value {value}")

    if args.shelf:
        sol = shelf_pack(instance, started + cfg.time_budget)
    else:
        sol = solve(instance, cfg, progress=None if args.quiet else progress)
    elapsed = time.monotonic() - started
    report = verify(instance, sol)
    if not report.valid:  # the solver contract makes this unreachable
        _eprint(args, "internal error: solver emitted an invalid solution")
        return EXIT_INTERNAL
    data = write_solution(sol)
    _emit(args, data, {
        "instance": instance.name, "packed_value": report.packed_value,
        "n_placed": sol.n_placed, "n_items": instance.n_items,
        "elapsed_s": round(elapsed, 3), "out": args.out,
    })
    _eprint(args, f"packed {sol.n_placed}/{instance.n_items} items, "
                  f"value {report.packed_value}, {elapsed:.1f}s")
    return EXIT_OK


def cmd_verify(args) -> int:
    # a file that fails to parse or validate, the instance included, is an
    # invalid file (exit 1); the report names no instance if it is the one
    instance = None
    try:
        instance = load_instance(args.instance)
        solution = load_solution(args.solution)
        report = verify(instance, solution)
    except (ParseError, ValidationError, InstanceMismatch) as exc:
        print(json.dumps({
            "type": "cgshop2024_verification",
            "instance_name": None if instance is None else instance.name,
            "valid": False, "packed_value": 0,
            "violation": {"kind": "InvalidFile", "detail": str(exc)},
        }))
        return EXIT_INVALID
    print(json.dumps(report.to_json_obj(instance.name)))
    return EXIT_OK if report.valid else EXIT_INVALID


def _instances_from_dir(path: str):
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no *.json instances under {path}")
    return [load_instance(f) for f in files]


def cmd_score(args) -> int:
    instances = _instances_from_dir(args.instances)
    records = read_records_csv(Path(args.records).read_bytes())
    board = build_leaderboard(records, [i.name for i in instances])
    print(json.dumps(board.to_json_obj()))
    _eprint(args, render_table(board))
    return EXIT_OK


def _metrics_worker(path: str):
    inst = load_instance(path)
    return inst.name, compute_metrics(inst).values


def cmd_select(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = SelectionConfig(k=args.k, pca_components=args.pca_components,
                          seed=args.seed or 0, kmeans_restarts=args.restarts)
    files = sorted(str(p) for p in Path(args.candidates).glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no *.json instances under {args.candidates}")
    # a forking pool starts every worker at once, so start no idle ones
    workers = min(args.jobs, len(files))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            named = list(pool.map(_metrics_worker, files))
    else:
        named = [_metrics_worker(f) for f in files]
    import warnings
    with warnings.catch_warnings():
        if args.quiet:
            warnings.simplefilter("ignore")
        chosen = select_from_features(named, cfg)
    if args.features_csv:
        Path(args.features_csv).write_text(features_csv(named))
        _eprint(args, f"feature matrix written to {args.features_csv}")
    print(json.dumps({"type": "cgshop2024_selection", "k": args.k,
                      "selected": chosen}))
    return EXIT_OK


def cmd_render(args) -> int:
    instance = load_instance(args.instance)
    solution = load_solution(args.solution) if args.solution else None
    spec = RenderSpec(instance, solution, scale=args.scale,
                      palette=args.palette, tray=args.tray, force=args.force)
    svg = render(spec)
    _emit(args, svg, {"out": args.out, "bytes": len(svg)})
    return EXIT_OK


def _add_common(sp, seed=True, quiet=True, out=True):
    """The shared flags; a subcommand takes only those it reads, so passing
    any other is a usage error."""
    if seed:
        sp.add_argument("--seed", type=int, default=None, help="random seed")
    if quiet:
        sp.add_argument("--quiet", action="store_true", help="suppress stderr chatter")
    if out:
        sp.add_argument("--out", "-o", default=None, help="output file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polypack",
        description="Maximum polygon packing toolkit: generate, solve, "
                    "verify, score, select, render.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a challenge instance")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--n", dest="n_target", type=int, default=None,
                   help="target item count")
    p.add_argument("--t", dest="area_multiple_t", type=_fraction, default=None,
                   help="total-item-area multiple of container area, in [1,2]")
    p.add_argument("--convexity-ratio", dest="convexity_ratio",
                   type=_fraction, default=None)
    p.add_argument("--lines", dest="jigsaw_line_count", type=int, default=None,
                   help="jigsaw cut lines")
    p.add_argument("--copies", dest="jigsaw_copies", type=int, default=None,
                   help="jigsaw copies")
    p.add_argument("--perturb", dest="jigsaw_perturb_amplitude", type=int,
                   default=None, help="jigsaw perturbation amplitude (0 disables)")
    p.add_argument("--container", default=None,
                   help="WxH rectangular container for jigsaw, atris and satris "
                        "(random draws its own)")
    p.add_argument("--pixel-range", dest="pixel_size_range", type=_parse_range,
                   default=None, help="atris/satris pixel sizes, lo:hi")
    p.add_argument("--shear-prob", dest="shear_probability", type=_fraction,
                   default=None)
    # the metavar lists what the flag accepts: the values, not the members
    p.add_argument("--value-kind", dest="value_kind", type=ValueKind,
                   choices=list(ValueKind), default=None,
                   metavar="{" + ",".join(k.value for k in ValueKind) + "}")
    p.add_argument("--value-noise", dest="value_noise", type=_fraction,
                   default=None)
    p.add_argument("--value-scale", dest="value_scale", type=_fraction,
                   default=None)
    p.add_argument("--config", default=None, help="key = value config file")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("value", help="re-assign item values on an instance")
    p.add_argument("instance")
    p.add_argument("--kind", default="area",
                   choices=[k.value for k in ValueKind])
    p.add_argument("--noise", type=_fraction, default="0")
    p.add_argument("--scale", type=_fraction, default="1")
    p.add_argument("--no-record", action="store_true",
                   help="do not record the value spec in instance meta")
    _add_common(p, quiet=False)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("solve", help="produce a feasible high-value packing")
    p.add_argument("instance")
    p.add_argument("--budget", type=float, default=60.0, help="seconds")
    p.add_argument("--shelf", action="store_true",
                   help="next-fit decreasing shelf packing instead of the "
                        "solver (axis-aligned rectangular containers)")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="exactly check a solution")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("score", help="leaderboard from verified submission records")
    p.add_argument("--instances", required=True, help="directory of instance JSON")
    p.add_argument("--records", required=True,
                   help="CSV: team,instance,value,timestamp (YYYY-MM-DDTHH:MM:SS[.fff[fff]][Z|+HH:MM])")
    _add_common(p, seed=False, out=False)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("select", help="curate a diverse benchmark subset")
    p.add_argument("--candidates", required=True, help="directory of instance JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--pca-components", dest="pca_components", type=int, default=0)
    p.add_argument("--features-csv", dest="features_csv", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes across instances (at least 1)")
    _add_common(p, out=False)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("render", help="draw an instance (and solution) as SVG")
    p.add_argument("instance")
    p.add_argument("--solution", default=None)
    p.add_argument("--scale", type=float, default=1.0, help="pixels per grid unit")
    p.add_argument("--palette", default="default", choices=sorted(PALETTES))
    p.add_argument("--tray", action="store_true", help="draw unplaced items aside")
    p.add_argument("--force", action="store_true",
                   help="render even when the solution is invalid")
    _add_common(p, seed=False, quiet=False)
    p.set_defaults(func=cmd_render)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except RenderOfInvalidSolution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # ParseError, ValidationError, ValueOverflow, UnknownInstance and
    # InstanceMismatch are ValueErrors; a bad path is a usage error, but
    # not every OSError is (a failed fork is not)
    except (ValueError, GenerationFailed, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
