"""Command-line front-end: computations in, tables/JSON/CSV out.

Exit codes: 0 success, 2 domain error, 3 verification-report failure,
64 usage error.  All numbers print with 12 significant digits; CSV files
carry a versioned header.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from . import area_bounds, filler, flat_torus, sweepout
from . import tube_geometry as tubes
from .errors import (DomainError, SolveError, as_float, as_floats, as_index, as_int, as_list,
                     as_object, json_fields, load_json)
from .flat_torus import FlatTorusLattice
from .warped_metric import spec_from_json

CSV_HEADER = "# thinpart-csv v1"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_USAGE = 64


def fmt(x) -> str:
    return format(float(x), ".12g")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class ManifoldDescription:
    """Thin-part description: cusp pieces, tube pieces, filler caps."""

    cusps: list = field(default_factory=list)
    tubes: list = field(default_factory=list)
    fillers: list = field(default_factory=list)
    attachments: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ManifoldDescription":
        """The manifold of a JSON object with optional lists "cusps",
        "tubes" and "fillers".  A DomainError names the entry at fault by
        its path (``cusps[0]``, ``tubes[1]``, ``fillers[0].lattice``)."""
        desc = cls()
        cusps, tube_entries, filler_entries = json_fields(
            "manifold", data, cusps=[], tubes=[], fillers=[])
        for idx, entry in enumerate(as_list("cusps", cusps)):
            name = f"cusps[{idx}]"
            lattice, t0, t1 = json_fields(name, entry, "lattice", "t0", "t1")
            lattice = _entry(f"{name}.lattice", FlatTorusLattice.from_json_dict, lattice)
            desc.cusps.append(_entry(name, tubes.CuspParams, lattice, as_float(f"{name}.t0", t0),
                                     as_float(f"{name}.t1", t1)))
        for idx, entry in enumerate(as_list("tubes", tube_entries)):
            name = f"tubes[{idx}]"
            desc.tubes.append(_entry(name, tubes.TubeParams.from_json_dict,
                                     as_object(name, entry)))
        for idx, entry in enumerate(as_list("fillers", filler_entries)):
            name = f"fillers[{idx}]"
            depth, lattice, attach = json_fields(name, entry, "L", lattice=None, attach=None)
            depth = as_float(f"{name}.L", depth)
            if lattice is not None:
                lat = _entry(f"{name}.lattice", FlatTorusLattice.from_json_dict, lattice)
            elif attach is not None:
                attach = as_index(f"{name}.attach", attach, len(desc.cusps))
                lat = desc.cusps[attach].filler_lattice
                desc.attachments[idx] = attach
            else:
                raise DomainError(f"{name}: filler entry needs 'lattice' or 'attach'")
            desc.fillers.append(_entry(name, filler.build, depth, lat))
        return desc


def _entry(path: str, reader, *args):
    """``reader(*args)`` for the entry at ``path`` of a document: a
    DomainError raised inside the reader or constructor, which names only
    its own object ("tube", "lattice") or none, is raised again prefixed
    by the path.  Arguments are read before the call, so a message that
    names the entry already gets no second prefix."""
    try:
        return reader(*args)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _parse_literal(text: str, sep: str, convert, count: int, error: str) -> tuple:
    """The ``count`` parts of ``text`` between the separators ``sep`` (in
    any case), each read by ``convert``; a DomainError with ``error``,
    which shows the expected form, otherwise."""
    try:
        values = tuple(map(convert, text.lower().split(sep)))
    except ValueError:
        values = ()
    if len(values) != count:
        raise DomainError(error)
    return values


def parse_lattice_literal(text: str) -> FlatTorusLattice:
    """Lattice literal "a1,a2,b2"."""
    return FlatTorusLattice(*_parse_literal(
        text, ",", float, 3, f"bad lattice literal {text!r}: must look like a1,a2,b2"))


def _emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, indent=2))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            print(f"{key:28s} {fmt(value)}")
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], float):
            print(f"{key:28s} " + "  ".join(fmt(v) for v in value))
        else:
            print(f"{key:28s} {value}")


def _write_csv(path, columns, rows):
    """A versioned CSV file, one line per row: floats with 12 significant
    digits (the bytes ``fmt`` gives), other values through str.  Every
    row has the value types of the first, so one %-template formats
    each row in one call."""
    lines = [CSV_HEADER, "# columns: " + ",".join(columns)]
    if rows:
        template = ",".join("%.12g" if isinstance(x, float) else "%s" for x in rows[0])
        lines += [template % tuple(row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ------------------------------------------------------------- subcommands


def _cmd_meyerhoff(args) -> int:
    radius = tubes.meyerhoff_radius(args.length)
    _emit({"length": args.length, "radius": radius}, args.json)
    return EXIT_OK


def _cmd_tube(args) -> int:
    length = args.length
    r_meyerhoff = tubes.meyerhoff_radius(length)
    radius = r_meyerhoff if args.radius is None else args.radius
    params = tubes.TubeParams(length, args.twist, radius)
    lat = tubes.boundary_lattice(params, radius)
    _, sys_length, diam = flat_torus.reduced_invariants(lat)
    payload = {
        "length": length,
        "twist": args.twist,
        "radius": radius,
        "meyerhoff_radius": r_meyerhoff,
        "boundary_v1": [lat.a1, 0.0],
        "boundary_v2": [lat.a2, lat.b2],
        "systole": sys_length,
        "diameter": diam,
        "slice_area": tubes.slice_area(length, radius),
        "mean_curvature": tubes.slice_mean_curvature(radius),
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    lat = parse_lattice_literal(args.lattice)
    red, sys_length, diam = flat_torus.reduced_invariants(lat)
    payload = {
        "input": lat.to_json_dict(),
        "reduced": red.to_json_dict(),
        "systole": sys_length,
        "diameter": diam,
        "area": lat.area,
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    if args.bound == "disk":
        _emit({"R": args.R, "area": area_bounds.parallel_disk_area(args.R)}, args.json)
    elif args.bound == "band":
        est = area_bounds.BandEstimate(args.rho1, args.rho2, args.sys, args.RL)
        bound, intermediate = area_bounds.annulus_band_bound(est)
        _emit({"bound": bound, "intermediate": intermediate}, args.json)
    elif args.bound == "crossing":
        cb = area_bounds.crossing_lower_bound(args.R, args.RL, args.sys, args.kpp)
        _emit(
            {
                "chain": cb.chain,
                "simplified": cb.simplified,
                "kappa2": cb.kappa2,
                "kappa3": cb.kappa3,
            },
            args.json,
        )
    else:
        _emit(
            {
                "eps": args.eps,
                "area": area_bounds.margulis_area_bound(args.eps),
                "margulis_epsilon_lower": area_bounds.MARGULIS_EPSILON_LOWER,
            },
            args.json,
        )
    return EXIT_OK


def _cmd_filler(args) -> int:
    if args.action == "build":
        lat = parse_lattice_literal(args.lattice)
        spec = filler.build(args.L, lat)
        filler.save(spec, args.out)
        _emit(
            {
                "out": args.out,
                "depth": spec.depth,
                "collapse_slope": spec.collapse_slope,
                "core_height": spec.core_height,
            },
            args.json,
        )
        return EXIT_OK
    spec = filler.load(args.spec)
    bound = filler.area_lower_bound(spec, args.c)
    report = filler.verify(spec, grid=args.grid)
    payload = {
        "flat_levels": report.flat_levels,
        "diameters_strictly_decreasing": report.diameters_strictly_decreasing,
        "mean_convex": report.mean_convex,
        "boundary_collar_exact": report.boundary_collar_exact,
        "continuous_at_collar": report.continuous_at_collar,
        "profile_cap": report.profile_cap,
        "ramp_flatness_sup": report.ramp_flatness_sup,
        "core_theta_slope": report.core_theta_slope,
        "core_z_slope": report.core_z_slope,
        "core_theta_constant": report.core_theta_constant,
        "core_z_constant": report.core_z_constant,
        "ball_count_note": report.ball_count_note,
        "area_lower_bound": bound.bound,
        "kappa": bound.kappa,
        "monotonicity_constant": bound.monotonicity_constant,
        "ball_count": bound.ball_count,
        "passed": report.passed,
    }
    _emit(payload, args.json)
    return EXIT_OK if report.passed else EXIT_VERIFY


def _boundary_function(bc: dict):
    (kind,) = json_fields("boundary data", bc, "kind")
    if kind == "affine":
        (coeffs,) = json_fields("affine boundary data", bc, "coeffs")
        c0, c1, c2 = as_floats("coeffs", coeffs, 3)
        return lambda x, y: c0 + c1 * x + c2 * y
    if kind == "constant":
        (value,) = json_fields("constant boundary data", bc, "value")
        v = as_float("value", value)
        return lambda x, y: v + 0.0 * x
    raise DomainError(f"unsupported boundary data kind {kind!r}")


def _cmd_graph(args) -> int:
    # The solver loads scipy.sparse; only this command pays for it.
    from . import minimal_graph

    spec = load_json(args.metric, spec_from_json)
    fn = load_json(args.bc, _boundary_function)
    shape = _parse_literal(args.grid, "x", int, 2,
                           f"grid must look like 64x64, got {args.grid!r}")
    if args.domain == "torus":
        init = minimal_graph.DiscreteGraph.on_torus(spec.lattice, shape, fn)
    else:
        periodic = (True, False) if args.domain == "stripe" else (False, False)
        extent = _parse_literal(args.extent, "x", float, 2,
                                f"extent must look like 1.0x1.0, got {args.extent!r}")
        init = minimal_graph.DiscreteGraph.on_rectangle(
            extent, shape, fn, periodic=periodic
        )
    try:
        out, report = minimal_graph.solve(
            spec, init, tol=args.tol, max_iter=args.max_iter
        )
    except SolveError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    # Row-major grid of u: one CSV line per x1 row.
    _write_csv(args.out, [f"u[:,{j}]" for j in range(out.shape[1])],
               out.values.tolist())
    _emit(
        {
            "out": args.out,
            "iterations": report.iterations,
            "final_residual": report.final_residual,
            "pinned_mean": report.pinned_mean,
            "factorizations": report.factorizations,
            "linear_iterations": report.linear_iterations,
            "linear_solvers": report.linear_solvers,
            "coarse_grids": [asdict(c) for c in report.coarse_grids],
            "grid": f"{shape[0]}x{shape[1]}",
        },
        args.json,
    )
    return EXIT_OK


def _family_from_json(data: dict) -> sweepout.DiscreteFamily:
    level, currents = json_fields("family", data, "level", "currents")
    entries = []
    for i, current in enumerate(as_list("currents", currents)):
        patches = []
        for j, entry in enumerate(as_list(f"currents[{i}]", current)):
            name = f"currents[{i}][{j}]"
            patch, mult, area = json_fields(name, entry, "patch", "multiplicity", "area")
            patches.append((patch, as_int(f"{name}.multiplicity", mult),
                            as_float(f"{name}.area", area)))
        entries.append(sweepout.FormalCurrent(tuple(patches)))
    return sweepout.DiscreteFamily(as_int("level", level), tuple(entries))


def _cmd_sweepout(args) -> int:
    if args.action == "profile":
        desc = load_json(args.manifold, ManifoldDescription.from_json_dict)
        prof = sweepout.profile(
            cusps=desc.cusps,
            tubes=desc.tubes,
            fillers=desc.fillers,
            attachments=desc.attachments,
            samples=args.samples,
        )
        rows = prof.samples()
        if args.emit == "csv":
            target = args.out or "profile.csv"
            _write_csv(target, ["t", "segment", "area"], rows)
            _emit(
                {"out": target, "width_upper_bound": prof.width_upper_bound},
                args.json,
            )
        else:
            payload = {
                "width_upper_bound": prof.width_upper_bound,
                "samples": [[t, label, a] for t, label, a in rows],
            }
            if args.out:
                # One json.dumps call: json.dump streams through the
                # pure-Python encoder, several times slower on the samples.
                with open(args.out, "w") as fh:
                    fh.write(json.dumps(payload))
                _emit({"out": args.out,
                       "width_upper_bound": prof.width_upper_bound}, args.json)
            else:
                print(json.dumps(payload))
        return EXIT_OK
    fam = load_json(args.family, _family_from_json)
    _emit(
        {
            "level": fam.level,
            "fineness": sweepout.fineness(fam),
            "max_mass": sweepout.max_mass(fam),
            "zero_anchored": fam.is_zero_anchored,
        },
        args.json,
    )
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    p = _Parser(prog="thinpart", description=__doc__)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    sub = p.add_subparsers(dest="command", required=True)

    mey = sub.add_parser("meyerhoff", help="guaranteed embedded tube radius")
    mey.add_argument("--length", type=float, required=True)
    mey.set_defaults(func=_cmd_meyerhoff)

    tube = sub.add_parser("tube", help="tube geometry summary")
    tube.add_argument("--length", type=float, required=True)
    tube.add_argument("--twist", type=float, default=0.0)
    tube.add_argument("--radius", type=float, default=None)
    tube.set_defaults(func=_cmd_tube)

    lat = sub.add_parser("lattice", help="reduce a lattice; systole/diameter")
    lat.add_argument("--lattice", required=True, help="literal a1,a2,b2")
    lat.set_defaults(func=_cmd_lattice)

    bounds = sub.add_parser("bounds", help="explicit area bounds")
    bsub = bounds.add_subparsers(dest="bound", required=True)
    disk = bsub.add_parser("disk")
    disk.add_argument("--R", type=float, required=True)
    band = bsub.add_parser("band")
    band.add_argument("--rho1", type=float, required=True)
    band.add_argument("--rho2", type=float, required=True)
    band.add_argument("--sys", type=float, required=True)
    band.add_argument("--RL", type=float, required=True)
    crossing = bsub.add_parser("crossing")
    crossing.add_argument("--R", type=float, required=True)
    crossing.add_argument("--RL", type=float, required=True)
    crossing.add_argument("--sys", type=float, required=True)
    crossing.add_argument("--kpp", type=float, default=1.0)
    margulis = bsub.add_parser("margulis")
    margulis.add_argument("--eps", type=float, required=True)
    bounds.set_defaults(func=_cmd_bounds)

    fil = sub.add_parser("filler", help="build or verify a filler")
    fsub = fil.add_subparsers(dest="action", required=True)
    fbuild = fsub.add_parser("build")
    fbuild.add_argument("--L", type=float, required=True)
    fbuild.add_argument("--lattice", required=True, help="literal a1,a2,b2")
    fbuild.add_argument("--out", required=True)
    fverify = fsub.add_parser("verify")
    fverify.add_argument("spec")
    fverify.add_argument("--grid", type=int, default=200)
    fverify.add_argument("--c", type=float, default=math.pi,
                         help="monotonicity constant")
    fil.set_defaults(func=_cmd_filler)

    graph = sub.add_parser("graph", help="solve the minimal-graph equation")
    gsub = graph.add_subparsers(dest="action", required=True)
    gsolve = gsub.add_parser("solve")
    gsolve.add_argument("--metric", required=True, help="metric spec JSON")
    gsolve.add_argument("--domain", choices=["torus", "rect", "stripe"],
                        default="rect")
    gsolve.add_argument("--grid", required=True, help="N1xN2")
    gsolve.add_argument("--extent", default="1.0x1.0", help="X1xX2 (rect/stripe)")
    gsolve.add_argument("--bc", required=True, help="boundary data JSON")
    gsolve.add_argument("--out", required=True, help="output CSV path")
    gsolve.add_argument("--max-iter", type=int, default=60)
    graph.set_defaults(func=_cmd_graph)

    sw = sub.add_parser("sweepout", help="area profiles and fineness")
    ssub = sw.add_subparsers(dest="action", required=True)
    sprof = ssub.add_parser("profile")
    sprof.add_argument("--manifold", required=True, help="manifold JSON")
    sprof.add_argument("--samples", type=int, default=200)
    sprof.add_argument("--emit", choices=["csv", "json"], default="csv")
    sprof.add_argument("--out", default=None)
    sfine = ssub.add_parser("fineness")
    sfine.add_argument("--family", required=True, help="family JSON")
    sw.set_defaults(func=_cmd_sweepout)

    return p


# Parsing leaves the parser as it was, so one tree serves every call in
# a process; building it costs more than most commands.
_shared_parser = functools.lru_cache(maxsize=None)(build_parser)


def run(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        # A missing, unreadable or unwritable path, or a directory given
        # where a file belongs; str(exc) names the path.
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
