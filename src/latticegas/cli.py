"""Command-line front end.

Exit codes: 0 success, 1 a mathematical verification failed (for example a
perfection check returned false), 2 usage error. Reports go to standard
output; progress chatter goes to standard error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Optional, Sequence

from . import _lazy

# The library names the handlers call, by the module that defines each. Only
# the modules of the command that runs are loaded: a handler reads a name
# through this module (_cli.verify_forces), which binds it on first use, so
# a patch of latticegas.cli.<name> is what the handler calls. No command calls
# is_perfect (pc check checks the hard-core rule once, then reads the density
# identity); it stays bound for the benchmark, which traces the names it patches.
__getattr__, __dir__ = _lazy(globals(), {
    "configs": ("_perfect_density", "close_packing_scale", "density", "is_admissible_config",
                "is_perfect", "shift_count"),
    "excitations": ("classify_insertion", "excitation_report", "iia_census", "make_insertion",
                    "window_census"),
    "families": ("build_bcc", "build_cubic", "build_d4_family", "build_fcc", "build_layered_2l2",
                 "build_layered_d5", "build_layered_d6_rhombic", "build_layered_d6_tri",
                 "build_phi9", "build_phi10", "pc_census", "sliding_witness", "table_densities"),
    "forces": ("verify_forces",),
    "lattice": ("hnf",),
    "reporting": ("ReportEnvelope", "config_payload", "load_config_file", "load_site_file",
                  "sublattice_csv_rows"),
    "sublattices": ("Quaternion", "classify_classes", "compare_class_counts", "euler_rodrigues",
                    "fcc_census", "r3_brute", "r3_formula"),
})
_cli = sys.modules[__name__]

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1

# The largest --ell or --lmax each command accepts; a larger one is refused
# before any work with exit code 2. Times are on a 2-vCPU host.
# `sublat r3 --brute` scans one 48th of a sphere with about 0.22 ell^2 isqrt
# calls: about 0.15 s at ell = 1000, 0.26 s at 2000 and 2.6 s at 8000, process
# start included.
R3_BRUTE_MAX_ELL = 2000
# The closed forms (`sublat r3`, `sublat enumerate --fcc`) factorize ell by
# trial division, O(sqrt(ell)): 0.1 s for a prime near 10^12, 1 s near 10^14.
FACTORIZE_MAX_ELL = 10**12
# `sublat enumerate` and `sublat classes` enumerate the integer quaternions
# of the divisors of ell, about ell^1.5 work: `enumerate` takes 3-3.5 s and
# `classes` 2.3 s at 4725, the ell <= 5000 with the most sublattices; the
# classification alone takes 3.3 s at 9009.
ENUMERATE_MAX_ELL = 5000
# `table densities` emits one row per l <= lmax, each factorizing l: 0.4 s
# and 0.8 MB of JSON at 10^4, 2.9 s and 9 MB at 10^5.
DENSITIES_MAX_LMAX = 10**4


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _int_tuple(count: int) -> Callable[[str], tuple[int, ...]]:
    """An argparse type: exactly `count` comma-separated integers."""

    def parse(text: str) -> tuple[int, ...]:
        parts = text.split(",")
        if len(parts) != count:
            raise argparse.ArgumentTypeError(f"expected {count} comma-separated integers")
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            raise argparse.ArgumentTypeError("entries must be integers") from None

    return parse


# The command groups, in the order the usage lists them, with their help.
_GROUPS = {
    "forces": "force-table verification",
    "pc": "periodic configurations",
    "table": "summary tables",
    "exc": "excitations over a perfect background",
    "sublat": "cubic sublattices and their symmetry classes",
}


def _build_parser(first: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every group, holding only the subcommands of the group
    that `first`, the first word of the command line, names (a command line
    parses no other group's), or those of all groups when it names none;
    usage, help and error text are the same either way."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--no-json", dest="json", action="store_false",
                        help="emit a plain-text rendering instead of the JSON report")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="worker-count hint; results are identical for any value")

    parser = argparse.ArgumentParser(
        prog="latgas",
        description="Exact-arithmetic toolkit for dense hard-core packings on Z^3.",
    )
    sub = parser.add_subparsers(dest="group", required=True)
    actions = {name: sub.add_parser(name, help=text).add_subparsers(dest="action", required=True)
               for name, text in _GROUPS.items()}
    every = first not in actions

    def command(group: str, name: str, handler: Callable, summary: str) -> argparse.ArgumentParser:
        p = actions[group].add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    if every or first == "forces":
        p_fv = command("forces", "verify", _cmd_forces_verify, "exhaustive ball search for one threshold")
        p_fv.add_argument("--d2", type=int, required=True, help="squared exclusion distance")

    if every or first == "pc":
        p_build = command("pc", "build", _cmd_pc_build, "construct a named family member")
        p_build.add_argument("--d2", type=int, required=True)
        p_build.add_argument("--family", required=True, choices=_FAMILIES)
        p_build.add_argument("--i", type=int, default=0, help="orientation index (layered and phi families)")
        p_build.add_argument("--seq", default=None, help="layer digit word, e.g. 01 or 012")
        p_build.add_argument("--l", type=int, default=None, help="scale parameter (cubic/fcc/bcc/2l2) or variant (phi families)")

        p_check = command("pc", "check", _cmd_pc_check, "admissibility and perfection check")
        p_check.add_argument("--d2", type=int, required=True)
        p_check.add_argument("--in", dest="in", required=True, metavar="FILE",
                             help="configuration JSON (bare payload or a pc build report)")

        p_census = command("pc", "census", _cmd_pc_census, "count distinct perfect configurations")
        p_census.add_argument("--d2", type=int, required=True)

        p_slide = command("pc", "slide", _cmd_pc_slide, "block-swap witness cost")
        p_slide.add_argument("--l", type=int, required=True)
        p_slide.add_argument("--n", type=int, required=True)

    if every or first == "table":
        p_td = command("table", "densities", _cmd_table_densities,
                       "census and density per threshold, all computed")
        p_td.add_argument("--lmax", type=int, default=3,
                          help="append close-packing rows 2l^2 for l up to this bound")

    if every or first == "exc":
        p_cls = command("exc", "classify", _cmd_exc_classify, "type of a single insertion site")
        p_cls.add_argument("--d2", type=int, required=True)
        p_cls.add_argument("--pc", required=True, metavar="FILE")
        p_cls.add_argument("--site", type=_int_tuple(3), required=True, metavar="x,y,z")

        p_rep = command("exc", "report", _cmd_exc_report, "energy accounting for an insertion set")
        p_rep.add_argument("--d2", type=int, required=True)
        p_rep.add_argument("--pc", required=True, metavar="FILE")
        p_rep.add_argument("--insert", required=True, metavar="FILE",
                           help='JSON site list: [[x,y,z],...] or {"sites": [...]}')

        p_iia = command("exc", "iia-density", _cmd_exc_iia_density,
                        "density of lowest-type in-plane insertions")
        p_iia.add_argument("--pc", required=True, metavar="FILE")

        p_win = command("exc", "window-census", _cmd_exc_window_census,
                        "exhaust low-energy insertion sets in a window")
        p_win.add_argument("--d2", type=int, default=5)
        p_win.add_argument("--layers", type=int, default=2)
        p_win.add_argument("--radius", type=int, default=8,
                           help="squared radius of the window ball")
        p_win.add_argument("--pc", default=None, metavar="FILE",
                           help="background configuration (default: the built-in layered one for d2=5)")

    if every or first == "sublat":
        p_enum = command("sublat", "enumerate", _cmd_sublat_enumerate, "all cubic sublattices of one norm")
        p_enum.add_argument("--ell", type=int, required=True)
        p_enum.add_argument("--fcc", action="store_true",
                            help="report the close-packed doublings instead of the raw list")
        p_enum.add_argument("--format", choices=["json", "csv"], default="json")

        p_classes = command("sublat", "classes", _cmd_sublat_classes,
                            "symmetry classes plus formula comparison")
        p_classes.add_argument("--ell", type=int, required=True)

        p_r3 = command("sublat", "r3", _cmd_sublat_r3, "representations of ell^2 as three squares")
        p_r3.add_argument("--ell", type=int, required=True)
        p_r3.add_argument("--brute", action="store_true", help="count by brute force instead of the closed form")

        p_quat = command("sublat", "quaternion", _cmd_sublat_quaternion,
                         "rotation matrix and sublattice of one integer quaternion")
        p_quat.add_argument("quaternion", type=_int_tuple(4), metavar="a,b,c,d")

    return parser


# --- subcommand bodies ---------------------------------------------------------
#
# Each handler returns (results, verified): the results as library values, and
# whether the verification the command makes held. run alone renders the
# report, echoing the parsed parameters as its inputs, and picks the exit code.

Outcome = tuple[dict[str, Any], bool]


def _cmd_forces_verify(args: argparse.Namespace) -> Outcome:
    _progress(f"searching the d2={args.d2} ball exhaustively...")
    report = _cli.verify_forces(args.d2)
    results = {
        "d2": report.d2,
        "config_count": report.config_count,
        "fstar": report.fstar,
        "second_max": report.second_max,
        "max_occupancy": report.max_occupancy,
        "signatures": report.signatures,
    }
    return results, report.fstar == 1


# Each family's builder and the options it takes, in the builder's argument
# order. --i defaults to 0, which for phi9 means axis 1. pc build refuses an
# option its family does not take (for --i, any value but 0).
_FAMILIES = {
    "cubic": ("build_cubic", ("l",)),
    "fcc": ("build_fcc", ("l",)),
    "bcc": ("build_bcc", ("l",)),
    "d4": ("build_d4_family", ()),
    "d5": ("build_layered_d5", ("i", "seq")),
    "d6tri": ("build_layered_d6_tri", ("i", "seq")),
    "d6rh": ("build_layered_d6_rhombic", ("i", "seq")),
    "phi9": ("build_phi9", ("i", "l")),
    "phi10": ("build_phi10", ("i", "l")),
    "2l2": ("build_layered_2l2", ("l", "i", "seq")),
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _require_in(name: str, value: int, lo: int, hi: int) -> None:
    _require(lo <= value <= hi, f"{name} must be between {lo} and {hi}, got {value}")


def _cmd_pc_build(args: argparse.Namespace) -> Outcome:
    builder, options = _FAMILIES[args.family]
    for opt, default in (("i", 0), ("seq", None), ("l", None)):
        value, taken = getattr(args, opt), opt in options
        _require(not taken or value is not None, f"--family {args.family} needs --{opt}")
        _require(taken or value == default, f"--family {args.family} does not take --{opt}")
    values = [getattr(args, opt) for opt in options]
    if args.family == "phi9":
        values[0] = values[0] or 1
    pc = getattr(_cli, builder)(*values)
    _require(pc.context_d2 == args.d2,
             f"--family {args.family} builds a d2={pc.context_d2} configuration, not d2={args.d2}")
    return _cli.config_payload(pc, args.d2), True


def _cmd_pc_check(args: argparse.Namespace) -> Outcome:
    pc = _cli.load_config_file(getattr(args, "in"), hard_core=False)
    admissible = _cli.is_admissible_config(pc, args.d2)
    perfect = admissible and _cli._perfect_density(pc, args.d2)
    results = {
        "admissible": admissible,
        "perfect": perfect,
        "density": _cli.density(pc),
        "shift_count": _cli.shift_count(pc),
    }
    return results, perfect


def _cmd_pc_census(args: argparse.Namespace) -> Outcome:
    _progress(f"enumerating perfect configurations at d2={args.d2}...")
    return {"census": _cli.pc_census(args.d2)}, True


def _cmd_pc_slide(args: argparse.Namespace) -> Outcome:
    removed = _cli.sliding_witness(args.l, args.n)
    bound = 2 * args.l * args.l
    results = {"removed": removed, "bound": bound, "within_bound": removed <= bound}
    return results, removed <= bound


def _cmd_table_densities(args: argparse.Namespace) -> Outcome:
    _require_in("--lmax", args.lmax, 0, DENSITIES_MAX_LMAX)
    return {"rows": _cli.table_densities(range(1, args.lmax + 1))}, True


def _cmd_exc_classify(args: argparse.Namespace) -> Outcome:
    pc = _cli.load_config_file(args.pc, args.d2)
    kind = _cli.classify_insertion(pc, args.site, args.d2)
    return {"site": args.site, "type": kind}, True


def _cmd_exc_report(args: argparse.Namespace) -> Outcome:
    pc = _cli.load_config_file(args.pc, args.d2)
    sites = _cli.load_site_file(args.insert)
    insertion = _cli.make_insertion(pc, args.d2, sites)
    rep = _cli.excitation_report(pc, insertion, args.d2)
    results = {
        "inserted": rep.inserted_count,
        "repelled": rep.repelled,
        "energy": rep.energy,
        "excesses": sorted(rep.excesses.items()),
        "type": rep.type,
        "background_perfect": rep.background_perfect,
    }
    return results, True


def _infer_layer_scale(pc) -> Optional[int]:
    d2 = pc.context_d2
    if d2 is None or d2 == 5:
        return None
    l = _cli.close_packing_scale(d2)
    _require(l is not None, f"iia-density needs a layered configuration, got d2={d2}")
    return l


def _cmd_exc_iia_density(args: argparse.Namespace) -> Outcome:
    pc = _cli.load_config_file(args.pc)
    count, dens = _cli.iia_census(pc, _infer_layer_scale(pc))
    return {"count": count, "density": dens}, True


def _cmd_exc_window_census(args: argparse.Namespace) -> Outcome:
    if args.pc is not None:
        pc = _cli.load_config_file(args.pc, args.d2)
    else:
        _require(args.d2 == 5, "window-census without --pc only supports --d2 5")
        pc = _cli.build_layered_d5(0, "01")
    _progress(f"scanning insertion sets (layers={args.layers}, radius={args.radius})...")
    census = _cli.window_census(pc, args.d2, args.layers, args.radius)
    results = {
        "window_sites": census.window_sites,
        "sets_scanned": census.sets_scanned,
        "survivors": census.low_energy_terminal,
        "all_terminal_iia": census.all_terminal_iia,
    }
    return results, census.all_terminal_iia


def _cmd_sublat_enumerate(args: argparse.Namespace) -> Outcome:
    _require(not (args.fcc and args.format == "csv"), "--fcc reports a census, which has no CSV form")
    _require_in("--ell", args.ell, 1, FACTORIZE_MAX_ELL if args.fcc else ENUMERATE_MAX_ELL)
    if args.fcc:
        report = _cli.fcc_census(args.ell)
        results = {
            "fcc_sublattices": report.fcc_sublattices,
            "pcs_total": report.pcs_total,
            "flagged_layered_continuum": report.flagged_layered_continuum,
        }
        return results, True
    _progress(f"enumerating cubic sublattices of norm {args.ell}...")
    classes = _cli.classify_classes(args.ell)
    results = {
        "count": sum(cl.size for cl in classes),
        "sublattices": [
            {"basis": member, "class_id": idx, "stabilizer_order": cl.stabilizer_order}
            for idx, cl in enumerate(classes, start=1)
            for member in cl.members
        ],
    }
    return results, True


def _cmd_sublat_classes(args: argparse.Namespace) -> Outcome:
    _require_in("--ell", args.ell, 1, ENUMERATE_MAX_ELL)
    cmp = _cli.compare_class_counts(args.ell)
    results = {
        "classes": [
            {
                "size": cl.size,
                "stabilizer_order": cl.stabilizer_order,
                "representative": cl.representative,
                "parameters": cl.parameters,
            }
            for cl in cmp.classes
        ],
        "oracle_histogram": cmp.oracle,
        "predicted_histogram": cmp.predicted,
        "mismatched_sizes": cmp.mismatched_sizes,
    }
    return results, True


def _cmd_sublat_r3(args: argparse.Namespace) -> Outcome:
    _require_in("--ell", args.ell, 1, R3_BRUTE_MAX_ELL if args.brute else FACTORIZE_MAX_ELL)
    value = _cli.r3_brute(args.ell * args.ell) if args.brute else _cli.r3_formula(args.ell)
    results = {"ell": args.ell, "r3": value, "method": "brute" if args.brute else "formula"}
    return results, True


def _cmd_sublat_quaternion(args: argparse.Namespace) -> Outcome:
    q = _cli.Quaternion(*args.quaternion)
    rows = _cli.euler_rodrigues(q)
    results = {
        "quaternion": args.quaternion,
        "norm_sq": q.norm_sq,
        "matrix": rows,
        "sublattice_basis": _cli.hnf(rows),
    }
    return results, True


def run(argv: Sequence[str]) -> int:
    """Parse, execute and render the report; returns the process exit code.

    The report is the JSON envelope, its --no-json text, or, for
    `sublat enumerate --format csv`, one CSV row per sublattice entry.
    """
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage problems
        return int(exc.code or 0)
    # the report echoes the parsed parameters but the subcommand and the rendering
    rendering = ("group", "action", "handler", "json", "format", "threads")
    inputs = {k: v for k, v in vars(args).items() if k not in rendering}
    try:
        results, verified = args.handler(args)
        if getattr(args, "format", None) == "csv":
            sys.stdout.write("\n".join(_cli.sublattice_csv_rows(results["sublattices"])) + "\n")
        else:
            report = _cli.ReportEnvelope(tuple(argv), inputs, results)
            sys.stdout.write(report.to_json() if args.json else report.to_text())
    except (ValueError, OSError) as exc:  # UnsupportedThresholdError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if verified else VERIFICATION_FAILURE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
