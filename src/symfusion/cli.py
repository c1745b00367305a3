"""Command-line front end: construct, certify, search, and tabulate ensembles.

Exit status contract: 0 completed; 2 user/argument error; 3 resource cap;
4 construction certified differently from the theory's prediction.
Options --tolerance and --max-dim also resolve from environment variables
(SYMFUSION_TOLERANCE, SYMFUSION_MAX_DIM) and from a JSON config file
(--config PATH or SYMFUSION_CONFIG), with precedence flag > env > file.
A dimension cap below 0, from any of them, is a user error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import replace

from . import constructions as cons
from . import ensemble_io as eio
from .errors import EnsembleFormatError, ResourceLimitError, SymfusionError
from .fusion import DEFAULT_TOL, FusionEnsemble, _check_tolerance, certify
from .permutations import Permutation
from .tableaux import Partition, _int_tokens, dimension

EXIT_OK = 0
EXIT_USER = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4

# Files in need of certification are admitted if their blocks are merely near
# isometries; the report then exposes any defect.  Strict 1e-9 validation
# applies when loading through the library API.
CERTIFY_LOAD_GUARD = 1e-2

EPILOG = (
    "Composition convention: permutations compose with the right factor acting "
    "first, (1 2)(2 3) = (1 2 3).  GAP composes the opposite way; invert any "
    "permutation data imported from such tools."
)


def _load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("SYMFUSION_CONFIG")
    if path is None:
        return {}
    try:
        config = eio.read_json(path)
    except (OSError, SymfusionError) as exc:
        raise SymfusionError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise SymfusionError(f"config file {path} must hold a JSON object, got {type(config).__name__}")
    return config


# JSON types a config value may have, by the type of its flag; bool is excluded
_CONFIG_TYPES = {float: (int, float), int: (int,)}


def _resolve(flag_value, env_name: str, config: dict, key: str, default, cast):
    if flag_value is not None:
        value = flag_value
    elif env_name in os.environ:
        value = os.environ[env_name]
    elif key in config:
        value = config[key]
        if type(value) not in _CONFIG_TYPES[cast]:
            raise SymfusionError(f"invalid {key} {value!r} in config: not a JSON {cast.__name__}")
    else:
        return default
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SymfusionError(f"invalid {key} {value!r}: {exc}") from exc


def _resolve_tolerance(args, config: dict) -> float:
    """The tolerance from flag, env or config; it must be finite and positive."""
    return _check_tolerance(_resolve(args.tolerance, "SYMFUSION_TOLERANCE", config, "tolerance", DEFAULT_TOL, float))


def _check_cap(cap: int, name: str) -> int:
    """A dimension cap must be at least 0; a cap of 0 admits nothing."""
    if cap < 0:
        raise SymfusionError(f"invalid {name} {cap}: a dimension cap must be at least 0")
    return cap


def _resolve_max_dim(args, config: dict, default: int) -> int:
    """--max-dim from flag, env or config, checked as a cap."""
    return _check_cap(_resolve(args.max_dim, "SYMFUSION_MAX_DIM", config, "max_dim", default, int), "max_dim")


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return code


def _cycle_transversal(n: int) -> list[Permutation]:
    """The powers c, c^2, ..., c^n = 1 of the n-cycle c = (1 2 ... n); c^k(n) = k."""
    return [Permutation((x + k) % n + 1 for x in range(n)) for k in range(1, n + 1)]


def _parse_transversal(spec: str | None, n: int):
    """None for the default, the cycle's powers as a function of n, or the permutations
    of an @file; the builder validates what it is given, after its cap."""
    if spec is None or spec == "default":
        return None
    if spec == "cycle":
        return _cycle_transversal
    if spec.startswith("@"):
        entries = eio.read_json(spec[1:])
        if not isinstance(entries, list) or not all(isinstance(t, str) for t in entries):
            raise SymfusionError(f"{spec[1:]} must hold a JSON list of permutation strings")
        return [Permutation.parse(text, n=n) for text in entries]
    raise SymfusionError(f"unknown transversal spec {spec!r}; use default|cycle|@file")


def _check_destination(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would, creating nothing."""
    parent = os.path.dirname(path) or "."
    code = errno.EISDIR if os.path.isdir(path) else 0 if os.path.isdir(parent) else (
        errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    if code:
        raise OSError(code, os.strerror(code), path)


def _emit_ensemble(e: FusionEnsemble, report, args) -> None:
    if getattr(args, "csv", None):  # first: it refuses a complex ensemble before opening a file
        eio.save_synthesis_csv(e, args.csv)
    if args.out:
        eio.save_ensemble(e, args.out)
    print(report.summary())
    if args.json:
        print(report.to_json())


def cmd_construct(args, config) -> int:
    tol = _resolve_tolerance(args, config)
    max_dim = _resolve_max_dim(args, config, cons.DEFAULT_MAX_DIM)
    kind = args.kind
    mu = layers = None
    for path in filter(None, (args.out, args.csv)):  # fail before any work
        _check_destination(path)
    if kind == "generic":
        spec = eio.read_json(args.spec)
        if not isinstance(spec, dict) or not isinstance(spec.get("generators"), dict):
            raise SymfusionError(f"{args.spec} must hold a JSON object with a generators object")
        missing = [key for key in ("isometry", "transversal_words") if key not in spec]
        if missing:
            raise EnsembleFormatError(f"{args.spec} lacks {', '.join(missing)}")
        field = spec.get("field")
        gens = {name: eio._decode_matrix(m, field, f"generator {name!r}") for name, m in spec["generators"].items()}
        iso = eio._decode_matrix(spec["isometry"], field, "isometry")
        e = cons.generic_orbit_ensemble(gens, spec["transversal_words"], iso, field=field, tol=tol)
    else:
        mu = Partition.parse(args.mu)
        if kind == "single-layer":
            lam = Partition.parse(args.lam)
            ts = _parse_transversal(args.transversal, lam.n)
            e = cons.single_layer_ensemble(lam, mu, transversal=ts, tol=tol, max_dim=max_dim)
            layers = (lam,)
        else:
            if args.layers is not None:  # else --delta, the parser takes exactly one
                sel = cons.LayerSelection(mu, tuple(_int_tokens(args.layers.split(","), f"--layers {args.layers!r}")))
            else:
                sel = cons.LayerSelection.from_delta(mu, args.delta)
            layers = sel.partitions
            ts = _parse_transversal(args.transversal, mu.n + 1)
            if kind == "multi-layer":
                e = cons.multi_layer_ensemble(sel, transversal=ts, tol=tol, max_dim=max_dim)
            else:
                e = cons.alternating_ensemble(sel, args.epsilon, transversal=ts, tol=tol, max_dim=max_dim)

    report = certify(e, tol)
    _emit_ensemble(e, report, args)
    if layers is None:  # a generic orbit has no prediction
        return EXIT_OK
    # the distance condition on mu's layer sums predicts every named kind, and for an
    # EITFF alpha = (n d_mu |s_1| / d_L)^2, the exact certificate's formula over any layers
    holds, sums = cons.distance_condition(mu, layers)
    predicted = "EITFF" if holds else "ECTFF"
    if report.classification != predicted:
        return _fail(SymfusionError(f"certified {report.classification}, theory predicts {predicted}"), EXIT_MISMATCH)
    if holds:
        exact = ((mu.n + 1) * dimension(mu) * abs(sums[0]) / sum(map(dimension, layers))) ** 2
        if not abs(report.isoclinism_alpha - float(exact)) <= tol:
            return _fail(SymfusionError(f"certified alpha {report.isoclinism_alpha!r}, the exact certificate "
                                        f"gives {exact}"), EXIT_MISMATCH)
    return EXIT_OK


def cmd_certify(args, config) -> int:
    tol = _resolve_tolerance(args, config)
    print(certify(eio.load_ensemble(args.infile, tol=CERTIFY_LOAD_GUARD), tol).to_json())
    return EXIT_OK


def cmd_search(args, config) -> int:
    # json.dumps' bytes from one encoder for every line; a record holds no container twice
    encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
    sys.stdout.write("".join(encode(cert.to_json_dict()) + "\n" for cert in cons.search_isoclinic(args.max_n)))
    return EXIT_OK


def cmd_table(args, config) -> int:
    max_dim = _resolve_max_dim(args, config, 500)
    certify_max_dim = _check_cap(args.certify_max_dim, "certify_max_dim")
    rows = cons.sn_table(max_dim) if args.group == "sn" else cons.an_table(max_dim)
    if certify_max_dim:
        rows = [_certify_row(row, certify_max_dim) for row in rows]
    if args.json:
        print(json.dumps([row.to_json_dict() for row in rows], indent=1))
        return EXIT_OK
    header = f"{'F':>2} {'d':>6} {'r':>6} {'n':>4} {'alpha':>8}  {'family':<12} {'certified':<9}"
    print(header)
    for row in rows:
        fam = f"{row.family}(a={row.a}" + (f",b={row.b}" if row.b is not None else "") + (
            f",c={row.c}" if row.c is not None else ""
        ) + (f",delta={row.delta}" if row.delta is not None else "") + ")"
        cert = "-" if row.certified is None else ("yes" if row.certified else "no")
        print(f"{row.field:>2} {row.d:>6} {row.r:>6} {row.n:>4} {str(row.alpha):>8}  {fam:<12} {cert:<9}")
    return EXIT_OK


def _certify_row(row: cons.TableRow, cap: int) -> cons.TableRow:
    """The row with ``certified`` set: None when not attempted, because d exceeds
    ``cap`` or the construction cap refuses the build before any matrix exists."""
    if row.d > cap:
        return replace(row, certified=None)
    try:
        if row.family == "alternating":
            mu = cons.alternating_shapes(row.a, row.c)
            sel = cons.LayerSelection.from_delta(mu, row.delta)
            e = cons.alternating_ensemble(sel, "+")
        else:
            lam, mu = cons.single_layer_shapes(row.family, row.a, row.b, row.c)
            e = cons.single_layer_ensemble(lam, mu)
        report = certify(e)
        ok = (
            report.classification == "EITFF"
            and report.isoclinism_alpha is not None
            and abs(report.isoclinism_alpha - float(row.alpha)) <= 1e-9
        )
        return replace(row, certified=ok)
    except ResourceLimitError:
        return replace(row, certified=None)
    except SymfusionError:
        return replace(row, certified=False)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error, in its subparsers too, leaves main as exit 2 and a JSON error
        raise SymfusionError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symfusion",
        description="Construct and certify tight fusion frames with S_n / A_n symmetry.",
        epilog=EPILOG,
    )
    parser.add_argument("--config", help="JSON config file for shared options")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build an ensemble and certify it", epilog=EPILOG)
    con_sub = p_con.add_subparsers(dest="kind", required=True)

    def add_common(p):
        p.add_argument("--out", help="write the ensemble JSON here")
        p.add_argument("--csv", help="write the synthesis matrix CSV here (real only)")
        p.add_argument("--json", action="store_true", help="print the full report JSON")
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--max-dim", type=int, default=None, dest="max_dim")
        p.set_defaults(func=cmd_construct)

    p1 = con_sub.add_parser("single-layer")
    p1.add_argument("--lambda", required=True, dest="lam", help="partition, e.g. 3,2")
    p1.add_argument("--mu", required=True, help="partition obtained by removing one box")
    p1.add_argument("--transversal", default=None, help="default|cycle|@file")
    add_common(p1)

    p2 = con_sub.add_parser("multi-layer")
    p2.add_argument("--mu", required=True)
    layers2 = p2.add_mutually_exclusive_group(required=True)
    layers2.add_argument("--delta", type=int, choices=(0, 1), default=None)
    layers2.add_argument("--layers", default=None, help="comma-separated 0-based cover indices")
    p2.add_argument("--transversal", default=None, help="default|cycle|@file")
    add_common(p2)

    p3 = con_sub.add_parser("alternating")
    p3.add_argument("--mu", required=True)
    layers3 = p3.add_mutually_exclusive_group(required=True)
    layers3.add_argument("--delta", type=int, choices=(0, 1), default=None)
    layers3.add_argument("--layers", default=None)
    p3.add_argument("--epsilon", choices=("+", "-"), default="+")
    p3.add_argument("--transversal", default=None, help="default|@file (must be even)")
    add_common(p3)

    p4 = con_sub.add_parser("generic")
    p4.add_argument("--spec", required=True, help="JSON with generators, transversal_words, isometry")
    add_common(p4)

    p_cert = sub.add_parser("certify", help="analyze an ensemble file")
    p_cert.add_argument("--in", dest="infile", required=True)
    p_cert.add_argument("--tolerance", type=float, default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_search = sub.add_parser("search-isoclinic", help="exact certificates for all isoclinic partitions")
    p_search.add_argument("--max-n", dest="max_n", type=int, required=True)
    p_search.set_defaults(func=cmd_search)

    p_table = sub.add_parser("table", help="parameter tables from the exact family formulas")
    p_table.add_argument("group", choices=("sn", "an"))
    p_table.add_argument("--max-dim", dest="max_dim", type=int, default=None)
    p_table.add_argument("--certify-max-dim", dest="certify_max_dim", type=int, default=0,
                         help="also construct-and-certify rows with d up to this bound")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every error it raises is mapped to its exit code here."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, _load_config(args.config))
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # e.g. `| head`: stop quietly, and let shutdown flush into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ResourceLimitError as exc:
        return _fail(exc, EXIT_RESOURCE)
    except (SymfusionError, OSError) as exc:
        return _fail(exc, EXIT_USER)


if __name__ == "__main__":
    sys.exit(main())
