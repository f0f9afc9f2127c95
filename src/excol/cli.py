"""Command-line frontend: construct collections, verify them, run sweeps.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 invalid
input (also s + r past MAX_DIM), 3 mutation hypothesis failure (log still
written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import combinations, combinations_with_replacement

from .cohomology import DiskCache
from .errors import BoxTooLarge, InvalidSpec, MutationError, NotACone, UnknownRay
from .fan import Blowup, BundleSpec, CenterSpec, build_projective_bundle_fan, make_blowup
from .mutation import collection_classes, construct
from .verify import certify


def _json(value, pad=""):
    """json.dumps(value, sort_keys=True, indent=2) for a value at indentation
    pad whose dict keys are strings.  A container whose members are all
    scalars is one C-encoder call; only the nesting above those is walked
    here, since indent makes json fall back to its pure-Python encoder."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        return json.dumps(value)
    opener, closer = "{}" if is_dict else "[]"
    if not value:
        return opener + closer
    inner = pad + "  "
    kinds = set(map(type, value.values() if is_dict else value))  # a few types, collected in C
    if not any(issubclass(kind, (dict, list, tuple)) for kind in kinds):
        # indent=None keeps json on its C encoder; the item separator indents
        encoder = json.JSONEncoder(sort_keys=True, separators=(",\n" + inner, ": "))
        body = encoder.encode(value)[1:-1]
    elif is_dict:
        body = f",\n{inner}".join(
            f"{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted(value.items())
        )
    else:
        body = f",\n{inner}".join(_json(v, inner) for v in value)
    return f"{opener}\n{inner}{body}\n{pad}{closer}"


def _dump(doc, path):
    """Write doc as json.dumps(doc, sort_keys=True, indent=2) writes it."""
    text = _json(doc)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# The largest dimension s + r of X a command takes.  S = 200 with r = 1 is the
# largest size any test or measurement has run: its construct file holds
# 51 MB, and a log of S(S+1)/2 entries grows as S^2.
MAX_DIM = 201


def _check_dim(dim):
    if dim > MAX_DIM:
        raise InvalidSpec(f"dimension s + r = {dim} is past the cap of {MAX_DIM}")


def _case(base_dim, fiber_degrees, center):
    """The (BundleSpec, CenterSpec) that a command line or a collection file
    names; InvalidSpec past MAX_DIM, before any fan is built."""
    spec = BundleSpec(s=base_dim, fiber_degrees=fiber_degrees)
    _check_dim(spec.dim)
    return spec, CenterSpec(frozenset(center))


def _collection_doc(bl: Blowup, col):
    return {
        "spec": {"base_dim": bl.spec.s, "fiber_degrees": list(bl.spec.fiber_degrees)},
        "center": sorted(bl.center.ray_names),
        **col.to_json(),
    }


def cmd_construct(args):
    degrees = [int(x) for x in args.fiber_degrees.split(",")]
    spec, center = _case(args.base_dim, degrees, args.center.split(","))
    try:
        bl, col = construct(spec, center)
    except MutationError as exc:
        print(f"mutation hypothesis failed: {exc}", file=sys.stderr)
        _dump({"error": str(exc), "log": list(exc.log)}, args.out)
        return 3
    _dump(_collection_doc(bl, col), args.out)
    return 0


def _read_collection(path):
    """The parsed collection file; ValueError unless it has the shape that
    construct writes (the values are checked by BundleSpec and pic_class)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("spec"), dict)
        and isinstance(doc["spec"].get("fiber_degrees"), list)
        and isinstance(doc.get("center"), list)
        and all(isinstance(name, str) for name in doc["center"])
        and isinstance(doc.get("objects"), list)
        and all(isinstance(o, dict) for o in doc["objects"])
    ):
        raise ValueError(
            f"{path} is not a collection file: it needs a spec with a "
            "fiber_degrees list, a center list of ray names and a list of objects"
        )
    return doc


def cmd_verify(args):
    # a verdict must not rest on cached values: certify from scratch, without
    # a DiskCache
    doc = _read_collection(args.collection)
    bl = make_blowup(*_case(doc["spec"]["base_dim"], doc["spec"]["fiber_degrees"], doc["center"]))
    classes = [
        bl.fan_xt.pic_class((o["alpha"], o["beta"], o["k"]))
        for o in doc["objects"]
        if o["kind"] == "line"
    ]
    if len(classes) != len(doc["objects"]):
        raise ValueError("collection contains non-line-bundle objects")
    report = certify(bl.fan_xt, classes)
    _dump(report.to_json(), args.out)
    return 0 if report.all_passed else 1


def enumerate_specs(max_dim, max_degree):
    """All BundleSpecs with s + r <= max_dim and degrees <= max_degree."""
    out = []
    for s in range(1, max_dim):
        for r in range(1, max_dim - s + 1):
            for degrees in combinations_with_replacement(range(max_degree + 1), r):
                out.append(BundleSpec(s=s, fiber_degrees=(0,) + degrees))
    return out


def enumerate_centers(spec: BundleSpec, codim):
    """All codim-element ray sets of the X fan spanning a cone."""
    fan = build_projective_bundle_fan(spec)
    return [
        CenterSpec(frozenset(names))
        for names in combinations(fan.ray_names, codim)
        if fan.spans_cone(fan.name_index[n] for n in names)
    ]


def default_cache_dir():
    return os.environ.get("EXCOL_CACHE_DIR", ".excol-cache")


def run_case(spec, center, cache=True):
    """Construct and certify one (spec, center); returns (report, error).

    With cache, certify reads and rewrites the fan's file in the disk cache
    under default_cache_dir(), read at call time.
    """
    try:
        bl, col = construct(spec, center)
    except MutationError as exc:
        return None, exc
    report = certify(
        bl.fan_xt,
        collection_classes(bl, col),
        cache=DiskCache(default_cache_dir()) if cache else None,
    )
    return report, None


def cmd_sweep(args):
    _check_dim(args.max_dim)
    codims = {"2": [2], "3": [3], "both": [2, 3]}[args.codim]
    cases = []
    for spec in enumerate_specs(args.max_dim, args.max_degree):
        for codim in codims:
            for center in enumerate_centers(spec, codim):
                cases.append((spec, center))
    if not cases:
        print("sweep is empty: no valid centers in the requested range")
        return 0
    if not args.no_cache:
        os.makedirs(default_cache_dir(), exist_ok=True)
    failures = []
    header = f"{'spec':<24}{'center':<16}{'len':>4}  {'flags':<8}{'sec':>8}"
    print(header)
    print("-" * len(header))
    for spec, center in cases:
        label = f"s={spec.s} a={list(spec.fiber_degrees)}"
        cname = ",".join(sorted(center.ray_names))
        t0 = time.perf_counter()
        try:
            report, err = run_case(spec, center, cache=not args.no_cache)
        except BoxTooLarge as exc:  # a class the oracle cannot sweep
            report, err = None, exc
        dt = time.perf_counter() - t0
        if err is not None:
            print(f"{label:<24}{cname:<16}{'-':>4}  {'ABORT':<8}{dt:>8.2f}")
            failures.append((label, cname, str(err)))
            continue
        checks = (report.exceptional, report.semiorthogonal, report.strong)
        flags = "".join(c if ok else "." for c, ok in zip("ES1", checks))
        print(f"{label:<24}{cname:<16}{report.length_actual:>4}  {flags:<8}{dt:>8.2f}")
        if not report.all_passed:
            failures.append((label, cname, "verification failed"))
    if failures:
        print(f"\n{len(failures)} failing case(s):", file=sys.stderr)
        for label, cname, why in failures:
            print(f"  {label} center={cname}: {why}", file=sys.stderr)
        return 1
    print(f"\nall {len(cases)} cases passed")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="excol",
        description=(
            "Strong full exceptional collections of line bundles on blow-ups "
            "of Picard-rank-two toric varieties, by mutation replay, with "
            "independent cohomological certification."
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the disk cohomology cache of sweep (the only command that uses it)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="replay the mutation script")
    p.add_argument("--base-dim", type=int, required=True, metavar="S")
    p.add_argument("--fiber-degrees", required=True, metavar="A0,A1,...")
    p.add_argument("--center", required=True, metavar="RAY,RAY[,RAY]")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="certify a collection file")
    p.add_argument("--collection", required=True, metavar="FILE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="construct and certify a whole family")
    p.add_argument("--max-dim", type=int, required=True, metavar="D")
    p.add_argument("--max-degree", type=int, required=True, metavar="A")
    p.add_argument("--codim", choices=["2", "3", "both"], default="both")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # the one exit-2 path: files that cannot be read or written, malformed
    # arguments or collection files, and classes past the oracle's budget
    except (OSError, ValueError, KeyError, RecursionError, InvalidSpec, NotACone,
            UnknownRay, BoxTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
