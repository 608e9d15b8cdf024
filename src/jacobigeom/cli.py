"""Command-line front end: JSON in, JSON out, reproducible given a seed.

Conventions
-----------
* real matrices: row-major nested arrays of doubles;
* complex scalars: two-element arrays [re, im], so a complex matrix is a
  nested array whose innermost elements are pairs;
* exit codes: 0 success / verdict pass, 1 domain failure (non-symplectic
  input, failed invariance run), 2 malformed input or usage error.

Output is serialized with sorted keys and fixed separators, so identical
job specifications produce byte-identical output.
"""

import argparse
import json
import sys

import numpy as np

from . import (
    JacobiElement,
    MetricParams,
    SnChart,
    act_extended,
    act_pq,
    act_xjn,
    check_block_relations,
    commutator_table,
    dsqrtm,
    invariance_report,
    is_symplectic,
    metric_extended,
    metric_group,
    metric_xjn,
    modified_pre_iwasawa,
    oneforms_sn,
    pre_iwasawa,
    pre_iwasawa_compose,
    sqrtm_spd,
)
from .exceptions import BadShape, GeometryError
from .metrics import INVARIANCE_OBJECTS
from .symplectic import symplectic_residual

USAGE_ERROR = 2
DOMAIN_ERROR = 1
# the dense bracket table holds dim^3 floats, dim = (n + 1)(2n + 1): ~100 MB at n = 10
MAX_COMMUTATOR_N = 10


def _real(node, what="matrix"):
    arr = np.asarray(node, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise BadShape(f"{what} contains non-finite entries")
    return arr


def _tolerance(text):
    """argparse type of ``--tol``: a finite float >= 0."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite float >= 0, got {text!r}")
    return value


def _scalar(node, key):
    return float(_real(node[key], key))


def _complex(node, what="matrix"):
    arr = _real(node, what)
    if arr.shape[-1] != 2:
        raise BadShape(f"{what} must use [re, im] pairs at the innermost level")
    return arr[..., 0] + 1j * arr[..., 1]


def _encode(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return _encode(np.stack([arr.real, arr.imag], axis=-1))
    return arr.tolist()


def _emit(obj, stream):
    stream.write(json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False))
    stream.write("\n")


def _chart_from_json(node):
    return SnChart(*(_real(node[k]) for k in "x y X Y p q".split()), _scalar(node, "kappa"))


def _sn_tangent_from_json(node):
    return (*(_real(node[k]) for k in ("dx", "dy", "dX", "dY", "dp", "dq")),
            _scalar(node, "dkappa"))


def _element_from_json(node):
    return JacobiElement(*(_real(node[k]) for k in ("m", "lam", "mu")), _scalar(node, "kappa"))


def cmd_check(args, payload, out):
    mat = _real(payload["matrix"])
    ok = is_symplectic(mat, args.tol)
    _emit({
        "symplectic": bool(ok),
        "block_relations": bool(check_block_relations(mat, args.tol)),
        "residual": float(symplectic_residual(mat)),
        "n": mat.shape[0] // 2,
    }, out)
    return 0 if ok else DOMAIN_ERROR


def cmd_decompose(args, payload, out):
    mat = _real(payload["matrix"])
    factors = pre_iwasawa(mat) if args.variant == "plain" else modified_pre_iwasawa(mat)
    residual = float(np.max(np.abs(pre_iwasawa_compose(factors) - mat)))
    _emit({"variant": factors.variant, "recomposition_residual": residual,
           **{k: _encode(getattr(factors, k)) for k in "xyXY"}}, out)
    return 0


def cmd_act(args, payload, out):
    g = _element_from_json(payload["element"])
    point = payload["point"]
    if args.space == "xjn":
        v1, u1 = act_xjn(g, (_complex(point["v"], "v"), _complex(point["u"], "u")))
        _emit({"v": _encode(v1), "u": _encode(u1)}, out)
    else:  # pq, or extended with kappa last
        pq = tuple(_real(point[k]) for k in "xypq")
        image = act_pq(g, pq) if args.space == "pq" else act_extended(
            g, (*pq, _scalar(point, "kappa")))
        _emit({k: _encode(c) for k, c in zip(("x", "y", "p", "q", "kappa"), image)}, out)
    return 0


def cmd_oneforms(args, payload, out):
    chart = _chart_from_json(payload["chart"])
    lf = oneforms_sn(chart, _sn_tangent_from_json(payload["tangent"]))
    _emit({
        "F": _encode(lf.F), "G": _encode(lf.G), "H": _encode(lf.H),
        "P": _encode(lf.P), "Q": _encode(lf.Q), "R": lf.R,
        "h_asymmetry": float(lf.h_asymmetry()),
    }, out)
    return 0


def cmd_metric(args, payload, out):
    if args.object == "metric_group":
        params = MetricParams(**{k: _scalar(payload["params"], k) for k in payload["params"]})
        chart = _chart_from_json(payload["chart"])
        value = metric_group(params, chart,
                             _sn_tangent_from_json(payload["t1"]),
                             _sn_tangent_from_json(payload["t2"]))
    else:  # metric_xjn or metric_extended, which carries kappa / dkappa as a fifth component
        point, t1, t2 = (tuple(_real(c, k) for c in payload[k]) for k in ("point", "t1", "t2"))
        alpha, gamma = _scalar(payload, "alpha"), _scalar(payload, "gamma")
        if args.object == "metric_xjn":
            value = metric_xjn(alpha, gamma, payload["chart"], point, t1, t2)
        else:
            value = metric_extended(alpha, gamma, _scalar(payload, "delta"), point, t1, t2)
    _emit({"object": args.object, "value": float(value)}, out)
    return 0


def cmd_commutators(args, payload, out):
    if args.n > MAX_COMMUTATOR_N:
        raise BadShape(f"commutators --n must be at most {MAX_COMMUTATOR_N}")
    labels, table = commutator_table(args.n)
    nonzero = {}
    for i, li in enumerate(labels):
        for j, lj in enumerate(labels):
            if j <= i:
                continue
            entries = {labels[k]: table[i, j, k]
                       for k in range(len(labels)) if table[i, j, k] != 0.0}
            if entries:
                nonzero[f"[{li},{lj}]"] = entries
    _emit({"n": args.n, "dim": len(labels), "labels": labels, "brackets": nonzero}, out)
    return 0


def cmd_invariance(args, payload, out):
    rep = invariance_report(args.object, n=args.n, samples=args.samples,
                            seed=args.seed, tol=args.tol)
    _emit(rep.as_dict(), out)
    return 0 if rep.passed else DOMAIN_ERROR


def cmd_sqrt_diff(args, payload, out):
    a = _real(payload["a"], "a")
    da = _real(payload["da"], "da")
    _emit({"sqrt": _encode(sqrtm_spd(a)), "dsqrt": _encode(dsqrtm(a, da))}, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jacobigeom",
        description="Jacobi-group geometry toolbox: JSON in, JSON out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, needs_input=True):
        p = sub.add_parser(name)
        p.set_defaults(func=func, needs_input=needs_input)
        p.add_argument("--input", default=None, help="input JSON file (default: stdin)")
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        return p

    add("check", cmd_check).add_argument("--tol", type=_tolerance, default=None)
    p = add("decompose", cmd_decompose)
    p.add_argument("--variant", choices=("plain", "modified"), default="modified")
    p = add("act", cmd_act)
    p.add_argument("--space", choices=("xjn", "pq", "extended"), required=True)
    add("oneforms", cmd_oneforms)
    p = add("metric", cmd_metric)
    p.add_argument("--object", default="metric_xjn",
                   choices=("metric_group", "metric_xjn", "metric_extended"))
    p = add("commutators", cmd_commutators, needs_input=False)
    p.add_argument("--n", type=int, required=True)
    p = add("invariance", cmd_invariance, needs_input=False)
    p.add_argument("--object", choices=INVARIANCE_OBJECTS, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="verdict bound on max_rel (default: linalg.INVARIANCE_RTOL)")
    add("sqrt-diff", cmd_sqrt_diff)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", 1) < 1 or getattr(args, "samples", 1) < 1:
        parser.error("--n and --samples must be >= 1")

    payload = None
    try:
        if args.needs_input:
            if args.input:
                with open(args.input) as fh:
                    payload = json.load(fh)
            else:
                payload = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return USAGE_ERROR

    out = open(args.output, "w") if args.output else sys.stdout
    try:
        return args.func(args, payload, out)
    except (BadShape, KeyError, TypeError) as exc:
        print(f"error: bad input: {exc!r}", file=sys.stderr)
        return USAGE_ERROR
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except ValueError as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if args.output:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
