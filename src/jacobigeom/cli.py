"""Command-line front end: JSON in, JSON out, reproducible given a seed.

Conventions
-----------
* numbers: each is read as a finite float, else the input is malformed;
* real matrices: row-major nested arrays of doubles;
* complex scalars: two-element arrays [re, im], so a complex matrix is a
  nested array whose innermost elements are pairs;
* exit codes: 0 success / verdict pass, 1 domain failure (non-symplectic
  input, failed invariance run, a result that is not finite), 2 malformed
  input or usage error.

The library reads and checks each argument as the JSON gives it; the CLI reads
only the [re, im] pairs and the matrix of ``check`` and ``decompose``.

Output is serialized with sorted keys and fixed separators, so identical
job specifications produce byte-identical output.
"""

import argparse
import json
import sys
from contextlib import nullcontext

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
from .linalg import _cast, _square
from .metrics import INVARIANCE_OBJECTS
from .symplectic import symplectic_residual

USAGE_ERROR = 2
DOMAIN_ERROR = 1
# the dense bracket table holds dim^3 floats, dim = (n + 1)(2n + 1): ~100 MB at n = 10
MAX_COMMUTATOR_N = 10
_CHART, _TANGENT = "x y X Y p q kappa", "dx dy dX dY dp dq dkappa"


def _number(text):
    """``json`` hook of every number: a finite float, else BadShape (the one number rule)."""
    value = float(text)
    if not -np.inf < value < np.inf:
        raise BadShape(f"a number must be a finite float, got {text:.20}")
    return value


def _load(args):
    """The job's JSON, from ``--input`` or stdin, each number read by :func:`_number`."""
    with open(args.input) if args.input else nullcontext(sys.stdin) as fh:
        # + 0.0: an integer has no negative zero
        return json.load(fh, parse_float=_number, parse_int=lambda s: _number(s) + 0.0,
                         parse_constant=_number)


def _tolerance(text):
    """argparse type of ``--tol``: a finite float >= 0."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite float >= 0, got {text!r}")
    return value


def _complex(node, what):
    arr = _cast(node, float, what)
    if arr.shape[-1:] != (2,):
        raise BadShape(f"{what} must use [re, im] pairs at the innermost level")
    return arr[..., 0] + 1j * arr[..., 1]


def _parts(node, keys):
    """The values of a JSON object's ``keys``, in order: the library's tuple of parts."""
    return tuple(node[k] for k in keys.split())


def _encode(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    arr = np.asarray(value)
    if np.iscomplexobj(arr):
        return _encode(np.stack([arr.real, arr.imag], axis=-1))
    return arr.tolist()


def _emit(obj, stream):
    """``obj`` as one line of strict JSON, else (a non-finite value) GeometryError."""
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise GeometryError(f"the result is not finite: {exc}") from exc
    stream.write(text + "\n")


def cmd_check(args, payload, out):
    mat = _square(payload["matrix"], stack=False)
    ok = is_symplectic(mat, args.tol)
    _emit({
        "symplectic": bool(ok),
        "block_relations": bool(check_block_relations(mat, args.tol)),
        "residual": float(symplectic_residual(mat)),
        "n": mat.shape[0] // 2,
    }, out)
    return 0 if ok else DOMAIN_ERROR


def cmd_decompose(args, payload, out):
    mat = _square(payload["matrix"], stack=False)
    factors = pre_iwasawa(mat) if args.variant == "plain" else modified_pre_iwasawa(mat)
    residual = float(np.max(np.abs(pre_iwasawa_compose(factors) - mat)))
    _emit({"variant": factors.variant, "recomposition_residual": residual,
           **{k: _encode(getattr(factors, k)) for k in "xyXY"}}, out)
    return 0


def cmd_act(args, payload, out):
    g = JacobiElement(*_parts(payload["element"], "m lam mu kappa"))
    point = payload["point"]
    if args.space == "xjn":
        v1, u1 = act_xjn(g, (_complex(point["v"], "v"), _complex(point["u"], "u")))
        _emit({"v": _encode(v1), "u": _encode(u1)}, out)
    else:  # pq, or extended with kappa last
        image = (act_pq(g, _parts(point, "x y p q")) if args.space == "pq"
                 else act_extended(g, _parts(point, "x y p q kappa")))
        _emit({k: _encode(c) for k, c in zip(("x", "y", "p", "q", "kappa"), image)}, out)
    return 0


def cmd_oneforms(args, payload, out):
    lf = oneforms_sn(SnChart(*_parts(payload["chart"], _CHART)),
                     _parts(payload["tangent"], _TANGENT))
    _emit({
        "F": _encode(lf.F), "G": _encode(lf.G), "H": _encode(lf.H),
        "P": _encode(lf.P), "Q": _encode(lf.Q), "R": lf.R,
        "h_asymmetry": float(lf.h_asymmetry()),
    }, out)
    return 0


def cmd_metric(args, payload, out):
    if args.object == "metric_group":
        value = metric_group(MetricParams(**payload["params"]),
                             SnChart(*_parts(payload["chart"], _CHART)),
                             _parts(payload["t1"], _TANGENT), _parts(payload["t2"], _TANGENT))
    elif args.object == "metric_xjn":
        value = metric_xjn(*_parts(payload, "alpha gamma chart point t1 t2"))
    else:  # metric_extended: point and tangents carry kappa / dkappa as a fifth component
        value = metric_extended(*_parts(payload, "alpha gamma delta point t1 t2"))
    _emit({"object": args.object, "value": float(value)}, out)
    return 0


def cmd_commutators(args, payload, out):
    if not 1 <= args.n <= MAX_COMMUTATOR_N:
        raise BadShape(f"commutators --n must be in 1 .. {MAX_COMMUTATOR_N}, got {args.n}")
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
    a, da = payload["a"], payload["da"]
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
    args = build_parser().parse_args(argv)
    try:
        payload = _load(args) if args.needs_input else None
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
            return args.func(args, payload, out)
    except (BadShape, KeyError, TypeError) as exc:
        print(f"error: bad input: {exc!r}", file=sys.stderr)
        return USAGE_ERROR
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except (OSError, ValueError) as exc:  # a file, JSON syntax, a value out of range
        print(f"error: bad input: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
