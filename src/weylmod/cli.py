"""Command-line interface.

Every subcommand parses its inputs through the shared grammar, dispatches to
the library, and renders either canonical text or a versioned JSON document
(schema 1, all numbers as exact "p/q" strings).  Exit codes: 0 success,
1 verification failure, 2 usage or parse errors, 3 bounds beyond what the
exact machine-integer paths can carry, or an internal error (a failed
invariant, reported in one line).

Configuration precedence: flags > environment (WEYLMOD_RANK, WEYLMOD_JSON)
> defaults (rank 1, text output).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .scalars import (
    InternalError, NonInvertibleParameter, ParamDecl, RATIONALS,
    ScalarDivisionError,
)
from .liealg import (
    AlgebraCtx, CentralUnsupported, CtxMismatch, DiffOp, assoc_product,
    bracket, cocycle_phi, generated_span_probe, grade_components,
)
from . import umod as U
from . import hwmod as H
from . import tensor as T
from .slots import BoundsTooLarge
from .grammar import (
    ParseError, parse_operator, parse_param_decl, parse_pbw_monomial,
    parse_polynomial, parse_quasipolynomial, parse_scalar,
)
from .verify import BOUND_KEYS, SUITE_BOUNDS, SUITES, run_suites

DEFAULT_PARAMS = "lambda!,l1!,l2!,l3!,l4!,alpha,beta,a,b,c"


class UsageError(ValueError):
    pass


def _parse_bounds(text: str | None, keys) -> dict:
    """The key=value list of ``--bounds``; ``keys`` are the keys the
    command reads, and any other key is a usage error.  With ``keys`` None
    the command checks the keys itself."""
    out: dict = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"bounds entry {chunk!r} is not key=value")
        key, val = chunk.split("=", 1)
        name = key.strip()
        if name in out:
            raise UsageError(f"bound {name!r} is given twice")
        if keys is not None and name not in keys:
            raise UsageError(f"unknown bound {name!r}; this command reads "
                             + (", ".join(keys) or "no bounds"))
        try:
            out[name] = int(val)
        except ValueError as exc:
            raise UsageError(f"bound {key!r} needs an integer value") from exc
        if out[name] < 0:
            raise UsageError(f"bound {key!r} must be non-negative")
    return out


def _env_rank() -> int:
    raw = os.environ.get("WEYLMOD_RANK")
    if raw is None:
        return 1
    try:
        rank = int(raw)
    except ValueError as exc:
        raise UsageError("WEYLMOD_RANK must be an integer") from exc
    return rank


def _env_json() -> bool:
    raw = os.environ.get("WEYLMOD_JSON", "")
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        doc = {"schema": 1, "command": args.command}
        doc.update(payload)
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _hw_spec(args, decl: ParamDecl) -> H.HWSpec:
    phi = parse_quasipolynomial(args.phi, decl)
    c = parse_scalar(args.c, decl)
    return H.HWSpec(c, phi)


def _verma_window(args, decl: ParamDecl) -> H.TruncVerma:
    return H.verma_basis(_hw_spec(args, decl),
                         args.bounds.get("L", 2), args.bounds.get("N", 1))


def _omega_spec(args, decl: ParamDecl, rank: int) -> U.OmegaSpec:
    family = args.family
    lam_text = args.lam
    if family in ("d", "dnu"):
        if args.eps is None:
            raise UsageError("--eps is required for the d/dnu families")
        if family == "d":
            return U.omega_d(parse_scalar(lam_text, decl), args.eps)
        lams = [parse_scalar(x.strip(), decl) for x in lam_text.split(";")]
        if len(lams) != rank:
            raise UsageError(f"need {rank} lambda components separated by ';'")
        return U.omega_dnu(lams, args.eps)
    alpha = parse_scalar(args.alpha, decl) if args.alpha else decl.zero
    if family == "vir":
        return U.omega_vir(parse_scalar(lam_text, decl), alpha)
    beta = parse_scalar(args.beta, decl) if args.beta else decl.zero
    return U.omega_hv(parse_scalar(lam_text, decl), alpha, beta)


def _poly_vec(spec: U.OmegaSpec, text: str, decl: ParamDecl) -> U.PolyVec:
    return U.PolyVec(spec, parse_polynomial(text, spec.rank, decl))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_bracket(args, decl, rank):
    a = parse_operator(args.a, rank, decl, central=True if args.central else None)
    b = parse_operator(args.b, rank, decl, central=a.ctx.central or None)
    if a.ctx != b.ctx:
        a = parse_operator(args.a, rank, decl, central=b.ctx.central or None)
    result = bracket(a, b)
    _emit(args, {"result": result.to_json()}, str(result))
    return 0


def cmd_product(args, decl, rank):
    a = parse_operator(args.a, rank, decl, central=False)
    b = parse_operator(args.b, rank, decl, central=False)
    result = assoc_product(a, b)
    _emit(args, {"result": result.to_json()}, str(result))
    return 0


def cmd_cocycle(args, decl, rank):
    a = parse_operator(args.a, 1, decl, central=False)
    b = parse_operator(args.b, 1, decl, central=False)
    result = cocycle_phi(a, b)
    _emit(args, {"result": result.to_json()}, str(result))
    return 0


def cmd_act(args, decl, rank):
    spec = _omega_spec(args, decl, rank)
    f = _poly_vec(spec, args.vec, decl)
    if spec.family in ("d", "dnu"):
        op = parse_operator(args.op, spec.rank, decl, central=None)
        result = U.act(op, f)
    else:
        result = U.act_hv(spec, _parse_lm(args.op), f)
    _emit(args, {"result": result.to_json()}, str(result))
    return 0


def _parse_lm(text: str):
    text = text.strip()
    if "_" not in text:
        raise UsageError("vir/hv generators are written L_m or I_m")
    kind, _, num = text.partition("_")
    if kind not in ("L", "I"):
        raise UsageError("vir/hv generators are written L_m or I_m")
    try:
        return kind, int(num)
    except ValueError as exc:
        raise UsageError(f"bad generator index {num!r}") from exc


def cmd_grade(args, decl, rank):
    a = parse_operator(args.a, rank, decl, central=True if args.central else None)
    comps = grade_components(a)
    lines = []
    payload = []
    for deg in sorted(comps):
        op = comps[deg]
        label = str(deg[0]) if rank == 1 else ",".join(str(x) for x in deg)
        lines.append(f"{label}: {op}")
        payload.append({"degree": list(deg), "component": op.to_json()})
    _emit(args, {"components": payload}, "\n".join(lines) if lines else "0")
    return 0


def cmd_span_probe(args, decl, rank):
    m_bound = args.bounds.get("m", 2)
    n_bound = args.bounds.get("n", 3)
    depth = args.bounds.get("depth", 8)
    gens = [parse_operator(g, rank, decl, central=False) for g in args.gen]
    if not gens:
        raise UsageError("need at least one --gen")
    rep = generated_span_probe(gens, m_bound, n_bound, depth)
    total = len(rep.reached) + len(rep.missing)
    text_lines = [
        f"reached {len(rep.reached)} of {total} windowed basis monomials "
        f"(dimension {rep.dimension}, depth used {rep.depth_used})",
    ]
    if rep.missing:
        missing_ops = [str(DiffOp(AlgebraCtx(rank), {k: RATIONALS.one}))
                       for k in rep.missing]
        text_lines.append("missing: " + ", ".join(missing_ops))
    payload = {
        "reached": [[list(m), list(n)] for m, n in rep.reached],
        "missing": [[list(m), list(n)] for m, n in rep.missing],
        "dimension": rep.dimension,
        "depth_used": rep.depth_used,
    }
    _emit(args, payload, "\n".join(text_lines))
    return 0


def cmd_verma(args, decl, rank):
    tv = _verma_window(args, decl)
    basis = tv.basis()
    lines = [f"{H._verma_label(mono)} (level {H.monomial_level(mono)})"
             for mono in basis]
    payload = {
        "level_bound": tv.level_bound,
        "order_bound": tv.order_bound,
        "basis": [[[j, n] for j, n in mono] for mono in basis],
        "size": len(basis),
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_act_verma(args, decl, rank):
    tv = _verma_window(args, decl)
    op = parse_operator(args.op, 1, decl, central=True)
    mono = parse_pbw_monomial(args.mono, decl)
    result = H.act_verma(op, tv.elem({mono: 1}))
    _emit(args, {"result": result.to_json()}, str(result))
    return 0


def cmd_singular(args, decl, rank):
    tv = _verma_window(args, decl)
    level = args.bounds.get("level", 1)
    order = args.bounds.get("M", 3)
    rep = H.singular_vectors(tv, level, order)
    lines = [
        f"{len(rep.vectors)} singular vector(s) at level {level}, "
        f"annihilated up to order {rep.order_checked} within order bound "
        f"{rep.order_bound} (bounded certificate)",
    ]
    lines.extend(str(v) for v in rep.vectors)
    payload = {
        "level": rep.level,
        "order_checked": rep.order_checked,
        "order_bound": rep.order_bound,
        "count": len(rep.vectors),
        "vectors": [v.to_json() for v in rep.vectors],
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_hseq(args, decl, rank):
    n = args.n
    if n < 0:
        raise UsageError("--n must be non-negative")
    spec = _hw_spec(args, decl)
    values = [spec.h(k) for k in range(n + 1)]
    lines = [
        "h_0 is the eigenvalue of the degree-zero basis element t^0 D^0, "
        "read from the same generating series as h_1, h_2, ...",
    ]
    lines.extend(f"h_{k} = {v}" for k, v in enumerate(values))
    payload = {
        "h": [v.to_json() for v in values],
        "h0_convention": "h_0 is the eigenvalue of t^0 D^0",
    }
    _emit(args, payload, "\n".join(lines))
    return 0


def _tensor_spec(args, decl) -> T.TensorSpec:
    return T.TensorSpec(U.omega_d(parse_scalar(args.lam, decl), args.eps),
                        _verma_window(args, decl))


def cmd_tensor_act(args, decl, rank):
    spec = _tensor_spec(args, decl)
    op = parse_operator(args.op, 1, decl, central=True)
    mono = parse_pbw_monomial(args.mono, decl)
    w = spec.elem({(args.xexp, mono): 1})
    result = T.act_tensor(op, w)
    _emit(args, {"result": result.to_json()}, str(result))
    return 0


def cmd_tensor_probe(args, decl, rank):
    d = args.bounds.get("d", 3)
    m_bound = args.bounds.get("m", 4)
    n_bound = args.bounds.get("n", 2)
    if args.control_hv:
        hw = _verma_window(args, decl)
        lam = parse_scalar(args.lam, decl)
        alpha = parse_scalar(args.alpha, decl) if args.alpha else decl.zero
        beta = parse_scalar(args.beta, decl) if args.beta else decl.zero
        spec = T.TensorSpec(U.omega_hv(lam, alpha, beta), hw)
    else:
        spec = _tensor_spec(args, decl)
    rep = T.irreducibility_probe(spec, d, m_bound, n_bound)
    payload = {
        "verdict": rep.verdict,
        "bounds": {"d": d, "m": m_bound, "n": n_bound,
                   "L": spec.hw.level_bound, "N": spec.hw.order_bound},
        "space_dim": rep.space_dim,
        "seeds_checked": rep.seeds_checked,
    }
    text = f"{rep.verdict} (space dimension {rep.space_dim})"
    if rep.failing_seed is not None:
        payload["failing_seed"] = [rep.failing_seed[0],
                                   [[j, n] for j, n in rep.failing_seed[1]]]
        payload["closure_dim"] = rep.witness_dim
        xs, mono = rep.failing_seed
        text += (f"; seed x^{xs}(x){H._verma_label(mono)} closes at dimension "
                 f"{rep.witness_dim}")
    _emit(args, payload, text)
    return 0 if rep.verdict == "cyclic-within-bounds" or args.control_hv else 1


def cmd_intertwiner(args, decl, rank):
    d = args.bounds.get("d", 3)
    m_bound = args.bounds.get("m", 4)
    n_bound = args.bounds.get("n", 1)
    hw = _verma_window(args, decl)
    spec_a = T.TensorSpec(U.omega_d(parse_scalar(args.lam_a, decl), args.eps_a), hw)
    spec_b = T.TensorSpec(U.omega_d(parse_scalar(args.lam_b, decl), args.eps_b), hw)
    dim = T.intertwiner_dim(spec_a, spec_b, d, m_bound, n_bound)
    payload = {
        "dimension": dim,
        "bounds": {"d": d, "m": m_bound, "n": n_bound,
                   "L": hw.level_bound, "N": hw.order_bound},
    }
    _emit(args, payload, f"bounded intertwiner dimension: {dim}")
    return 0


def cmd_verify(args, decl, rank):
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(
                f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
            )
    reads = BOUND_KEYS if args.suite == "all" else SUITE_BOUNDS[args.suite]
    for key in args.bounds:
        if key not in reads:
            raise UsageError(f"unknown bound {key!r} for suite {args.suite!r}; it reads "
                             + (", ".join(reads) or "no bounds"))
    results = run_suites(names, args.bounds or None, seed=args.seed)
    ok = all(r.ok for r in results)
    if args.json:
        suites = []
        for r in results:
            entry = {"name": r.name, "ok": r.ok, "checks": r.checks,
                     "detail": r.detail}
            if args.timings:
                entry["seconds"] = round(r.seconds, 3)
            suites.append(entry)
        print(json.dumps({"schema": 1, "command": "verify",
                          "suites": suites, "ok": ok}, indent=2))
    else:
        for r in results:
            print(r.line(timings=args.timings))
        print("all suites passed" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylmod",
        description="Exact computation in the algebra of differential "
                    "operators on the circle and its polynomial modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, hw=False, omega=False, bounds=(), rank1=False):
        p.add_argument("--rank", type=int, default=None,
                       help="number of t variables (default 1 or WEYLMOD_RANK)"
                            + ("; this command takes rank 1 only" if rank1 else ""))
        p.add_argument("--params", default=DEFAULT_PARAMS,
                       help="parameter declaration, e.g. 'lambda!,alpha' "
                            "(! marks invertible)")
        p.add_argument("--json", action="store_true", default=None,
                       help="emit JSON (or set WEYLMOD_JSON=1)")
        p.add_argument("--bounds", default="",
                       help="comma list of key=value bounds")
        p.set_defaults(bound_keys=bounds, rank1=rank1)
        if hw:
            p.add_argument("--phi", default="x",
                           help="quasipolynomial weight data, e.g. 'x*exp(a*x) - x'")
            p.add_argument("--c", default="c", help="central charge expression")
        if omega:
            p.add_argument("--family", choices=("d", "vir", "hv", "dnu"), default="d")
            p.add_argument("--eps", type=int, choices=(0, 1), default=None)
            p.add_argument("--lam", default="lambda",
                           help="invertible module parameter (';'-separated at rank>1)")
            p.add_argument("--alpha", default="")
            p.add_argument("--beta", default="")

    p = sub.add_parser("bracket", help="Lie bracket of two operators")
    p.add_argument("a"); p.add_argument("b")
    p.add_argument("--central", action="store_true",
                   help="work in the centrally extended algebra")
    common(p)
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("product", help="associative product of two operators")
    p.add_argument("a"); p.add_argument("b")
    common(p)
    p.set_defaults(fn=cmd_product)

    p = sub.add_parser("cocycle", help="central 2-cocycle value (rank 1)")
    p.add_argument("a"); p.add_argument("b")
    common(p, rank1=True)
    p.set_defaults(fn=cmd_cocycle)

    p = sub.add_parser("act", help="act on a polynomial module element")
    p.add_argument("op", help="operator, or L_m / I_m for the vir/hv families")
    p.add_argument("vec", help="polynomial in x (x1.. at rank>1)")
    common(p, omega=True)
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("grade", help="split an operator into graded pieces")
    p.add_argument("a")
    p.add_argument("--central", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_grade)

    p = sub.add_parser("span-probe", help="bracket-closure probe of generators")
    p.add_argument("--gen", action="append", default=[],
                   help="generator (repeatable)")
    common(p, bounds=("m", "n", "depth"))
    p.set_defaults(fn=cmd_span_probe)

    p = sub.add_parser("verma", help="enumerate a truncated Verma basis")
    common(p, hw=True, bounds=("L", "N"), rank1=True)
    p.set_defaults(fn=cmd_verma)

    p = sub.add_parser("act-verma", help="act on a PBW basis vector")
    p.add_argument("op")
    p.add_argument("mono", help="PBW monomial like 't^-1*D;t^-2' (or '1')")
    common(p, hw=True, bounds=("L", "N"), rank1=True)
    p.set_defaults(fn=cmd_act_verma)

    p = sub.add_parser("singular", help="bounded singular-vector search")
    common(p, hw=True, bounds=("L", "N", "level", "M"), rank1=True)
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("hseq", help="weight eigenvalues h_0..h_n from phi")
    p.add_argument("--n", type=int, default=8)
    common(p, hw=True, rank1=True)
    p.set_defaults(fn=cmd_hseq)

    p = sub.add_parser("tensor-act", help="act on x^j (x) (PBW monomial)")
    p.add_argument("op")
    p.add_argument("--xexp", type=int, default=0)
    p.add_argument("--mono", default="1")
    p.add_argument("--lam", default="lambda")
    p.add_argument("--eps", type=int, choices=(0, 1), default=1)
    common(p, hw=True, bounds=("L", "N"), rank1=True)
    p.set_defaults(fn=cmd_tensor_act)

    p = sub.add_parser("tensor-probe", help="bounded cyclicity probe")
    p.add_argument("--lam", default="lambda")
    p.add_argument("--eps", type=int, choices=(0, 1), default=1)
    p.add_argument("--control-hv", action="store_true",
                   help="replace the polynomial side by the reducible "
                        "two-parameter module at alpha=beta=0")
    p.add_argument("--alpha", default="")
    p.add_argument("--beta", default="")
    common(p, hw=True, bounds=("d", "m", "n", "L", "N"), rank1=True)
    p.set_defaults(fn=cmd_tensor_probe)

    p = sub.add_parser("intertwiner", help="bounded intertwiner dimension")
    p.add_argument("--lam-a", default="2")
    p.add_argument("--eps-a", type=int, choices=(0, 1), default=1)
    p.add_argument("--lam-b", default="3")
    p.add_argument("--eps-b", type=int, choices=(0, 1), default=1)
    common(p, hw=True, bounds=("d", "m", "n", "L", "N"), rank1=True)
    p.set_defaults(fn=cmd_intertwiner)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all': " + ", ".join(sorted(SUITES)))
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (output is then not "
                        "byte-reproducible)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled checks")
    # cmd_verify checks the keys against the selected suite's
    common(p, bounds=None, rank1=True)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        rank = args.rank if args.rank is not None else _env_rank()
        if rank < 1:
            raise UsageError("rank must be >= 1")
        if args.rank1 and rank != 1:
            raise UsageError(f"{args.command} works at rank 1 only, not rank {rank}")
        if args.json is None:
            args.json = _env_json()
        decl = parse_param_decl(args.params)
        args.bounds = _parse_bounds(args.bounds, args.bound_keys)
        return args.fn(args, decl, rank)
    except (ParseError, UsageError, NonInvertibleParameter, CtxMismatch,
            CentralUnsupported, U.FamilyMismatch, T.TensorMismatch,
            H.LevelOverflow, ValueError) as exc:
        print(f"weylmod: error: {exc}", file=sys.stderr)
        return 2
    except BoundsTooLarge as exc:
        print(f"weylmod: error: {exc}", file=sys.stderr)
        return 3
    except (InternalError, ScalarDivisionError, AssertionError) as exc:
        print(f"weylmod: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
