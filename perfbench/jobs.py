"""Seeded job lists for the three workloads, with answer checks.

A job is one call a user makes to get a verdict.  Its answer is checked
against facts that do not come from the code under test: identities that
must hold, check counts from closed forms, Bernoulli numbers from a
recurrence in this file, PBW basis sizes from a partition count, and the
golden CLI outputs under ``tests/golden``.

A run is a whole number of rounds.  A round holds every job kind of the
workload once; the seed draws the parameters and the order of jobs inside
each round.  Parameter classes (eps, symbolic or rational data, the kind of
weight datum) cycle over ``PERIOD`` rounds, so every run holds the same mix
of job kinds and parameter classes and only the drawn values and the order
change with the seed.  Bounds are chosen so that every job kind takes a
similar time (0.1 to 0.8 s on the reference machine): the median and the
tail then fall inside a crowd of jobs rather than on a gap between kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

WORKLOADS = ("axiom", "verma_tensor", "cli")

# Seconds one round takes on the reference machine (2-CPU Xeon, Python
# 3.11.7, numpy 2.4.6).  They fix how many rounds a run of a given length
# holds, so the work in a run depends on --seconds only, never on timing.
ROUND_SECONDS = {"axiom": 3.2, "verma_tensor": 4.4, "cli": 2.9}
# Rounds over which every parameter class of a workload appears once.
PERIOD = {"axiom": 2, "verma_tensor": 6, "cli": 1}


def rounds_for(workload: str, seconds: float) -> int:
    period = PERIOD[workload]
    return period * max(1, round(seconds / (ROUND_SECONDS[workload] * period)))


@dataclass
class Job:
    """An in-process job's ``run(state)`` returns (checks, problem), problem
    being None when the answer is right; jobs of one unit share ``state`` and
    run in order.  A cli job has ``params["argv"]`` and the ``expected``
    stdout instead, and may name the marker of its ``known_failure``."""

    kind: str
    params: dict
    run: object = None
    expected: str | None = None
    known_failure: str | None = None


@dataclass
class Unit:
    jobs: list
    state: dict = field(default_factory=dict)


def build(workload: str, seed: int, rounds: int, root: Path) -> list:
    """The run's (job, state) pairs, in execution order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        commands = cli_commands(root)

        def make(rng, r, offsets):
            return [Unit([Job(name, {"argv": argv}, expected=expected, known_failure=known)])
                    for name, argv, expected, known in commands]
    else:
        make = {"axiom": _axiom_round, "verma_tensor": _verma_tensor_round}[workload]
    offsets = [rng.randrange(PERIOD[workload]) for _ in range(2)]
    out = []
    for r in range(rounds):
        units = make(rng, r, offsets)
        rng.shuffle(units)
        for unit in units:
            out.extend((job, unit.state) for job in unit.jobs)
    return out


def warmup(workload: str) -> None:
    """Run one tiny instance of each in-process job kind.

    Answers and errors are left to the timed jobs of the same kinds, which
    check and report them."""
    units = _axiom_warmup() if workload == "axiom" else _verma_warmup() + _tensor_warmup()
    for unit in units:
        for job in unit.jobs:
            try:
                job.run(unit.state)
            except Exception:
                pass


def coverage() -> None:
    """Tiny calls into every layer: the warm-up kinds of both in-process
    workloads and one in-process CLI command.  A traced run ends with these,
    so that no layer's counters read a structural zero on any workload."""
    import contextlib
    import io
    from weylmod import cli

    warmup("axiom")
    warmup("verma_tensor")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["bracket", "t^2*D", "D^2", "--central"])


# ---------------------------------------------------------------------------
# independent facts
# ---------------------------------------------------------------------------


def bernoulli(n: int) -> list:
    """B_0..B_n from sum_{j<=m} C(m+1, j) B_j = 0 (so B_1 = -1/2)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) / (m + 1))
    return out


def pbw_count(level_bound: int, order_bound: int, level: int | None = None) -> int:
    """Number of PBW monomials in the generators t^-j D^n (j >= 1, n <= N)
    of total level <= L (or == level): partitions with N+1 colours."""
    ways = [1] + [0] * level_bound
    for j in range(1, level_bound + 1):
        for _ in range(order_bound + 1):
            for s in range(j, level_bound + 1):
                ways[s] += ways[s - j]
    return ways[level] if level is not None else sum(ways)


def _problem(cond: bool, text: str):
    return None if cond else text


def _count_problem(got: int, want: int):
    return None if got == want else f"{got} checks, expected {want}"


def _rational(rng, positive=False) -> Fraction:
    num = rng.randint(1, 9)
    if not positive and rng.random() < 0.5:
        num = -num
    return Fraction(num, rng.randint(1, 5))


# ---------------------------------------------------------------------------
# axiom: structure constants and the int64 pair loop
# ---------------------------------------------------------------------------

DNU = (2, 1, 3)          # rank-2 dnu module axiom: m, n, deg
JACOBI = {"m": 2, "n": 2, "m2": 1, "n2": 1}
RANK1_D = (3, 2, 3)
RANK1_HV = (3, 3, 4)
RANK1_VIR = (5, 0, 6)
COCYCLE = {"m": 2, "n": 3}
ASSOC = (3, 2, 2)


def _pairs(k: int) -> int:
    return k * (k + 1) // 2


def _axiom_jobs(rng, eps: int, symbolic: bool, dnu=DNU, jac=JACOBI, d1=RANK1_D,
                hv=RANK1_HV, vir=RANK1_VIR, coc=COCYCLE, assoc=ASSOC) -> list:
    from weylmod import umod as U, verify as V
    from weylmod.scalars import ParamDecl, RATIONALS

    def param(decl, name):
        return decl.param(name) if symbolic else RATIONALS.rational(_rational(rng))

    def lam(decl, name):
        return decl.param(name) if symbolic else RATIONALS.rational(_rational(rng, True))

    d2 = ParamDecl(invertible=("l1", "l2"))
    lams = (lam(d2, "l1"), lam(d2, "l2"))
    d1decl = ParamDecl(invertible=("lambda",), plain=("alpha", "beta"))
    lam1 = lam(d1decl, "lambda")
    alpha, beta = param(d1decl, "alpha"), param(d1decl, "beta")
    alpha_vir = param(d1decl, "alpha")

    def axiom_job(kind, make_spec, bounds, want, **shown):
        def run(state):
            rep = U.verify_module_axiom(make_spec(), *bounds)
            return rep.checked, (_problem(rep.ok, f"axiom fails: {rep.counterexample!r:.200}")
                                 or _count_problem(rep.checked, want))
        return Job(kind, dict(shown, bounds=list(bounds)), run)

    m, n, deg = dnu
    ops2 = (2 * m + 1) ** 2 * (n + 1) ** 2
    jobs = [axiom_job("dnu_axiom", lambda: U.omega_dnu(lams, eps), dnu,
                      _pairs(ops2) * (deg + 1) * (deg + 2) // 2,
                      eps=eps, lam=[str(x) for x in lams])]
    m, n, deg = d1
    jobs.append(axiom_job("d_axiom", lambda: U.omega_d(lam1, eps), d1,
                          _pairs((2 * m + 1) * (n + 1)) * (deg + 1),
                          eps=eps, lam=str(lam1)))
    m, n, deg = hv
    jobs.append(axiom_job("hv_axiom", lambda: U.omega_hv(lam1, alpha, beta), hv,
                          _pairs(2 * (2 * m + 1)) * (deg + 1),
                          lam=str(lam1), alpha=str(alpha), beta=str(beta)))
    m, n, deg = vir
    jobs.append(axiom_job("vir_axiom", lambda: U.omega_vir(lam1, alpha_vir), vir,
                          _pairs(2 * m + 1) * (deg + 1),
                          lam=str(lam1), alpha=str(alpha_vir)))

    def suite_job(kind, suite, bounds, want):
        def run(state):
            res = getattr(V, suite)(dict(bounds))
            return res.checks, (_problem(res.ok, f"{res.name}: {res.detail}")
                                or _count_problem(res.checks, want))
        return Job(kind, dict(bounds), run)

    e1 = (2 * jac["m"] + 1) * (jac["n"] + 1) + 1
    src2 = (2 * jac["m2"] + 1) ** 2 * (jac["n2"] + 1) ** 2
    jobs.append(suite_job("jacobi", "suite_jacobi", jac,
                          e1 * e1 + comb(e1, 3) + src2 * src2 + _pairs(src2) * src2))
    keys = (2 * coc["m"] + 1) * (coc["n"] + 1)
    jobs.append(suite_job("cocycle", "suite_cocycle", coc, keys ** 3 + 13 + 7 * 13 * 7))

    m, n, deg = assoc

    def assoc_run(state):
        dl = ParamDecl(invertible=("lambda",))
        holds1, _ = U.assoc_action_split(U.omega_d(dl.param("lambda"), 1), m, n, deg)
        holds0, counter = U.assoc_action_split(U.omega_d(dl.param("lambda"), 0), m, n, deg)
        checks = 2 * ((2 * m + 1) * (n + 1)) ** 2 * (deg + 1)
        return checks, (_problem(holds1, "associative split fails at eps=1")
                        or _problem(not holds0 and counter is not None,
                                    "associative split should break at eps=0"))
    jobs.append(Job("assoc_split", {"bounds": list(assoc)}, assoc_run))
    return jobs


def _axiom_round(rng, r, offsets) -> list:
    # eps and symbolic data alternate together, so the mix is seed-free
    eps = (r + offsets[0]) % 2
    symbolic = eps == 1
    return [Unit([job]) for job in _axiom_jobs(rng, eps, symbolic)]


def _axiom_warmup() -> list:
    jobs = _axiom_jobs(random.Random(0), 1, True, dnu=(1, 1, 1),
                       jac={"m": 1, "n": 1, "m2": 1, "n2": 0}, d1=(1, 1, 1),
                       hv=(1, 1, 1), vir=(1, 0, 1), coc={"m": 1, "n": 1}, assoc=(1, 1, 1))
    return [Unit([job]) for job in jobs]


# ---------------------------------------------------------------------------
# verma_tensor, verma kinds: Scalar arithmetic, Bareiss and straightening
# ---------------------------------------------------------------------------

SWEEP = (3, 1, 7, 2, 2)   # window L, N, host L, ops |m| <= 2, n <= 2
SINGULAR = (2, 1, 2, 2)   # window L, N, level, order checked
QUOTIENT = (3, 1, 1, 3)   # window L, N, level, order checked (trivial weights)
H_ORDER = 60


def _weight(kind: str, rng):
    """(maker, description) of a weight datum: generic parameters or seeded
    rational data.  The maker builds a fresh datum inside the timed job."""
    from weylmod import grammar, hwmod as H
    from weylmod.scalars import RATIONALS

    if kind == "generic":
        return (lambda: H.HWSpec.generic(8)), "generic(8)"
    c = RATIONALS.rational(_rational(rng))
    if kind == "quad":
        a, b = _rational(rng), _rational(rng)
        coeffs = [RATIONALS.zero, RATIONALS.rational(a), RATIONALS.rational(b)]
        return (lambda: H.HWSpec(c, H.Quasipolynomial.poly(coeffs))), \
            f"c={c}, phi={a}*x+{b}*x^2"
    text = f"x*exp({_rational(rng)}*x) - x"
    return (lambda: H.HWSpec(c, grammar.parse_quasipolynomial(text))), f"c={c}, phi={text}"


def _sweep(state) -> tuple:
    """[a,b].v = a.(b.v) - b.(a.v) over operator pairs and window monomials."""
    from weylmod import hwmod as H, liealg
    from weylmod.liealg import D_HAT

    L, N, _, mb, nb = state["bounds"]
    window, host = state["window"], state["host"]
    ops = [D_HAT.basis(m, n) for m in range(-mb, mb + 1) for n in range(nb + 1)]
    ops.append(D_HAT.center())
    basis = window.basis()
    checks = 0
    for i, a in enumerate(ops):
        for b in ops[i:]:
            br = liealg.bracket(a, b)
            for mono in basis:
                v = host.elem({mono: 1})
                lhs = H.act_verma(br, v)
                rhs = H.act_verma(a, H.act_verma(b, v)) - H.act_verma(b, H.act_verma(a, v))
                checks += 1
                if lhs != rhs:
                    return checks, f"straightening breaks at {a}, {b}, {mono}"
    want = _pairs(len(ops)) * pbw_count(L, N)
    return checks, _count_problem(checks, want)


def _verma_jobs(rng, datum: str, sweep=SWEEP, singular=SINGULAR, quotient=QUOTIENT,
                h_order=H_ORDER) -> list:
    from weylmod import hwmod as H
    from weylmod.scalars import RATIONALS

    make_spec, shown = _weight(datum, rng)

    def cold(state):
        L, N, host_L = sweep[:3]
        spec = make_spec()
        state.update(bounds=sweep, window=H.verma_basis(spec, L, N),
                     host=H.verma_basis(spec, host_L, N))
        return _sweep(state)

    units = [Unit([Job("sweep_cold", {"weight": shown, "bounds": list(sweep)}, cold),
                   Job("sweep_warm", {"weight": shown, "bounds": list(sweep)}, _sweep)])]

    L, N, level, order = singular

    def singular_run(state):
        tv = H.verma_basis(H.HWSpec.generic(8), L, N)
        rep = H.singular_vectors(tv, level, order)
        return 1, _problem(not rep.vectors,
                           f"generic weights gave {len(rep.vectors)} level-{level} singular vectors")
    units.append(Unit([Job("singular", {"weight": "generic(8)", "bounds": list(singular)},
                           singular_run)]))

    qL, qN, q_level, q_order = quotient

    def quotient_run(state):
        # trivial weights: all of level 1 is singular and the quotient kills it
        triv = H.HWSpec(RATIONALS.zero, H.Quasipolynomial.zero())
        tv = H.verma_basis(triv, qL, qN)
        rep = H.singular_vectors(tv, q_level, q_order)
        dims = H.weight_space_dims(tv, rep.vectors)
        want = pbw_count(qL, qN, level=q_level)
        return 2, (_problem(len(rep.vectors) == want,
                            f"{len(rep.vectors)} level-{q_level} singular vectors, expected {want}")
                   or _problem(dims[q_level] == 0,
                               f"level-{q_level} quotient dimension {dims[q_level]}"))
    units.append(Unit([Job("quotient", {"weight": "trivial", "bounds": list(quotient)},
                           quotient_run)]))

    bern = bernoulli(h_order)

    def h_run(state):
        phi = H.Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])
        hw = H.HWSpec(RATIONALS.zero, phi)
        for k in range(h_order + 1):
            if hw.h(k) != RATIONALS.rational(-bern[k]):
                return k + 1, f"h_{k} != -B_{k}"
        return h_order + 1, None
    units.append(Unit([Job("h_seq", {"phi": "x", "n": h_order}, h_run)]))
    return units


def _verma_warmup() -> list:
    rng = random.Random(0)
    return [unit for datum in ("generic", "exp")
            for unit in _verma_jobs(rng, datum, sweep=(1, 1, 3, 1, 1), singular=(1, 0, 1, 1),
                                    quotient=(1, 0, 1, 1), h_order=3)]


# ---------------------------------------------------------------------------
# verma_tensor, tensor kinds: mod-p kernels, exact fallback, host windows
# ---------------------------------------------------------------------------

PROBE = (3, 2, 1, 4, 2)          # d, L, N, m, n
INTERTWINER = (2, 2, 1, 4, 1)
SYMBOLIC_INTERTWINER = (2, 1, 1, 3, 1)
VANDERMONDE = (3, 1, 3)          # level L, N, highest x-degree


def _tensor_jobs(rng, eps: int, probe=PROBE, itw=INTERTWINER, sym=SYMBOLIC_INTERTWINER,
                 vand=VANDERMONDE) -> list:
    from weylmod import hwmod as H, tensor as T, umod as U
    from weylmod.scalars import ParamDecl, RATIONALS

    decl = ParamDecl(invertible=("lambda",), plain=("c",))
    phi_x = H.Quasipolynomial.poly([RATIONALS.zero, RATIONALS.one])
    jobs = []

    d, L, N, mb, nb = probe
    want_dim = (d + 1) * pbw_count(L, N)

    def probe_run(state):
        hw = H.verma_basis(H.HWSpec(decl.param("c"), phi_x), L, N)
        rep = T.irreducibility_probe(T.TensorSpec(U.omega_d(decl.param("lambda"), eps), hw),
                                     d, mb, nb)
        return rep.seeds_checked, (
            _problem(rep.verdict == "cyclic-within-bounds", f"probe verdict {rep.verdict}")
            or _problem(rep.space_dim == want_dim, f"space dimension {rep.space_dim}")
            or _count_problem(rep.seeds_checked, want_dim))
    jobs.append(Job("cyclic_probe", {"eps": eps, "bounds": list(probe)}, probe_run))

    def control_run(state):
        hw = H.verma_basis(H.HWSpec(decl.param("c"), phi_x), L, N)
        oh = U.omega_hv(decl.param("lambda"), decl.zero, decl.zero)
        rep = T.irreducibility_probe(T.TensorSpec(oh, hw), d, mb)
        return 1, _problem(rep.verdict == "not-cyclic-within-bounds",
                           f"control verdict {rep.verdict}")
    jobs.append(Job("control_probe", {"bounds": list(probe[:4])}, control_run))

    c = _rational(rng)

    def itw_job(kind, side_a, side_b, bounds, spec_of):
        d_, L_, N_, m_, n_ = bounds
        want = 1 if side_a == side_b else 0

        def run(state):
            got = T.intertwiner_dim(spec_of(side_a, L_, N_), spec_of(side_b, L_, N_), d_, m_, n_)
            return 1, _problem(got == want, f"intertwiner dimension {got}, expected {want}")
        return Job(kind, {"a": [str(x) for x in side_a], "b": [str(x) for x in side_b],
                          "c": str(c), "bounds": list(bounds)}, run)

    def hw_window(L_, N_):
        return H.verma_basis(H.HWSpec(RATIONALS.rational(c), phi_x), L_, N_)

    def rational_spec(side, L_, N_):
        lam, e = side
        return T.TensorSpec(U.omega_d(RATIONALS.rational(lam), e), hw_window(L_, N_))

    lam_a = _rational(rng, positive=True)
    lam_b = lam_a
    while lam_b == lam_a:
        lam_b = _rational(rng, positive=True)
    jobs.append(itw_job("intertwiner_same", (lam_a, eps), (lam_a, eps), itw, rational_spec))
    jobs.append(itw_job("intertwiner_lambda", (lam_a, eps), (lam_b, eps), itw, rational_spec))
    jobs.append(itw_job("intertwiner_eps", (lam_b, eps), (lam_b, 1 - eps), itw, rational_spec))

    dl = ParamDecl(invertible=("lambda",))

    def symbolic_spec(side, L_, N_):
        return T.TensorSpec(U.omega_d(dl.param("lambda"), side[1]), hw_window(L_, N_))

    e2 = 1 - eps if rng.random() < 0.5 else eps
    jobs.append(itw_job("intertwiner_symbolic", ("lambda", eps), ("lambda", e2), sym,
                        symbolic_spec))

    vL, vN, top = vand
    scale = _rational(rng)

    def vand_run(state):
        hw = H.verma_basis(H.HWSpec(decl.param("c"), phi_x), vL + 5, vN)
        ts = T.TensorSpec(U.omega_d(decl.param("lambda"), eps), hw)
        checks = 0
        for s in range(1, top + 1):
            for level in range(vL + 1):
                for mono in hw.basis_at_level(level):
                    w = ts.elem({(s, mono): 1, (0, ()): RATIONALS.rational(scale)})
                    red = T.vandermonde_reduce(ts, w)
                    checks += 1
                    if red.is_zero() or red.x_degree() >= s:
                        return checks, f"reduction failed at s={s}, {mono}"
        return checks, _count_problem(checks, top * pbw_count(vL, vN))
    jobs.append(Job("vandermonde", {"eps": eps, "bounds": list(vand), "scale": str(scale)},
                    vand_run))
    return jobs


def _verma_tensor_round(rng, r, offsets) -> list:
    # over 6 rounds every (weight datum, eps) pair occurs once
    datum = ("generic", "quad", "exp")[(r + offsets[0]) % 3]
    units = _verma_jobs(rng, datum)
    return units + [Unit([job]) for job in _tensor_jobs(rng, (r + offsets[1]) % 2)]


def _tensor_warmup() -> list:
    jobs = _tensor_jobs(random.Random(0), 1, probe=(1, 1, 0, 1, 1),
                        itw=(1, 1, 0, 1, 1), sym=(1, 1, 0, 1, 1), vand=(1, 0, 1))
    return [Unit([job]) for job in jobs]


# ---------------------------------------------------------------------------
# cli: one fresh weylmod process per command
# ---------------------------------------------------------------------------

# The golden commands, each checked byte for byte against tests/golden.
GOLDEN_COMMANDS = (
    ("bracket", ["bracket", "D^2", "t^3"]),
    ("bracket_json", ["bracket", "D^2", "t^3", "--json"]),
    ("bracket_central", ["bracket", "t", "t^-1", "--central"]),
    ("bracket_rank2", ["bracket", "D1^2", "t1^2*t2", "--rank", "2"]),
    ("product", ["product", "t*D", "t^2"]),
    ("cocycle", ["cocycle", "t^2*D", "t^-2*D"]),
    ("act_d", ["act", "D^3", "x", "--family", "d", "--eps", "0"]),
    ("act_vir", ["act", "L_2", "1", "--family", "vir", "--alpha", "alpha"]),
    ("act_hv", ["act", "I_-2", "x", "--family", "hv", "--alpha", "alpha",
                "--beta", "beta"]),
    ("act_rank2", ["act", "D1*D2", "x1", "--family", "dnu", "--eps", "1",
                   "--lam", "l1;l2", "--rank", "2"]),
    ("grade", ["grade", "t^3*D^2 + D + C", "--central"]),
    ("span_probe", ["span-probe", "--gen", "t", "--gen", "t^-1", "--gen", "D^2",
                    "--bounds", "m=1,n=2,depth=6"]),
    ("verma", ["verma", "--phi", "x", "--c", "0", "--bounds", "L=2,N=1"]),
    ("verma_json", ["verma", "--phi", "x", "--c", "0", "--bounds", "L=1,N=1",
                    "--json"]),
    ("act_verma", ["act-verma", "D", "t^-1", "--phi", "b*x", "--c", "c",
                   "--bounds", "L=2,N=1"]),
    ("singular", ["singular", "--phi", "0", "--c", "0",
                  "--bounds", "L=2,N=1,level=1,M=3"]),
    ("hseq", ["hseq", "--phi", "x", "--c", "0", "--n", "6"]),
    ("hseq_json", ["hseq", "--phi", "x", "--c", "0", "--n", "3", "--json"]),
    ("tensor_act", ["tensor-act", "D", "--xexp", "0", "--mono", "1",
                    "--phi", "x", "--c", "c", "--bounds", "L=2,N=1"]),
    ("tensor_probe", ["tensor-probe", "--bounds", "d=2,L=1,N=1,m=3,n=2",
                      "--phi", "x", "--c", "c"]),
    ("tensor_probe_control", ["tensor-probe", "--control-hv",
                              "--bounds", "d=2,L=1,N=1,m=3",
                              "--phi", "x", "--c", "c"]),
    ("intertwiner", ["intertwiner", "--lam-a", "2", "--lam-b", "3",
                     "--phi", "x", "--c", "1/2",
                     "--bounds", "d=2,L=1,N=1,m=3,n=1"]),
    ("verify_single", ["verify", "--suite", "bracket-identities"]),
    ("verify_json", ["verify", "--suite", "span-closure", "--json"]),
)

# Both sides carry the same data, so the right answer is 1.  Today the
# exact fallback refuses the 1024-unknown system and the command ends in a
# RuntimeError traceback with exit code 1 (ROADMAP item 2); that outcome is
# counted as a failed job, any other wrong outcome as a wrong answer.
SYMBOLIC_INTERTWINER_ARGV = ["intertwiner", "--lam-a", "lambda", "--lam-b", "lambda",
                             "--phi", "x", "--c", "1/2",
                             "--bounds", "d=3,L=2,N=1,m=4,n=1"]
SYMBOLIC_INTERTWINER_FAILURE = "RuntimeError"


def cli_commands(root: Path) -> list:
    """(name, argv, expected stdout, known failure marker) for every command."""
    golden = root / "tests" / "golden"
    cmds = [(name, argv, (golden / f"{name}.txt").read_text(), None)
            for name, argv in GOLDEN_COMMANDS]
    cmds.append(("intertwiner_symbolic", SYMBOLIC_INTERTWINER_ARGV,
                 "bounded intertwiner dimension: 1\n", SYMBOLIC_INTERTWINER_FAILURE))
    return cmds
