"""The benchmark's workloads, their timed rounds and their checks.

A workload runs whole rounds of the same operations.  ``run_round`` is the
only timed code; ``check`` runs after the timed section and counts, for
every round, the operations whose output is wrong.  Expected answers come
from ``qoracle`` (through ``oracle.Reducer``) or from properties the paper
proves, never from a stored copy of the engine's output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from oracle import OracleError, Reducer, engine_tables, same_tables

SPACE = {
    "Thm4.5-first": "plus",
    "Thm4.5-second": "plus",
    "Cor4.6-truncated": "plus",
    "Prop5.1-first": "zero",
    "Prop5.1-second": "zero",
    "Thm5.5-first": "full",
    "Thm5.5-second": "full",
    "Borel-variant": "borel",
    "Minus-variant": "minus-borel",
}
ITERATED = {"Thm4.5-second", "Prop5.1-second", "Thm5.5-second"}

# root systems each workload builds during set-up
SYSTEMS = {"desk": ("A1", "A2", "B2", "G2"), "stretch": ("A2",),
           "mixed": ("A1", "A2", "B2", "G2")}

# One thread: the engine holds the interpreter lock, so the CLI's default
# pool of cpu_count() threads certifies no faster and only adds lock
# hand-offs, whose timing varies from run to run.
DESK_ARGV = ["verify", "--all-desk", "--threads", "1"]
STRETCH_ARGV = ["verify", "--statement", "Thm5.5-first", "--type", "A2",
                "--p", "2", "--r", "1", "--n", "1"]


def depth_of(statement: str, r: int, n: int) -> int:
    return r if statement in ITERATED else r + n


def source_dim(statement: str, p: int, r: int, n: int, rank: int, nu: int) -> int:
    """Dimension of the source of a statement's map: p^(depth * exponent count).

    A truncation at depth d of the raising (or lowering) algebra has p^(d nu)
    basis monomials, the torus part p^(d rank) idempotents, and the Borel
    and full spaces are their tensor products.
    """
    per_depth = {"plus": nu, "minus": nu, "zero": rank, "borel": nu + rank,
                 "minus-borel": nu + rank, "full": 2 * nu + rank}[SPACE[statement]]
    return p ** (depth_of(statement, r, n) * per_depth)


def sha256_json(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class Hy:
    """The hyperalg modules the workloads use, imported once by the caller."""

    def __init__(self):
        from hyperalg import cli, frobenius, isocheck, qoracle, rootdata, straighten
        from hyperalg import chevalley

        self.cli = cli
        self.isocheck = isocheck
        self.rootdata = rootdata
        self.chevalley = chevalley
        self.Engine = straighten.Engine
        self.Frobenius = frobenius.Frobenius
        self.QOracle = qoracle.QOracle

    def build(self, labels: Sequence[str]) -> Dict[str, tuple]:
        """Root systems and structure constants, built afresh (set-up work)."""
        self.rootdata.build_root_system.cache_clear()
        out = {}
        for label in labels:
            rs = self.rootdata.build_root_system(label)
            out[label] = (rs, self.chevalley.StructureConstants(rs))
        return out


# -- oracle products of engine elements ------------------------------------


class OracleBank:
    """One QOracle per root system and one Reducer per (system, p, level)."""

    def __init__(self, hy: Hy):
        self.hy = hy
        self._qo: Dict[str, object] = {}
        self._red: Dict[tuple, Reducer] = {}

    def reducer(self, rs, p: int, level: int) -> Reducer:
        key = (rs.type_label, p, level)
        red = self._red.get(key)
        if red is None:
            qo = self._qo.get(rs.type_label)
            if qo is None:
                qo = self._qo[rs.type_label] = self.hy.QOracle(rs)
            red = self._red[key] = Reducer(qo, p, level)
        return red

    def product(self, rs, p: int, level: int, factors: List[dict]) -> dict:
        """Expected product of elements given by their tables."""
        rank = rs.rank
        zero = (0,) * rs.num_positive
        if all(set(f) <= {(zero, zero)} for f in factors):
            # torus parts multiply pointwise, as functions on weights
            tab = None
            for f in factors:
                part = f.get((zero, zero))
                if part is None:
                    return {}
                tab = part if tab is None else tab * part % p
            return {(zero, zero): tab} if tab.any() else {}
        red = self.reducer(rs, p, level)
        q = red.to_q(factors[0])
        for f in factors[1:]:
            q = red.qo.q_multiply(q, red.to_q(f))
        return red.tables(q)


# -- desk and stretch ------------------------------------------------------


class VerifyWorkload:
    """Certifications, run in process the way a user runs ``hyperalg verify``."""

    unit_name = "columns"

    def __init__(self, hy: Hy, specs, seed: int, samples: int,
                 runner: Optional[Callable[[], Tuple[int, str]]] = None,
                 argv: Optional[List[str]] = None,
                 engine_for: Optional[Callable] = None):
        self.hy = hy
        self.specs = list(specs)
        self.seed = seed
        self.samples = samples
        self.argv = argv
        self._runner = runner
        self._engine_for = engine_for or (lambda spec: hy.Engine(
            hy.rootdata.build_root_system(spec.system), spec.p))
        self.ops = len(self.specs)
        self.units = 0
        for s in self.specs:
            rs = hy.rootdata.build_root_system(s.system)
            self.units += source_dim(s.statement, s.p, s.r, s.n, rs.rank, rs.num_positive)

    def run_round(self):
        if self._runner is not None:
            return self._runner()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.hy.cli.main(self.argv)
        return rc, buf.getvalue()

    def keep(self, out, first: bool):
        return out

    # -- checks -----------------------------------------------------------

    def _report_problems(self, spec, rep: dict) -> List[str]:
        rs = self.hy.rootdata.build_root_system(spec.system)
        want = source_dim(spec.statement, spec.p, spec.r, spec.n, rs.rank, rs.num_positive)
        got = (rep.get("statement"), rep.get("system"), rep.get("p"), rep.get("r"), rep.get("n"))
        out = []
        if got != (spec.statement, spec.system, spec.p, spec.r, spec.n):
            return [f"report {got} out of place"]
        if rep.get("bijective") is not True:
            out.append("not bijective")
        if not rep.get("rank") == rep.get("source_dim") == want:
            out.append(f"rank {rep.get('rank')} / source_dim {rep.get('source_dim')} / formula {want}")
        blocks = rep.get("blocks") or []
        if sum(b["dim"] for b in blocks) != rep.get("source_dim"):
            out.append("block dims do not sum to source_dim")
        if sum(b["rank"] for b in blocks) != rep.get("rank"):
            out.append("block ranks do not sum to rank")
        if any(not 0 <= b["rank"] <= b["dim"] for b in blocks):
            out.append("block rank outside [0, dim]")
        if rep.get("kernel_witness"):
            out.append("kernel witness on a bijective map")
        if spec.statement.startswith("Prop5.1") and rep.get("multiplicative") is not True:
            out.append("torus map not multiplicative")
        return out

    def _sample_problems(self, spec, rng: random.Random, bank: OracleBank) -> List[str]:
        """Recompute a seeded sample of columns; check them with the oracle."""
        hy = self.hy
        engine = self._engine_for(spec)
        rs, p = engine.rs, spec.p
        fro = hy.Frobenius(engine)
        level = depth_of(spec.statement, spec.r, spec.n)
        space = SPACE[spec.statement]
        basis = hy.isocheck.enumerate_basis
        problems = []
        if spec.statement in ITERATED:
            basis1 = [x for _, x in basis(engine, space, 1, level)]
            m = len(basis1)
            total = m**spec.r
        else:
            left = [x for _, x in basis(engine, space, spec.r, level)]
            right = [x for _, x in basis(engine, space, spec.n, level)]
            total = len(left) * len(right)
        for idx in sorted(rng.sample(range(total), min(self.samples, total))):
            if spec.statement in ITERATED:
                combo = [(idx // m ** (spec.r - 1 - i)) % m for i in range(spec.r)]
                sources = [(basis1[j], i) for i, j in enumerate(combo)]
                images = [fro.fr_prime(x, i) for x, i in sources]
                col = engine.one(level)
                for img in images:
                    col = engine.multiply(col, img)
                factors = images
            else:
                i, j = divmod(idx, len(right))
                sources = [(right[j], spec.r)]
                images = [fro.fr_prime(right[j], spec.r)]
                col = engine.multiply(left[i], images[0])
                factors = [left[i], images[0]]
            try:
                want = bank.product(rs, p, level, [engine_tables(f, rs.rank) for f in factors])
            except OracleError as exc:
                problems.append(f"column {idx}: oracle refused: {exc}")
                continue
            if not same_tables(engine_tables(col, rs.rank), want):
                problems.append(f"column {idx} differs from the oracle")
            for (y, r), img in zip(sources, images):
                back = fro.fr_power(img, r)
                if not same_tables(engine_tables(back, rs.rank), engine_tables(y, rs.rank)):
                    problems.append(f"column {idx}: Fr^{r}(Fr'^{r}(y)) != y")
        return problems

    def check(self, outputs) -> Tuple[List[int], dict]:
        rng = random.Random(self.seed)
        bank = OracleBank(self.hy)
        case_problems = [self._sample_problems(s, rng, bank) for s in self.specs]
        failed, digests, problems = [], [], {}
        for k, (rc, text) in enumerate(outputs):
            try:
                reports = json.loads(text)["reports"]
            except (ValueError, KeyError, TypeError):
                reports = []
            bad = 0
            for i, spec in enumerate(self.specs):
                probs = list(case_problems[i])
                if i < len(reports):
                    probs += self._report_problems(spec, reports[i])
                else:
                    probs.append("no report")
                if probs:
                    bad += 1
                    problems.setdefault(f"{spec.statement} {spec.system} p={spec.p} r={spec.r} n={spec.n}", probs)
            bijective = len(reports) == len(self.specs) and all(r.get("bijective") for r in reports)
            if rc != (0 if bijective else 1):
                bad = self.ops
                problems.setdefault("exit code", [f"round {k}: exit code {rc}"])
            failed.append(bad)
            digests.append(sha256_json([{k2: v for k2, v in r.items() if k2 != "elapsed_ms"}
                                        for r in reports]))
        info = {"digest": digests[0], "rounds_agree": len(set(digests)) == 1,
                "problems": problems}
        if not info["rounds_agree"]:
            failed = [self.ops] * len(outputs)
        if outputs:
            try:
                reports = json.loads(outputs[0][1])["reports"]
                info["case_ms"] = {f"{r['statement']} {r['system']} p={r['p']} r={r['r']} n={r['n']}":
                                   r["elapsed_ms"] for r in reports}
            except (ValueError, KeyError, TypeError):
                pass
        return failed, info


def desk(hy: Hy, seed: int, small: bool = False) -> VerifyWorkload:
    specs = hy.isocheck.DESK_SPECS
    if small:
        specs = [s for s in specs if (s.system, s.p) in {("A2", 2), ("A1", 2)}][:6]

        def runner():
            reports = [hy.isocheck.verify(s).to_dict() for s in specs]
            return (0 if all(r["bijective"] for r in reports) else 1,
                    json.dumps({"reports": reports}))

        return VerifyWorkload(hy, specs, seed, samples=2, runner=runner)
    return VerifyWorkload(hy, specs, seed, samples=48, argv=DESK_ARGV)


def stretch(hy: Hy, seed: int, small: bool = False) -> VerifyWorkload:
    MapSpec = hy.isocheck.MapSpec
    if small:
        argv = ["verify", "--statement", "Thm5.5-first", "--type", "A1", "--p", "2", "--r", "1", "--n", "1"]
        return VerifyWorkload(hy, [MapSpec("Thm5.5-first", "A1", 2, 1, 1)], seed, samples=4, argv=argv)
    return VerifyWorkload(hy, [MapSpec("Thm5.5-first", "A2", 2, 1, 1)], seed, samples=48,
                          argv=STRETCH_ARGV)


def sabotaged_desk(hy: Hy, seed: int) -> VerifyWorkload:
    """The desk check, run against an engine with one flipped structure constant."""
    spec = hy.isocheck.MapSpec("Thm4.5-first", "A2", 3, 1, 1)

    def runner():
        rep = hy.isocheck.verify(spec, engine=hy.isocheck.sabotaged_engine("A2", 3))
        return (0 if rep.bijective else 1, json.dumps({"reports": [rep.to_dict()]}))

    return VerifyWorkload(hy, [spec], seed, samples=48, runner=runner,
                          engine_for=lambda s: hy.isocheck.sabotaged_engine(s.system, s.p))


# -- mixed -------------------------------------------------------------------

# (system, p, torus level, exponent cap, products per round).  Exponents are
# drawn from range(cap); the level satisfies p^level > (cap - 1) * (sum of
# the heights of the positive roots), which bounds every Cartan binomial
# degree that straightening e^(b) f^(a) can produce.
MIX = (
    ("A2", 2, 4, 4, 60),
    ("A2", 3, 3, 4, 60),
    ("B2", 2, 4, 3, 60),
    ("B2", 3, 3, 3, 60),
    ("G2", 2, 5, 2, 60),
    ("G2", 3, 3, 2, 60),
)
# Fixed A1 products (e^(b) f^(a)) (e^(c) f^(d)) at p=191, level 1: their
# torus tables multiply values up to 190, which overflows int16 tables.
SLICE_191 = ((1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 2), (3, 2, 2, 3),
             (3, 3, 3, 3), (4, 3, 2, 5), (5, 4, 3, 2), (6, 5, 4, 3))


class MixedWorkload:
    """Raising x lowering products c e^(b) . c' f^(a), each on a cold engine."""

    unit_name = "products"

    def __init__(self, hy: Hy, seed: int, scale: float = 1.0):
        self.hy = hy
        rng = random.Random(seed)
        # (system, p, level, b, a, (c, c')), or (system, p, level, (b, a, c, d), None, None)
        self.cases = []
        for label, p, level, cap, count in MIX:
            count = max(1, int(count * scale))
            nu = hy.rootdata.build_root_system(label).num_positive
            # The exponent vectors are drawn once, the same for every seed:
            # a seed that chose which roots carry the exponents made a
            # round's work range from 2.5 s to 3.6 s over six seeds.  The
            # seed sets the nonzero coefficient of each factor, which
            # changes every answer at p > 2 and no work.
            shapes = random.Random(f"{label} {p}")
            for _ in range(count):
                b = tuple(shapes.randrange(cap) for _ in range(nu))
                a = tuple(shapes.randrange(cap) for _ in range(nu))
                coef = (rng.randrange(1, p), rng.randrange(1, p))
                self.cases.append((label, p, level, b, a, coef))
        self.main_count = len(self.cases)
        for exps in SLICE_191:
            self.cases.append(("A1", 191, 1, exps, None, None))
        self.ops = len(self.cases)
        self.units = self.ops
        self.built = None  # label -> (rs, sc), set by the caller after set-up

    def run_round(self):
        Engine = self.hy.Engine
        built = self.built
        out = []
        for label, p, level, b, a, coef in self.cases:
            rs, sc = built[label]
            try:
                eng = Engine(rs, p, sc=sc)
                if a is None:
                    e1, f1, e2, f2 = b
                    x = eng.multiply(eng.divided_power((1,), e1, level), eng.divided_power((-1,), f1, level))
                    y = eng.multiply(eng.divided_power((1,), e2, level), eng.divided_power((-1,), f2, level))
                    z = eng.multiply(x, y)
                else:
                    zero = (0,) * rs.num_positive
                    z = eng.multiply(eng.monomial(zero, b, None, level).scale(coef[0]),
                                     eng.monomial(a, zero, None, level).scale(coef[1]))
            except Exception as exc:  # noqa: BLE001 -- an error is this product's outcome
                z = exc
            out.append(z)
        return out

    def keep(self, out, first: bool):
        """What the checks need from a round: a fingerprint of every product,
        and the products themselves for the first round only, so that memory
        does not grow with the number of rounds."""
        prints = []
        for (label, *_), z in zip(self.cases, out):
            if isinstance(z, Exception):
                prints.append(f"error: {type(z).__name__}")
                continue
            h = hashlib.sha256()
            for key, tab in sorted(engine_tables(z, self.built[label][0].rank).items()):
                h.update(repr(key).encode())
                h.update(tab.tobytes())
            prints.append(h.hexdigest())
        return (out if first else None), prints

    def _factors(self, rs, b, a):
        if a is None:
            e1, f1, e2, f2 = b
            return [((1,), e1), ((-1,), f1), ((1,), e2), ((-1,), f2)]
        pos = rs.convex_roots
        return ([(pos[k], n) for k, n in enumerate(b) if n]
                + [(tuple(-v for v in pos[k]), n) for k, n in enumerate(a) if n])

    def check(self, outputs) -> Tuple[List[int], dict]:
        bank = OracleBank(self.hy)
        expected = []
        for label, p, level, b, a, coef in self.cases:
            rs = self.built[label][0]
            red = bank.reducer(rs, p, level)
            try:
                tables = red.tables(red.qo.multiply_divided(self._factors(rs, b, a)))
            except OracleError as exc:
                expected.append(exc)
                continue
            if coef is not None:
                # p is prime, so a nonzero multiple of a nonzero table is nonzero
                c = coef[0] * coef[1] % p
                tables = {key: tab * c % p for key, tab in tables.items()}
            expected.append(tables)
        first, prints0 = outputs[0]
        ok0 = []
        problems: Dict[str, str] = {}
        for case, got, want in zip(self.cases, first, expected):
            label, p, level, b, a, coef = case
            if isinstance(got, Exception):
                # a refusal before computing is a correct outcome only in
                # the p=191 slice, whose inputs the tables cannot hold
                ok = a is None and isinstance(got, ValueError)
            else:
                tables = engine_tables(got, self.built[label][0].rank)
                ok = not isinstance(want, Exception) and same_tables(tables, want)
            ok0.append(ok)
            if not ok:
                problems[f"{label} p={p} level={level} b={b} a={a} coef={coef}"] = (
                    repr(got) if isinstance(got, Exception) else "differs from the oracle")
        failed = []
        slice_failed = 0
        for _, prints in outputs:
            # a later round is right where it repeats the first round's answer
            bad = [not ok or pr != pr0 for ok, pr, pr0 in zip(ok0, prints, prints0)]
            failed.append(sum(bad))
            slice_failed += sum(b for b, case in zip(bad, self.cases) if case[4] is None)
        digests = [sha256_json(prints) for _, prints in outputs]
        n_slice = len(SLICE_191)
        info = {
            "digest": digests[0],
            "rounds_agree": len(set(digests)) == 1,
            "main": {"attempted": self.main_count * len(outputs),
                     "failed": sum(failed) - slice_failed},
            "p191_slice": {"attempted": n_slice * len(outputs), "failed": slice_failed},
            "problems": problems,
        }
        return failed, info


def make(name: str, hy: Hy, seed: int, small: bool = False):
    if name == "desk":
        return desk(hy, seed, small)
    if name == "stretch":
        return stretch(hy, seed, small)
    if name == "mixed":
        return MixedWorkload(hy, seed, 0.1 if small else 1.0)
    raise ValueError(f"unknown workload {name!r}")
