"""Workload pools, the seeded input generator and the output oracle.

A run repeats rounds.  A round is one pass over a workload's pool in an order
drawn from the seed, so every round does the same mix of work and runs with
different seeds differ only in order and in the random inputs they draw.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALPHA_TOL = 1e-9
SUMMARY_RE = re.compile(r"^(\w+)_([RC])\((\d+), (\d+), (\d+)\)$")
ALPHA_RE = re.compile(r"^\s*isoclinism alpha\s*:\s*(\S+)\s*$", re.M)


@dataclass(frozen=True)
class Row:
    """One table row: how to build it and where its exact parameters come from."""

    name: str
    kind: str  # single-layer | multi-layer | alternating
    mu: str
    lam: str | None = None
    delta: int | None = None
    epsilon: str | None = None
    exact: tuple = ()  # (source, args) for the prep worker

    @property
    def n(self) -> int:
        """Degree of the transversal, |mu| + 1."""
        mu_size = sum(int(p) for p in self.mu.split(","))
        return mu_size + 1

    @property
    def even(self) -> bool:
        return self.kind == "alternating"

    def cli_argv(self) -> list[str]:
        argv = ["construct", self.kind]
        if self.lam is not None:
            argv += ["--lambda", self.lam]
        argv += ["--mu", self.mu]
        if self.delta is not None:
            argv += ["--delta", str(self.delta)]
        if self.epsilon is not None:
            argv += ["--epsilon", self.epsilon]
        return argv

    def build_spec(self) -> dict:
        return {"kind": self.kind, "lambda": self.lam, "mu": self.mu,
                "delta": self.delta, "epsilon": self.epsilon or "+"}


def _sl(name, lam, mu, *family):
    return Row(name, "single-layer", mu, lam=lam, exact=("single_layer_parameters", family))


def _ml(name, mu, delta):
    return Row(name, "multi-layer", mu, delta=delta, exact=("isoclinic_certificate", (mu, delta)))


def _alt(name, mu, delta, epsilon, a, c):
    return Row(name, "alternating", mu, delta=delta, epsilon=epsilon,
               exact=("alternating_parameters", (a, c, delta)))


# I(2,7) (d=1430, about 11 s a call here) is left out of the construct pool so
# that a round fits the run length; the two d=2100 rows keep the large certify.
CONSTRUCT_POOL = (
    _sl("I(2,6)", "7,6", "6,6", "I", 2, 6),
    _sl("I(3,3)", "4,3,3", "3,3,3", "I", 3, 3),
    _sl("III(1,1,4)", "5,2,1,1,1", "5,1,1,1,1", "III", 1, 1, 4),
    _sl("III(1,2,2)", "4,3,2", "4,2,2", "III", 1, 2, 2),
    _sl("III(1,1,5)", "6,2,1,1,1,1", "6,1,1,1,1,1", "III", 1, 1, 5),
    _ml("multi(5,1^4)d1", "5,1,1,1,1", 1),
    _ml("multi(6,1^5)d0", "6,1,1,1,1,1", 0),
    _alt("alt(5,1^4)d1", "5,1,1,1,1", 1, None, 1, 4),
    _alt("alt(6,1^5)d1+", "6,1,1,1,1,1", 1, "+", 1, 5),
)

# The complex-field input is alternating (4,1^3) d=1, not (6,1^5) d=1, whose
# complement alone takes about 19 s, 870 MB and a 101 MB file here.  The type I
# input is I(2,5), not I(2,6): an I(2,6) operation (a 17 MB input, a 50 MB
# complement) took 80% of a round, so a run held two samples of it and its
# wall_s spread past the bound on a shared host.
FILE_COMPLEMENT_POOL = (
    _sl("I(2,5)", "6,5", "5,5", "I", 2, 5),
    CONSTRUCT_POOL[1],
    CONSTRUCT_POOL[2],
    CONSTRUCT_POOL[5],
    _alt("alt(4,1^3)d1+", "4,1,1,1", 1, "+", 1, 3),
)

SEARCH_N = tuple(range(12, 23))
SEARCH_DIGESTS = HERE / "search_sha256.json"

# Row i of round k takes kind (i + k) mod len(kinds), so every run does the same
# mix of work whatever its seed; the seed draws the random representatives.
TRANSVERSAL_KINDS = ("default", "cycle", "random")
# The powers of an n-cycle are not all even, so alternating rows skip "cycle".
EVEN_TRANSVERSAL_KINDS = ("default", "random")


def _is_even(images: list[int]) -> bool:
    inversions = sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
                     if images[i] > images[j])
    return inversions % 2 == 0


def random_transversal(n: int, even: bool, rng: random.Random) -> list[str]:
    """Random coset representatives t_1..t_n of S_{n-1} with t_k(n) = k, in one-line form.

    When ``even`` is set each odd t_k is fixed by swapping its first two
    images, which keeps t_k(n) = k and makes it even.
    """
    out = []
    for k in range(1, n + 1):
        images = [x for x in range(1, n + 1) if x != k]
        rng.shuffle(images)
        images.append(k)
        if even and not _is_even(images):
            images[0], images[1] = images[1], images[0]
        out.append(",".join(map(str, images)))
    return out


def _round_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def _alpha_ok(value, exact: Fraction) -> bool:
    return value is not None and abs(float(value) - float(exact)) <= ALPHA_TOL


@dataclass
class Op:
    """One planned operation: the pool row it measures and the worker's op spec."""

    row: str
    spec: dict
    files: list[Path] = field(default_factory=list)  # outputs to delete after the check


class Workload:
    name: str
    rows: tuple[str, ...]
    pool: tuple[Row, ...] = ()

    def prep_request(self, seed: int, work: Path) -> dict:
        """What the untimed prep worker should build and compute before the first op."""
        return {"exact": [{"source": r.exact[0], "args": list(r.exact[1])} for r in self.pool]}

    def accept_prep(self, result: dict) -> None:
        self.exact = {r.name: e for r, e in zip(self.pool, result["exact"])}

    def round_ops(self, k: int, seed: int, work: Path) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, result: dict) -> str | None:
        """None when the output is correct, else why it is not."""
        raise NotImplementedError


class Construct(Workload):
    """symfusion construct over table rows, each with a default, cycle or random transversal."""

    name = "construct"
    pool = CONSTRUCT_POOL
    rows = tuple(r.name for r in pool)

    def round_ops(self, k, seed, work):
        rng = _round_rng(self.name, seed, k)
        ops = []
        for i, row in enumerate(self.pool):
            kinds = EVEN_TRANSVERSAL_KINDS if row.even else TRANSVERSAL_KINDS
            kind = kinds[(i + k) % len(kinds)]
            argv = row.cli_argv()
            if kind == "random":
                path = work / f"transversal-{k}-{i}.json"
                path.write_text(json.dumps(random_transversal(row.n, row.even, rng)))
                argv += ["--transversal", f"@{path}"]
            elif kind == "cycle":
                argv += ["--transversal", "cycle"]
            ops.append(Op(row.name, {"kind": "cli", "argv": argv}))
        rng.shuffle(ops)
        return ops

    def check(self, op, result):
        if result.get("rc") != 0:
            return f"exit status {result.get('rc')}"
        exact = self.exact[op.row]
        lines = result["stdout"].splitlines()
        m = SUMMARY_RE.match(lines[0]) if lines else None
        if m is None:
            return "no verdict line"
        verdict, fld, d, r, n = m.group(1), m.group(2), *map(int, m.groups()[2:])
        if verdict != "EITFF":
            return f"verdict {verdict}"
        if (fld, d, r, n) != (exact["field"], exact["d"], exact["r"], exact["n"]):
            return f"parameters {(fld, d, r, n)} != {(exact['field'], exact['d'], exact['r'], exact['n'])}"
        a = ALPHA_RE.search(result["stdout"])
        if a is None or not _alpha_ok(a.group(1), Fraction(exact["alpha"])):
            return f"alpha {a.group(1) if a else None} != {exact['alpha']}"
        return None


class FileComplement(Workload):
    """load -> certify -> naimark_complement -> certify -> save, on files written before timing."""

    name = "file_complement"
    pool = FILE_COMPLEMENT_POOL
    rows = tuple(r.name for r in pool)

    def prep_request(self, seed, work):
        rng = random.Random(f"{self.name}:{seed}:inputs")
        self.inputs = {r.name: work / f"input-{i}.json" for i, r in enumerate(self.pool)}
        build = [dict(r.build_spec(), path=str(self.inputs[r.name]),
                      transversal=random_transversal(r.n, r.even, rng)) for r in self.pool]
        return dict(super().prep_request(seed, work), build=build)

    def round_ops(self, k, seed, work):
        rng = _round_rng(self.name, seed, k)
        ops = []
        for i, row in enumerate(self.pool):
            out = work / f"complement-{k}-{i}.json"
            spec = {"kind": "file_complement", "in": str(self.inputs[row.name]), "out": str(out)}
            ops.append(Op(row.name, spec, files=[out]))
        rng.shuffle(ops)
        return ops

    def check(self, op, result):
        if result.get("rc") != 0:
            return "raised: " + result.get("error", "?").strip().splitlines()[-1]
        exact = self.exact[op.row]
        if result["verdicts"] != ["EITFF", "EITFF"]:
            return f"verdicts {result['verdicts']}"
        d, r, n = exact["d"], exact["r"], exact["n"]
        comp_d = r * n - d
        want = [exact["field"], comp_d, r, n]
        if result["complement"] != want:
            return f"complement {result['complement']} != {want}"
        welch = Fraction(r * n - comp_d, comp_d * (n - 1))
        if not _alpha_ok(result["alpha"], welch):
            return f"complement alpha {result['alpha']} != Welch {welch}"
        out = Path(op.spec["out"])
        if not out.is_file() or out.stat().st_size == 0:
            return "complement file missing"
        return None


class Search(Workload):
    """search-isoclinic --max-n N, every N in 12..22 once a round."""

    name = "search"
    rows = tuple(f"N={n}" for n in SEARCH_N)

    def __init__(self):
        self.digests = json.loads(SEARCH_DIGESTS.read_text())["sha256"]

    def round_ops(self, k, seed, work):
        rng = _round_rng(self.name, seed, k)
        order = list(SEARCH_N)
        rng.shuffle(order)
        return [Op(f"N={n}", {"kind": "cli", "argv": ["search-isoclinic", "--max-n", str(n)]})
                for n in order]

    def check(self, op, result):
        if result.get("rc") != 0:
            return f"exit status {result.get('rc')}"
        n = op.spec["argv"][-1]
        for line in result["stdout"].splitlines():
            cert = json.loads(line)
            if Fraction(cert["beta_squared"]) != Fraction(cert["beta_squared_predicted"]):
                return f"beta^2 {cert['beta_squared']} != predicted for mu={cert['mu']}"
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if digest != self.digests.get(n):
            return f"output sha256 {digest[:12]} differs from the recorded certificates"
        return None


WORKLOADS = {w.name: w for w in (Construct, FileComplement, Search)}
