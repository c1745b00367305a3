"""Construction recipes for totally symmetric and alternating subspace ensembles.

A single layer orbits one branching isotypic component under a transversal of
S_n; multiple layers stack weighted branching isometries over a set L of
shapes covering mu.  Exact rational certificates decide which selections give
equi-isoclinic ensembles before (or instead of) building any matrices: the
per-removable-box sums must share one magnitude with alternating signs, and
only the two parity subsets L_0, L_1 of the covers can ever succeed.  Every
exact verdict comes from one integer kernel over mu's corner contents, the
layer sums scaled by a Vandermonde; Fractions appear only in the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from operator import floordiv
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import altrep
from .errors import (
    BadTransversalError,
    ConstraintViolationError,
    DivisibilityViolatedError,
    EmptySelectionError,
    InconsistentFamilyError,
    NotInDownSetError,
    NotIsometryError,
    NotTransposeClosedError,
    NotUnitaryError,
    ResourceLimitError,
    StepConstraintViolatedError,
    TrivialSubspaceError,
)
from .fusion import DEFAULT_TOL, FusionEnsemble, _fields_json
from .permutations import (
    Permutation,
    transversal_an,
    transversal_sn,
    validate_transversal,
)
from .symrep import apply_generator, rep_matrix, right_apply_generator
from .tableaux import (
    Partition,
    corner_parts,
    dimension,
    down_offset,
    partition_corners,
    removable_boxes,
    transpose,
    up_set,
)

DEFAULT_MAX_DIM = 5000

# t_1, ..., t_n with t_k(n) = k, or a function of n that gives them
_Transversal = Sequence[Permutation] | Callable[[int], Sequence[Permutation]]


# --------------------------------------------------------------------------
# layer selections and exact certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSelection:
    """A subset of the shapes covering mu, stored as 0-based positions.

    Positions index :func:`tableaux.up_set`, whose order is descending
    superdiagonal of the added box.  L_0 collects the even 1-based positions,
    L_1 the odd ones.
    """

    mu: Partition
    indices: tuple[int, ...]

    def __post_init__(self):
        covers = up_set(self.mu)
        if not self.indices:
            raise EmptySelectionError("layer selection must be nonempty")
        # a list would leave the selection unhashable and unequal to its tuple twin
        object.__setattr__(self, "indices", tuple(self.indices))
        # ints only, as for delta: True is an int to Python and would read as position 1
        if any(type(i) is not int or not 0 <= i < len(covers) for i in self.indices):
            raise ConstraintViolationError(f"layer indices must be ints in 0..{len(covers) - 1}")
        if len(set(self.indices)) != len(self.indices):
            raise ConstraintViolationError("layer indices must be distinct")

    @classmethod
    def from_delta(cls, mu: Partition, delta: int) -> "LayerSelection":
        return cls(mu, tuple(range(len(up_set(mu)))[_parity(delta)]))

    @classmethod
    def from_partitions(cls, mu: Partition, layers: Sequence[Partition]) -> "LayerSelection":
        covers = [lam for lam, _ in up_set(mu)]
        idx = []
        for lam in layers:
            if lam not in covers:
                raise NotInDownSetError(f"{lam!r} does not cover {mu!r}")
            idx.append(covers.index(lam))
        return cls(mu, tuple(sorted(idx)))

    @property
    def partitions(self) -> tuple[Partition, ...]:
        covers = up_set(self.mu)
        return tuple(covers[i][0] for i in self.indices)

    @property
    def delta(self) -> int | None:
        """0 or 1 when the selection is a canonical parity subset, else None."""
        every = range(len(up_set(self.mu)))
        return next((delta for delta in (0, 1) if self.indices == tuple(every[_parity(delta)])), None)

    @property
    def total_dimension(self) -> int:
        return sum(dimension(lam) for lam in self.partitions)

    def complement(self) -> "LayerSelection":
        count = len(up_set(self.mu))
        rest = tuple(i for i in range(count) if i not in self.indices)
        return LayerSelection(self.mu, rest)


def _parity(delta: int) -> slice:
    """The positions of L_delta among the covers, the even 1-based ones for L_0; delta is the int 0 or 1."""
    if type(delta) is not int or delta not in (0, 1):
        raise ConstraintViolationError("delta must be 0 or 1")
    return slice(1 - delta, None, 2)


def _ints(*values) -> None:
    """Refuse a family or table parameter that is not an int (a bool or a float included)."""
    if any(type(v) is not int for v in values):
        raise ConstraintViolationError(f"family and table parameters must be ints, got {values!r}")


def _corners(parts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Contents (x, y) of the addable and removable boxes, in the orders of :func:`up_set`
    and :func:`removable_boxes`: x = p - i where row i starts a new part, then -len, and
    y = p - 1 - i where row i ends one.  They interlace, x_1 > y_1 > ... > y_c > x_{c+1}."""
    ends = [i for i in range(1, len(parts)) if parts[i - 1] > parts[i]] + [len(parts)]
    xs = tuple(parts[i] - i for i in [0] + ends[:-1]) + (-len(parts),)
    return xs, tuple(parts[i - 1] - i for i in ends)


def _scaled_sums(xs, ys, at):
    """V = prod_{j<l} (x_j - x_l) > 0, the integers V w_k at the addable contents ``at``, where
    w = prod_i (x - y_i) / prod_{x_j != x} (x - x_j) = d_lam / (n d_mu) (Kerov 1993), and lazily
    the layer sums V s_q = sum_k V w_k / (x_k - y_q) over the removable contents y_q, with
    x_k - y_q = D(lam_k - mu, box_q).  Each division is exact: x_k - y_q divides w_k's numerator."""
    v = prod([a - b for a, b in combinations(xs, 2)])
    vws = [v // prod([x - z for z in xs if z != x]) * prod([x - y for y in ys]) for x in at]
    return v, vws, (sum(map(floordiv, vws, [x - y for x in at])) for y in ys)


def _isoclinic(xs, ys):
    """The kernel's V, V w_k and V s_q over L_0 if the s_q(L_0) alternate in sign with one
    magnitude, else None, decided on the integers V s_q up to the first box that breaks the
    pattern.  s_1 < 0, as L_0 lies below y_1, so s_q = (-1)^q beta with beta > 0.  Over all
    covers the w_k / (x_k - y_q) sum to 0, so s(L_1) = -s(L_0): one test decides both.

    First a sign test: t_2 below has the sign of y_1 + y_2 - 2x_2 and each later pick of L_0 lies below
    y_2, so its t_k < 0; f = 0 needs 2x_2 < y_1 + y_2 if c >= 3, 2x_2 = y_1 + y_2 if c = 2 (L_0 = {x_2}).
    A float screen then rejects misses: f = s_1 + s_2 = sum_k t_k over L_0, each t_k =
    w_k (2x_k - y_1 - y_2) / ((x_k - y_1)(x_k - y_2)) one correctly rounded int / int.  At f = 0
    the float sum is at most about (|L_0| + 1) 2^-53 sum |t_k|, far below 1e-12 sum |t_k|, so it
    rejects only true misses; w_k >= 1/n (d_lam >= d_mu) and contents in [-n, n] keep each nonzero
    |t_k| in [1/(4n^3), 4n], so nothing overflows or underflows.  The integers decide every hit."""
    at = xs[1::2]  # L_0, as xs[_parity(0)]
    if len(ys) > 1:
        y1, y2, *rest = ys
        if (2 * xs[1] >= y1 + y2) if rest else (2 * xs[1] != y1 + y2):
            return None
        ts = [prod([x - y for y in rest]) * (2 * x - y1 - y2) / prod([x - z for z in xs if z != x]) for x in at]
        if abs(sum(ts)) > 1e-12 * sum(map(abs, ts)):
            return None
    v, vws, sums = _scaled_sums(xs, ys, at)
    scaled = [next(sums)]
    for s in sums:
        if s != -scaled[-1]:
            return None
        scaled.append(s)
    return v, vws, scaled


def layer_sums(mu: Partition, layers: Sequence[Partition]) -> tuple[Fraction, ...]:
    """For each removable box of mu, the exact sum over lam in layers of
    d_lam / (n d_mu) / D(lam - mu, box).  layers must be distinct covers of mu."""
    picks = LayerSelection.from_partitions(mu, layers).indices
    xs, ys = _corners(mu.parts)
    v, _, sums = _scaled_sums(xs, ys, [xs[k] for k in picks])
    return tuple(Fraction(s, v) for s in sums)


def distance_condition(mu: Partition, layers: Sequence[Partition]) -> tuple[bool, tuple[Fraction, ...]]:
    """Whether the layer sums share one absolute value (signs unconstrained)."""
    sums = layer_sums(mu, layers)
    magnitudes = {abs(s) for s in sums}
    return len(magnitudes) == 1, sums


@dataclass(frozen=True)
class ExactIsoclinicCertificate:
    """Exact rational verdict for a canonical layer selection of mu.

    ``holds`` requires the per-box sums s_q to equal (-1)^(q + delta) beta for
    a single beta >= 0.  ``beta_squared_predicted`` is the closed form
    d_L (n d_mu - d_L) / (d_mu^2 n^2 (n-1)), which must coincide with beta^2
    whenever the certificate holds.
    """

    mu: Partition
    delta: int
    layers: tuple[Partition, ...]
    s_values: tuple[Fraction, ...]
    holds: bool
    beta: Fraction | None
    beta_squared: Fraction | None
    beta_squared_predicted: Fraction
    d_layers: int
    d_mu: int
    n: int
    alpha: Fraction | None

    def parameters(self) -> tuple[int, int, int] | None:
        """(d, r, n) of the certified ensemble when the certificate holds."""
        return (self.d_layers, self.d_mu, self.n) if self.holds else None

    def to_json_dict(self) -> dict:
        """One key per field, d_layers as d and d_mu as r; fractions and partitions are strings."""
        text = lambda value: None if value is None else str(value)
        return {"mu": str(self.mu), "delta": self.delta, "layers": list(map(str, self.layers)),
                "s_values": list(map(str, self.s_values)), "holds": self.holds, "beta": text(self.beta),
                "beta_squared": text(self.beta_squared), "beta_squared_predicted": str(self.beta_squared_predicted),
                "d": self.d_layers, "r": self.d_mu, "n": self.n, "alpha": text(self.alpha)}


def _parity_certificates(mu: Partition, v, vws, scaled, holds: bool) -> tuple[ExactIsoclinicCertificate, ...]:
    """The records of L_0 and L_1 from the kernel's V, V w_k and V s_q over L_0.  The
    covers' weights sum to 1 and their box sums to 0, so d(L_1) = n d_mu - d(L_0) and
    s(L_1) = -s(L_0); beta and the closed form, symmetric under d_L <-> n d_mu - d_L,
    are shared, and only alpha = (n d_mu beta / d_L)^2 depends on the parity."""
    n, d_mu = mu.n + 1, dimension(mu)
    whole = n * d_mu
    d_even = whole * sum(vws) // v  # d_lam = n d_mu w_lam exactly
    predicted = Fraction(d_even * (whole - d_even), d_mu * d_mu * n * n * (n - 1))
    beta = Fraction(-scaled[0], v) if holds else None  # then s_q = (-1)^q beta: one Fraction gives all
    sums = ((-beta, beta) * len(scaled))[: len(scaled)] if holds else tuple(Fraction(s, v) for s in scaled)
    covers = tuple(lam for lam, _box in up_set(mu))
    return tuple(
        ExactIsoclinicCertificate(
            mu=mu, delta=delta, layers=covers[_parity(delta)], s_values=s_values, holds=holds,
            beta=beta, beta_squared=beta**2 if holds else None, beta_squared_predicted=predicted,
            d_layers=d_layers, d_mu=d_mu, n=n,
            alpha=Fraction((whole * beta.numerator) ** 2, (d_layers * beta.denominator) ** 2) if holds else None,
        )
        for delta, s_values, d_layers in ((0, sums, d_even), (1, tuple(-s for s in sums), whole - d_even))
    )


def isoclinic_certificate(mu: Partition, delta: int) -> ExactIsoclinicCertificate:
    """Exact test of the sign-alternating layer-sum condition for L_delta."""
    _parity(delta)  # refuse a bad delta before any work
    xs, ys = _corners(mu.parts)
    hit = _isoclinic(xs, ys)
    return _parity_certificates(mu, *(hit or _scaled_sums(xs, ys, xs[_parity(0)])), hit is not None)[delta]


def search_isoclinic(max_n: int) -> list[ExactIsoclinicCertificate]:
    """Certificates for every isoclinic mu of every size below max_n, both deltas."""
    if type(max_n) is not int or max_n < 2:
        raise ConstraintViolationError("max_n must be an integer >= 2")
    results = []
    for n in range(2, max_n + 1):
        for xs, ys in partition_corners(n - 1):
            # records only for the hits, both parities from the kernel call that found it
            if hit := _isoclinic(xs, ys):
                results += _parity_certificates(Partition._unchecked(corner_parts(xs, ys), n - 1), *hit, True)
    return results


# --------------------------------------------------------------------------
# parameterized families
# --------------------------------------------------------------------------

def three_part_family(a: int, f: int, h: int, b: int) -> tuple[Partition, ExactIsoclinicCertificate]:
    """Three-distinct-part isoclinic partitions from the divisor recipe.

    Steps: pick a, f with af > 1; a divisor h of 2af with h > 2; a divisor b
    of (a + h) f with 0 < b < h/2.  Then c = f + 2af/h, e = (a - b + h) f / b - c,
    g = h - b, and ((e+f+g)^a, (e+f)^b, e^c) is isoclinic.
    """
    _ints(a, f, h, b)
    if a < 1 or f < 1 or a * f <= 1:
        raise StepConstraintViolatedError("need a, f >= 1 with a*f > 1")
    if h <= 2 or (2 * a * f) % h != 0:
        raise StepConstraintViolatedError("h must divide 2af and exceed 2")
    if not 0 < b < Fraction(h, 2):
        raise StepConstraintViolatedError("b must satisfy 0 < b < h/2")
    if ((a + h) * f) % b != 0:
        raise StepConstraintViolatedError("b must divide (a + h) f")
    c = f + (2 * a * f) // h
    e = (a - b + h) * f // b - c
    g = h - b
    if e < 1:
        raise StepConstraintViolatedError("derived e must be positive")
    return _first_holding(Partition((e + f + g,) * a + (e + f,) * b + (e,) * c))


def four_part_family(a: int, b: int, c: int) -> tuple[Partition, ExactIsoclinicCertificate]:
    """Symmetric four-distinct-part isoclinic partitions: e = b^2/c + b.

    Returns ((a+b+c+e)^a, (a+b+c)^b, (a+b)^c, a^e) with its certificate.
    """
    _ints(a, b, c)
    if a < 1 or b < 1 or c < 1:
        raise ConstraintViolationError("need a, b, c >= 1")
    if (b * b) % c != 0:
        raise DivisibilityViolatedError("c must divide b^2")
    e = (b * b) // c + b
    return _first_holding(Partition((a + b + c + e,) * a + (a + b + c,) * b + (a + b,) * c + (a,) * e))


def _first_holding(mu: Partition) -> tuple[Partition, ExactIsoclinicCertificate]:
    """mu with the certificate of L_0, which holds exactly when L_1's does; a
    family recipe whose mu has none is inconsistent."""
    cert = isoclinic_certificate(mu, 0)
    if not cert.holds:
        raise InconsistentFamilyError(f"family recipe produced a non-isoclinic partition {mu!r}")
    return mu, cert


@dataclass(frozen=True)
class SingleLayerFamily:
    """Family tag of a single-layer pair: kind I/II/III with its integers."""

    kind: str  # "I" | "II" | "III" | "equichordal-only"
    a: int | None = None
    b: int | None = None
    c: int | None = None

    @property
    def is_equiisoclinic(self) -> bool:
        return self.kind in ("I", "II", "III")


def classify_single_layer(lam: Partition, mu: Partition) -> SingleLayerFamily:
    """Match (lam, mu) against the three equi-isoclinic single-layer diagrams.

    Equi-isoclinism holds exactly when all removable boxes of mu sit at one
    common absolute axial distance from the added box, which happens for:
    I   mu = (b^a), lam adds a box to the first row (a >= 2);
    II  mu = (a^b), lam adds a row of one box (a >= 2);
    III mu = ((b+c)^a, b^c), lam adds the inner corner (c >= 2).
    """
    sel = _single_layer(lam, mu)
    if not distance_condition(mu, [lam])[0]:
        return SingleLayerFamily("equichordal-only")
    big, small = mu[0], mu[-1]
    if big != small:  # two removable boxes at opposite distances: the inner-corner picture
        return SingleLayerFamily("III", a=mu.parts.count(big), b=small, c=mu.parts.count(small))
    # one removable box: lam grows the first row (the first cover) or starts a new one
    if sel.indices == (0,):
        return SingleLayerFamily("I", a=len(mu), b=big)
    return SingleLayerFamily("II", a=big, b=len(mu))


def _single_layer(lam: Partition, mu: Partition) -> LayerSelection:
    """The selection {lam} over mu, refused when the branching component is the whole space:
    d_lam is the sum of d_nu over lam's down set, so d_lam = d_mu exactly when mu is all of it,
    that is when lam has one removable box.  No dimension is taken."""
    sel = LayerSelection.from_partitions(mu, [lam])
    if len(removable_boxes(lam)) == 1:
        raise TrivialSubspaceError("the branching component is the whole space; no packing results")
    return sel


def _family_range(kind: str, a: int, b: int, c: int | None) -> None:
    """Refuse a single-layer family instance outside its range, for its parameters and shapes alike."""
    _ints(a, b, *([c] if kind == "III" else []))  # c is read by type III only
    if kind not in ("I", "II", "III"):
        raise ConstraintViolationError(f"unknown family kind {kind!r}")
    if kind != "III" and (a < 2 or b < 1):
        raise ConstraintViolationError("types I and II need a >= 2, b >= 1")
    if kind == "III" and (a < 1 or b < 1 or c < 2):
        raise ConstraintViolationError("type III needs a, b >= 1 and c >= 2")


def single_layer_parameters(kind: str, a: int, b: int, c: int | None = None):
    """Exact (d, r, n, alpha) for a named single-layer family.

    Types I and II share the formulas d = a/(a+b) r n, n = ab + 1 and the
    factorial product for r; type III uses n = ab + ac + bc + 1 and
    d = c^2 / ((a+c)(b+c)) r n.  alpha = (rn - d) / (d (n-1)) exactly.
    """
    _family_range(kind, a, b, c)
    if kind in ("I", "II"):
        n = a * b + 1
        r = Fraction(factorial(a * b))
        for k in range(a):
            r *= Fraction(factorial(k), factorial(k + b))
        d = Fraction(a, a + b) * r * n
    else:
        n = a * b + a * c + b * c + 1
        r = Fraction(factorial(n - 1))
        for k in range(c):
            r *= Fraction(factorial(k) ** 2, factorial(a + k) * factorial(b + k))
        for ell in range(a):
            r *= Fraction(factorial(2 * c + ell), factorial(2 * c + b + ell))
        d = Fraction(c * c, (a + c) * (b + c)) * r * n
    if r.denominator != 1 or d.denominator != 1:
        raise InconsistentFamilyError("family formulas must produce integers")
    d_i, r_i = int(d), int(r)
    alpha = Fraction(r_i * n - d_i, d_i * (n - 1))
    return d_i, r_i, n, alpha


def single_layer_shapes(kind: str, a: int, b: int, c: int | None = None) -> tuple[Partition, Partition]:
    """(lam, mu) realizing a named family instance."""
    _family_range(kind, a, b, c)
    if kind == "I":
        mu = Partition((b,) * a)
        lam = Partition((b + 1,) + (b,) * (a - 1))
    elif kind == "II":
        mu = Partition((a,) * b)
        lam = Partition((a,) * b + (1,))
    else:
        mu = Partition((b + c,) * a + (b,) * c)
        lam = Partition((b + c,) * a + (b + 1,) + (b,) * (c - 1))
    return lam, mu


# --------------------------------------------------------------------------
# matrix constructions
# --------------------------------------------------------------------------

def _check_cap(layers: Sequence[Partition], max_dim: int, share: int = 1) -> None:
    """Refuse an orbit of n subspaces when (n - 1) // ``share`` is above ``max_dim``, and
    otherwise a construction of dimension (sum of d_lam over ``layers``) // ``share`` above it.

    n is checked first, so no factorial of an n far past the cap is taken.  Every lam of
    n boxes but one row, one column and (2, 2) has d_lam >= n - 1, the least degree of S_n
    past its two linear characters, so the n rule refuses nothing the dimension rule would
    accept, except selections made only of those covers: the orbit of one of them still
    builds n permutations of degree n, whatever d is.
    """
    if type(max_dim) is not int or max_dim < 0:  # a bool or a float is no cap either
        raise ConstraintViolationError(f"max_dim must be an int >= 0, got {max_dim!r}")
    n = layers[0].n
    if (n - 1) // share > max_dim:
        size = f"(n - 1) // {share} = {(n - 1) // share} for n = {n}"
    elif (d := sum(map(dimension, layers)) // share) > max_dim:
        size = f"construction dimension {d}"
    else:
        return
    raise ResourceLimitError(f"{size} exceeds the cap {max_dim}; raise max_dim to proceed (certificates have no cap)")


def _layer_orbit(sel: LayerSelection, ts: Sequence[Permutation]) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """The orbit pi_L(t) Psi_L, t in ts, of the weighted layer stack.

    Psi_L stacks sqrt(d_lam / d_L) Psi_{lam,mu} over sel's layers, and the
    direct-sum representation pi_L acts on it layer by layer.  Since
    (k n) = s_k (k+1 n) s_k and Psi_L intertwines pi_mu with pi_L restricted
    to S_{n-1}, the blocks C_k = pi_L((k n)) Psi_L follow from C_n = Psi_L,
    C_{n-1} = pi_L(s_{n-1}) Psi_L and C_k = pi_L(s_k) C_{k+1} pi_mu(s_k): one
    generator each.  A t with t(n) = k gives C_k pi_mu(h) for h = (k n) t,
    which fixes n.  ts must satisfy t_k(n) = k.  Yields (k - 1, C_k, pi_mu(h)
    or None for h = 1) for k = n, n - 1, ..., 1.  C_k lives in one of two d_L x r
    working arrays, a row slice per layer, and the next step overwrites it.
    """
    mu = sel.mu
    n = mu.n + 1
    layers = sel.partitions
    d_layers, r = sel.total_dimension, dimension(mu)
    C, spare = np.zeros((d_layers, r)), np.empty((d_layers, r))
    starts = np.cumsum([0] + [dimension(lam) for lam in layers])
    rows = [slice(start, stop) for start, stop in zip(starts, starts[1:])]
    for lam, layer in zip(layers, rows):
        np.fill_diagonal(C[layer][down_offset(lam, mu) :], np.sqrt(dimension(lam) / d_layers))
    for k in range(n, 0, -1):
        if k < n:
            for lam, layer in zip(layers, rows):
                apply_generator(lam, k, C[layer], out=spare[layer])
            C, spare = spare, C
        if k < n - 1:
            right_apply_generator(mu, k, C, out=C)
        h = Permutation.transposition(n, k, n) * ts[k - 1]
        yield k - 1, C, None if h.is_identity else rep_matrix(mu, Permutation(h.images[:-1]))


def _orbit_ensemble(
    sel: LayerSelection,
    transversal: _Transversal | None,
    meta: dict,
    field: str,
    tol: float,
    even: bool = False,
    compress: Callable[[np.ndarray], np.ndarray] | None = None,
) -> FusionEnsemble:
    """The tail every orbit builder shares, run after its cap: resolve the transversal
    (the default one of S_n, or of A_n when ``even``; or ``transversal``, called on n
    if it is a function) and validate it, record it last in ``meta``, and write each
    orbit block C R (through ``compress``, if given) into the synthesis array,
    validated, as soon as it is built."""
    n = sel.mu.n + 1
    if transversal is None:
        ts = transversal_an(n) if even else transversal_sn(n)
    else:
        ts = validate_transversal(transversal(n) if callable(transversal) else transversal, n, even=even)
    meta["transversal"] = [t.cycle_string() for t in ts]
    orbit = _layer_orbit(sel, ts)
    if compress is not None:
        orbit = ((j, compress(C if R is None else C @ R), None) for j, C, R in orbit)
    return FusionEnsemble._stacked(len(ts), orbit, field, tol, meta)


def single_layer_ensemble(
    lam: Partition,
    mu: Partition,
    transversal: _Transversal | None = None,
    tol: float = DEFAULT_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FusionEnsemble:
    """Orbit of the mu-branching component of lam under a point transversal.

    Blocks are pi_lam(t_k) Psi_{lam,mu}, giving a real, totally symmetric
    ensemble of n = |lam| subspaces of dimension d_mu inside dimension d_lam.
    ``transversal`` is t_1, ..., t_n with t_k(n) = k, or a function of n that
    gives them (None: :func:`transversal_sn`); it is validated after the cap.
    """
    sel = _single_layer(lam, mu)
    _check_cap(sel.partitions, max_dim)
    meta = {"construction": "single_layer", "lambda": str(lam), "mu": str(mu)}
    return _orbit_ensemble(sel, transversal, meta, "R", tol)


def multi_layer_ensemble(
    sel: LayerSelection,
    transversal: _Transversal | None = None,
    tol: float = DEFAULT_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FusionEnsemble:
    """Orbit of the weighted stack of branching components over sel's layers.

    Always a real, totally symmetric tight fusion frame with equal chordal
    distances; equi-isoclinic exactly when sel's layer sums pass the
    distance condition.  ``transversal`` is as for :func:`single_layer_ensemble`.
    """
    _check_cap(sel.partitions, max_dim)
    meta = {"construction": "multi_layer", "mu": str(sel.mu), "layers": [str(l) for l in sel.partitions],
            "delta": sel.delta}
    return _orbit_ensemble(sel, transversal, meta, "R", tol)


def _compression(sel: LayerSelection, signs) -> Callable[[np.ndarray], np.ndarray]:
    """block -> J_L* block J_mu by two signed gathers (block J_mu is the adjoint of J_mu* block*),
    where J_L and J_mu hold the w-bases of the eigenspaces in ``signs`` side by side."""
    mu, layers = sel.mu, sel.partitions
    J_layers = tuple(map(np.concatenate, zip(*(altrep._layer_basis(mu, layers, eps) for eps in signs))))
    J_mu = tuple(map(np.concatenate, zip(*(altrep._injection_basis(mu, eps) for eps in signs))))
    return lambda block: altrep.gather(J_layers, altrep.gather(J_mu, block.conj().T).conj().T)


def _check_alternating_selection(sel: LayerSelection) -> None:
    altrep._check_family_mu(sel.mu)
    layers = sel.partitions
    if len(layers) == len(up_set(sel.mu)):
        raise ConstraintViolationError("layer selection must be a proper subset")
    layer_set = set(layers)
    if any(transpose(lam) not in layer_set for lam in layers):
        raise NotTransposeClosedError("layer selection must be closed under transpose")


def alternating_ensemble(
    sel: LayerSelection,
    eps,
    transversal: _Transversal | None = None,
    tol: float = DEFAULT_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> FusionEnsemble:
    """The eps-eigenspace half of a multi-layer ensemble over a symmetric mu.

    Produces an ensemble of n subspaces of dimension d_mu/2 in dimension
    d_L/2 over the field selected by the off-diagonal box count, with
    automorphism group containing A_n.  Equi-isoclinic exactly when mu's
    canonical certificate holds.  ``transversal`` is as for
    :func:`single_layer_ensemble` but must be even (None: :func:`transversal_an`).
    """
    _check_alternating_selection(sel)
    mu = sel.mu
    _check_cap(sel.partitions, max_dim, share=2)
    meta = {"construction": "alternating", "mu": str(mu), "layers": [str(l) for l in sel.partitions],
            "delta": sel.delta, "epsilon": "+" if altrep._eps_sign(eps) == 1 else "-"}
    return _orbit_ensemble(sel, transversal, meta, altrep.field_for(mu), tol, even=True,
                           compress=_compression(sel, (eps,)))


def alternating_parameters(a: int, c: int, delta: int):
    """Exact (field, d, r, n, alpha) for the two-distinct-part alternating family.

    n = a^2 + 2ac + 1, r is half the type-III inner-corner dimension with
    b = a, and d is c^2/(a+c)^2 rn for delta = 0 or a(a+2c)/(a+c)^2 rn for
    delta = 1.  The field is real exactly when a(a + 2c - 1)/2 is even.
    """
    _parity(delta)  # refuse a bad delta before any work
    _d, r_inner, n, _alpha = single_layer_parameters("III", a, a, c)  # its range at b = a: a >= 1, c >= 2
    r = Fraction(r_inner, 2)
    if delta == 0:
        d = Fraction(c * c, (a + c) ** 2) * r * n
    else:
        d = Fraction(a * (a + 2 * c), (a + c) ** 2) * r * n
    if r.denominator != 1 or d.denominator != 1:
        raise InconsistentFamilyError("alternating family formulas must produce integers")
    d_i, r_i = int(d), int(r)
    half = (a * (a + 2 * c - 1)) // 2
    field = "R" if half % 2 == 0 else "C"
    alpha = Fraction(r_i * n - d_i, d_i * (n - 1))
    return field, d_i, r_i, n, alpha


def alternating_shapes(a: int, c: int) -> Partition:
    """The symmetric two-distinct-part mu = ((a+c)^a, a^c) behind the family."""
    _family_range("III", a, a, c)
    return Partition((a + c,) * a + (a,) * c)


def decomposition_check(
    sel: LayerSelection,
    transversal: _Transversal | None = None,
    tol: float = DEFAULT_TOL,
    max_dim: int = DEFAULT_MAX_DIM,
) -> bool:
    """Verify the eigenbasis change block-diagonalizes every stacked isometry.

    Builds the S_n multi-layer orbit once, through the builders' shared tail
    with an even transversal (``transversal`` as for :func:`alternating_ensemble`),
    rotating each block to B_L* block B_mu by two signed gathers, where
    B = [J_+ J_-] pairs the two eigenspace w-bases on each side.  The check
    passes when every rotated block is block-diagonal within ``tol``; its
    diagonal blocks are the two alternating halves' blocks, which must each
    form a valid ensemble.
    """
    _check_alternating_selection(sel)
    _check_cap(sel.partitions, max_dim)
    field = altrep.field_for(sel.mu)
    # the - halves of the bases negate the + halves' phases
    e = _orbit_ensemble(sel, transversal, {}, field, tol, even=True, compress=_compression(sel, "+-"))
    rows, cols = e.d // 2, e.r // 2
    if any(max(np.max(np.abs(B[:rows, cols:])), np.max(np.abs(B[rows:, :cols]))) > tol for B in e.blocks):
        return False
    for half in (np.s_[:rows, :cols], np.s_[rows:, cols:]):
        FusionEnsemble.from_blocks([B[half] for B in e.blocks], field=field, tol=tol)
    return True


def generic_orbit_ensemble(
    generators: Mapping[str, np.ndarray],
    transversal_words: Sequence[Sequence[str]],
    isometry: np.ndarray,
    field: str | None = None,
    tol: float = DEFAULT_TOL,
) -> FusionEnsemble:
    """Orbit of an isometry's image under word-products of unitary generators.

    Each word lists generator names left to right in product order (the
    rightmost factor acts first on vectors).  No invariance condition is
    verified here: if the isometry's image is not stabilizer-invariant the
    symmetry guarantee is void, and certification alone decides what was
    built.
    """
    mats = {}
    d = None
    for name, g in generators.items():
        G = np.asarray(g, dtype=complex if field == "C" else None)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise NotUnitaryError(f"generator {name!r} is not square")
        if d is None:
            d = G.shape[0]
        if G.shape != (d, d):
            raise NotUnitaryError(f"generator {name!r} has mismatched size")
        if np.max(np.abs(G.conj().T @ G - np.eye(d))) > max(tol, 1e-8):
            raise NotUnitaryError(f"generator {name!r} is not unitary")
        mats[name] = G
    W = np.asarray(isometry, dtype=complex if field == "C" else None)
    if W.ndim != 2 or d not in (None, W.shape[0]):
        raise NotIsometryError("isometry must be d x r")
    d = W.shape[0]
    if np.max(np.abs(W.conj().T @ W - np.eye(W.shape[1]))) > max(tol, 1e-8):
        raise NotIsometryError("isometry columns are not orthonormal")
    if not isinstance(transversal_words, (list, tuple)) or not all(
        isinstance(word, (list, tuple)) and all(isinstance(name, str) for name in word)
        for word in transversal_words
    ):
        raise BadTransversalError("transversal_words must be a list of lists of generator names")
    blocks = []
    for word in transversal_words:
        M = np.eye(d)
        for name in word:
            if name not in mats:
                raise BadTransversalError(f"word references unknown generator {name!r}")
            M = M @ mats[name]
        blocks.append(M @ W)
    meta = {"construction": "generic_orbit", "words": [list(w) for w in transversal_words]}
    return FusionEnsemble.from_blocks(blocks, field=field, tol=tol, meta=meta)


# --------------------------------------------------------------------------
# parameter tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TableRow:
    """One parameter row of a family table."""

    field: str
    d: int
    r: int
    n: int
    alpha: Fraction
    family: str
    a: int
    b: int | None
    c: int | None
    delta: int | None
    certified: bool | None = None

    def to_json_dict(self) -> dict:
        return _fields_json(self)


def _walk(start: int, rows_at: Callable[[int], list]) -> list:
    """rows_at(k) for k = start, start + 1, ..., concatenated up to the first k with no rows."""
    rows, k = [], start
    while batch := rows_at(k):
        rows += batch
        k += 1
    return rows


def sn_table(max_dim: int) -> list[TableRow]:
    """Totally symmetric EITFF parameter rows with d <= max_dim.

    Enumerates type I with 2 <= a <= b (the smaller-d member of each Naimark
    pair) and type III with a <= b, c >= 2; sorted by d.
    """
    _ints(max_dim)
    def row(kind, a, b, c=None):
        d, r, n, alpha = single_layer_parameters(kind, a, b, c)
        return [TableRow("R", d, r, n, alpha, kind, a, b, c, None)] if d <= max_dim else []

    rows = _walk(2, lambda a: _walk(a, lambda b: row("I", a, b)))
    rows += _walk(1, lambda a: _walk(a, lambda b: _walk(2, lambda c: row("III", a, b, c))))
    return sorted(rows, key=lambda t: (t.d, t.n, t.r))


def an_table(max_dim: int) -> list[TableRow]:
    """Alternating-symmetry EITFF parameter rows with d <= max_dim.

    One row per (a, c), taking the delta with the smaller d; sorted by d.
    """
    _ints(max_dim)
    def row(a, c):
        (field, d, r, n, alpha), delta = min(
            ((alternating_parameters(a, c, delta), delta) for delta in (0, 1)), key=lambda item: item[0][1]
        )
        return [TableRow(field, d, r, n, alpha, "alternating", a, None, c, delta)] if d <= max_dim else []

    return sorted(_walk(1, lambda a: _walk(2, lambda c: row(a, c))), key=lambda t: (t.d, t.n, t.r))
