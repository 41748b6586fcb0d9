"""Cubic and close-packed l-sublattices of Z^3: construction and classification.

A cubic l-sublattice has an orthogonal basis of squared norm l^2 and is
identified by its six minimal vectors, the signed rows of any such basis
(see _key). As in the paper, every one is spanned by the rows of
t * ER(z), the Euler-Rodrigues matrix of an integer quaternion z of
squared norm l/t scaled by t (see _cubic_keys for the proof). Classes are
the orbits of keys under the 24 rotations, which give the same orbits as
all 48 point symmetries (see _orbit), and the Hermite normal form is
computed only for the bases this module returns. The all-pairs sphere scan
and the HNF-based partition are kept as test oracles (tests/oracles.py).
The number of cubic l-sublattices needs no enumeration: it is the sum of
Dedekind's psi over the odd divisors of l, from the factorization of l
(see fcc_census for the proof), and the enumeration is its test oracle.
factorize divides by trial, so its cost grows as sqrt(l).

Each predicted 4-, 6-, 8- or 12-element class is generated from one
template basis per parameter choice, as the rotation orbit of its key
(predicted_class_bases). The closed-form class-count predictions are
computed alongside the orbit partition and compared; they are known to
over-count when degenerate parameter choices collapse into smaller
classes, so mismatches are reported as flags, never silently patched.
"""

from __future__ import annotations

import math
from typing import Optional

from .lattice import Matrix, Record, Site, SignedPermutation, hnf, rotation_elements


# --- quaternions and the integer rotation matrix -------------------------------


class Quaternion(Record):
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.a == self.b == self.c == self.d == 0:
            raise ValueError("the zero quaternion generates nothing")

    @property
    def norm_sq(self) -> int:
        return self.a**2 + self.b**2 + self.c**2 + self.d**2


def euler_rodrigues(z: Quaternion) -> Matrix:
    """Integer rotation matrix of the quaternion, scaled by its squared norm.

    Rows are pairwise orthogonal with squared norm l^2 (l = norm_sq of z)
    and span a cubic l-sublattice.
    """
    a, b, c, d = z.a, z.b, z.c, z.d
    return (
        (a * a + b * b - c * c - d * d, 2 * b * c - 2 * a * d, 2 * b * d + 2 * a * c),
        (2 * b * c + 2 * a * d, a * a - b * b + c * c - d * d, 2 * c * d - 2 * a * b),
        (2 * b * d - 2 * a * c, 2 * c * d + 2 * a * b, a * a - b * b - c * c + d * d),
    )


# --- counting lattice points on spheres -----------------------------------------


def _sphere_points(n: int) -> list[Site]:
    """All integer (x, y, z) with x^2 + y^2 + z^2 = n, by a two-loop isqrt scan."""
    out = []
    top = math.isqrt(n)
    for x in range(-top, top + 1):
        rem1 = n - x * x
        ymax = math.isqrt(rem1)
        for y in range(-ymax, ymax + 1):
            rem2 = rem1 - y * y
            z = math.isqrt(rem2)
            if z * z == rem2:
                out.append((x, y, z))
                if z:
                    out.append((x, y, -z))
    return out


def quadruples(l: int) -> list[Site]:
    """All integer (m, n, k) with m^2 + n^2 + k^2 = l^2."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return sorted(_sphere_points(l * l))


def r3_brute(n: int) -> int:
    """Number of integer triples with squared norm n, by direct scan."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return len(_sphere_points(n))


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime-exponent pairs by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def r3_formula(l: int) -> int:
    """Closed-form count of integer triples with squared norm l^2."""
    total = 6
    for p, rho in factorize(l):
        if p == 2:
            continue
        term = (p ** (rho + 1) - 1) // (p - 1)
        sign = -1 if (p - 1) // 2 % 2 else 1
        term -= sign * (p**rho - 1) // (p - 1)
        total *= term
    return total


def _class_count_product(l: int, pred) -> int:
    prod = 1
    for p, rho in factorize(l):
        if pred(p):
            prod *= 2 * rho + 1
    return prod - 1


def s2(l: int) -> int:
    """Twice the predicted number of 6-element classes (primes 1 mod 4)."""
    return _class_count_product(l, lambda p: p % 4 == 1)


def s2_hat(l: int) -> int:
    """Twice the predicted number of 8-element classes (primes 1 mod 3)."""
    return _class_count_product(l, lambda p: p % 3 == 1)


def s2_tilde(l: int) -> int:
    """Twice the predicted number of 12-element classes (primes 1 or 3 mod 8)."""
    return _class_count_product(l, lambda p: p % 8 in (1, 3))


# --- cubic sublattices, identified by their minimal vectors ---------------------


def _key(rows) -> frozenset[Site]:
    """The six minimal vectors {+-x1, +-x2, +-x3} of the lattice with cubic basis rows.

    With x1, x2, x3 pairwise orthogonal of squared norm l^2, the vector
    a x1 + b x2 + c x3 has squared norm (a^2 + b^2 + c^2) l^2, so the nonzero
    vectors of least norm are exactly the six signed rows. They depend on
    the lattice alone, so every orthogonal basis of it gives the same key,
    and they span it, so distinct lattices give distinct keys.
    """
    return frozenset(s for x in rows for s in (tuple(x), (-x[0], -x[1], -x[2])))


def _orbit(key: frozenset[Site], group: list[SignedPermutation]) -> set[frozenset[Site]]:
    """Keys of the images of one lattice under the signed permutations.

    The 24 rotations give the whole point-symmetry orbit: the other 24
    signed permutations are -g for a rotation g, and -I fixes every key,
    which holds both signs of each vector.
    """
    return {frozenset(g.apply(s) for s in key) for g in group}


def _cubic_keys(l: int) -> set[frozenset[Site]]:
    """Keys of all cubic l-sublattices: those of t * ER(z) for t | l and N(z) = l/t.

    Here ER is euler_rodrigues and N(z) = z.norm_sq. Taking only z with
    z.a >= |z.b|, |z.c|, |z.d| loses nothing: ER(-z) = ER(z), and z, i z, j z
    and k z (a-coordinates a, -b, -c, -d) span one lattice, because
    ER(u z) = ER(u) ER(z) and ER(i), ER(j), ER(k) are diagonal sign matrices.
    The filter runs on the coordinate tuples of _sphere_points, before a
    Quaternion is built, and z.a >= 1 because z is not zero.
    Proof that these keys are exactly the cubic l-sublattices:

    Each t * ER(z) is cubic: the rows of ER(z) are pairwise orthogonal of
    squared norm N(z)^2, so the rows of t * ER(z) are an orthogonal basis of
    squared norm l^2.

    Each cubic l-sublattice L arises: 1. Let the rows of A be an orthogonal
    basis of L with squared norm l^2. A A^T = l^2 I gives det A = +-l^3; negating one row,
    which keeps the key, makes det A = l^3, so R = A/l is in SO(3, Q).
    2. R = ER(z)/N(z) for a primitive integral quaternion z. For the unit
    quaternion q = (a, b, c, d) of R, (1 + tr R, R21 - R12, R02 - R20,
    R10 - R01) = 4a q. If tr R != -1, then a != 0 and this rational vector
    is proportional to q; scale it to a primitive integral z, and
    ER(z)/N(z) = ER(q) = R because ER is homogeneous of degree 2. If
    tr R = -1, R is the half-turn 2 n n^T - I about a unit axis n; R + I is
    rational, so n is proportional to a primitive integral v, and z = (0, v)
    gives ER(z) = 2 v v^T - N(z) I. So A = (l / N(z)) ER(z).
    3. While N(z) is even, z = u w with u one of 1+i, 1+j, 1+k and w
    integral. (1-i) z / 2 = ((a+b) + (b-a) i + (c+d) j + (d-c) k) / 2 is
    integral iff a = b and c = d (mod 2), and likewise for j (a = c,
    b = d) and k (a = d, b = c). An even norm means an even number of odd
    coordinates, and one of the three pairings matches them. Then
    w = conj(u) z / 2 is integral, primitive because every common factor of
    w divides z = u w, and N(w) = N(z)/2. As ER(u w) = ER(u) ER(w) and
    ER(u)/2 is a signed permutation matrix, the rows of A = (l / N(w))
    (ER(u)/2) ER(w) are the rows of (l / N(w)) ER(w), permuted and negated:
    the same lattice.
    4. Now k = N(w) is odd and w primitive. An odd prime p dividing k and
    every entry of ER(w) divides ER_ii + k, that is 2(a^2+b^2), 2(a^2+c^2)
    and 2(a^2+d^2), and the differences 4ab, 4ac and 4ad of step 2. If p | a
    then p divides b^2, c^2 and d^2; otherwise p divides b, c and d, and
    then a^2. Either way p divides every coordinate of the primitive w.
    So the entries of ER(w) have no common factor with k, and
    A = (l/k) ER(w) is integral only if k | l. With t = l/k, L is spanned
    by the rows of t * ER(w), with N(w) = l/t.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    return {
        _key([(t * r0, t * r1, t * r2) for r0, r1, r2 in euler_rodrigues(Quaternion(a, b, c, d))])
        for t in range(1, l + 1)
        if l % t == 0
        for a in range(1, math.isqrt(l // t) + 1)
        for b, c, d in _sphere_points(l // t - a * a)
        if a >= max(abs(b), abs(c), abs(d))
    }


def enumerate_cubic_sublattices(l: int) -> list[Matrix]:
    """All distinct cubic l-sublattices, as canonical (HNF) bases."""
    return sorted(hnf(k) for k in _cubic_keys(l))


class SublatticeClass(Record):
    size: int
    stabilizer_order: int
    representative: Matrix
    members: tuple[Matrix, ...]
    parameters: Optional[tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        if self.size * self.stabilizer_order != 48:
            raise ValueError("orbit size times stabilizer order must be 48")


def classify_classes(l: int) -> list[SublatticeClass]:
    """Partition of all cubic l-sublattices into point-symmetry orbits."""
    group = rotation_elements()
    remaining = _cubic_keys(l)
    predicted = {
        key: (size, params)
        for size, params, basis in predicted_class_bases(l)
        for key in _orbit(_key(basis), group)
    }
    classes = []
    while remaining:
        orbit = _orbit(next(iter(remaining)), group)
        remaining -= orbit
        psize, params = next((predicted[k] for k in orbit if k in predicted), (None, None))
        members = tuple(sorted(hnf(k) for k in orbit))
        classes.append(
            SublatticeClass(
                size=len(orbit),
                stabilizer_order=48 // len(orbit),
                representative=members[0],
                members=members,
                parameters=params if psize == len(orbit) else None,
            )
        )
    return sorted(classes, key=lambda c: (c.size, c.representative))


def class_size_histogram(l: int) -> dict[int, int]:
    return compare_class_counts(l).oracle


class ClassCountComparison(Record):
    l: int
    oracle: dict[int, int]
    predicted: dict[int, int]
    mismatched_sizes: tuple[int, ...]
    classes: tuple[SublatticeClass, ...]


def compare_class_counts(l: int) -> ClassCountComparison:
    """Oracle orbit counts next to the closed-form predictions, with flags,
    and the classes counted (one classification)."""
    classes = tuple(classify_classes(l))
    oracle: dict[int, int] = {}
    for cl in classes:
        oracle[cl.size] = oracle.get(cl.size, 0) + 1
    predicted = {
        1: 1,
        4: 1 if l % 3 == 0 else 0,
        6: s2(l) // 2,
        8: s2_hat(l) // 2,
        12: s2_tilde(l) // 2,
    }
    mism = tuple(
        size
        for size in sorted(set(predicted) | set(oracle))
        if size in predicted and predicted[size] != oracle.get(size, 0)
    )
    return ClassCountComparison(l, oracle, predicted, mism, classes)


# --- the four predicted basis templates --------------------------------------------


def predicted_class_bases(l: int) -> list[tuple[int, tuple[int, int, int], Matrix]]:
    """Template bases of the predicted 4-, 6-, 8- and 12-element classes.

    One entry per parameter choice: (class size, (a, b, t), basis rows). The
    class is the rotation orbit of the template (_orbit), which has `size`
    members, so no other member is listed. The 4-element class is
    parametrized by t alone and reported as (0, 0, t).
    """
    out: list[tuple[int, tuple[int, int, int], Matrix]] = []
    if l % 3 == 0:
        t = l // 3
        out.append((4, (0, 0, t), ((-t, 2 * t, 2 * t), (2 * t, -t, 2 * t), (2 * t, 2 * t, -t))))
    for a, b, t in _param_triples(l, lambda a, b: a * a + b * b, lambda a, b: a > b):
        n, k = (a * a - b * b) * t, 2 * a * b * t
        assert n * n + k * k == l * l
        out.append((6, (a, b, t), ((l, 0, 0), (0, n, k), (0, -k, n))))
    for a, b, t in _param_triples(l, lambda a, b: a * a + b * b - a * b, lambda a, b: a > 2 * b):
        m, n, k = (a * a - a * b) * t, a * b * t, (b * b - a * b) * t
        assert (m - k) ** 2 + (n - k) ** 2 - (m - k) * (n - k) == l * l
        out.append((8, (a, b, t), ((m, n, k), (k, m, n), (n, k, m))))
    for a, b, t in _param_triples(
        l, lambda a, b: a * a + 2 * b * b, lambda a, b: a != b and a != 2 * b
    ):
        m, n, k = a * a * t, 2 * b * b * t, 2 * a * b * t
        assert (m - n) ** 2 + 2 * k * k == l * l
        out.append((12, (a, b, t), ((m, n, k), (n, m, -k), (-k, k, m - n))))
    return out


def _param_triples(l: int, form, cond) -> list[tuple[int, int, int]]:
    """Coprime (a, b) with an extra condition and t >= 1 with form(a,b)*t = l."""
    out = []
    for a in range(1, math.isqrt(l) + 2):
        for b in range(1, a + 1):
            val = form(a, b)
            if val > l or not cond(a, b) or math.gcd(a, b) != 1:
                continue
            q, rem = divmod(l, val)
            if rem == 0:
                out.append((a, b, q))
    return sorted(out)


# --- the close-packed census ---------------------------------------------------------


class FccCensus(Record):
    l: int
    fcc_sublattices: int
    pcs_total: Optional[int]
    flagged_layered_continuum: bool


def fcc_census(l: int) -> FccCensus:
    """Close-packed l-sublattice count, extended to the total packing census.

    Each cubic sublattice L, of basis x_i, contains one close-packed sublattice
    F of twice the determinant, spanned by x1 + x2, x2 + x3 and x1 + x3, and
    distinct cubic ones never share it, so the count is the number of cubic
    ones. If F has index 2 in a cubic l-sublattice L', then 2L' is in F, so
    the norm-l^2 vectors of L' lie in F/2. The rotation taking x_i to l e_i
    maps F onto l D3 (D3: integer vectors of even coordinate sum), and the
    vectors of D3/2 of squared norm 1 are +-e_i; so the norm-l^2 vectors of
    F/2 are exactly +-x_i. They include the six minimal vectors of L', so
    L' = L. For 3 | l the layered continuum takes over and only the
    sublattice count is meaningful.

    The cubic l-sublattices number the sum over odd k | l of Dedekind's
    psi(k) = k * prod over primes p | k of (1 + 1/p). That sum is
    multiplicative, 1 at a power of 2 and 1 + (p+1)(p^r - 1)/(p - 1) at an
    odd p^r, so a factorization gives it. Proof: by the proof in
    _cubic_keys, every cubic l-sublattice is spanned by the rows of
    t * ER(w) for some w primitive of odd norm k = l/t, and each such
    t * ER(w) spans one. Count the pairs (t, lattice of ER(w)):
    1. t is fixed by the lattice, as the gcd of the coordinates of all its
    vectors. The entries of ER(w) have gcd 1: a prime dividing all of them
    divides the row norm k^2, hence k, so it is odd, and step 4 there rules
    out an odd prime dividing k and every entry. So t * ER(w) has gcd t.
    2. There are 8 psi(k) primitive quaternions of norm k. Every quaternion
    of norm k is g w for a unique g >= 1 with g^2 | k and w primitive of
    norm k/g^2. By Jacobi, r4(k) = 8 sigma(k) for odd k, so Moebius
    inversion over square divisors gives 8 * sum over g^2 | k of
    mu(g) sigma(k/g^2): multiplicative, and sigma(p^r) - sigma(p^(r-2)) =
    p^r + p^(r-1) = psi(p^r) at r >= 2, sigma(p) = p + 1 = psi(p) at r = 1.
    3. For w, w' primitive of odd norm k, ER(w) and ER(w') span one lattice
    iff w' = u w with u one of +-1, +-i, +-j, +-k. If: ER(u w) =
    ER(u) ER(w), a row sign change. Only if: ER(w') = M ER(w) for an
    integral M of determinant k^3/k^3 = 1, and M = ER(w') ER(w)^T / k^2 is
    orthogonal, so M is one of the 24 cube rotations. Each of them is
    ER(u)/N(u) for an integral u of norm 1 (4 rotations), 2 (12) or 4 (8,
    from u = +-1 +-i +-j +-k). Then ER(w') = ER(u w)/N(u), and the unit
    quaternions of this rotation give w' = +-u w/sqrt(N(u)). For N(u) = 2
    that is irrational. For N(u) = 4 and w = a + b i + c j + d k, the real
    part of u w is +-a +-b +-c +-d, odd because k is odd, so u w/2 is not
    integral. So N(u) = 1.
    By 2 and 3 the primitive quaternions of norm k give psi(k) lattices,
    8 quaternions each, and by 1 distinct odd divisors k give distinct
    lattices. The enumeration len(_cubic_keys(l)) is the test oracle.
    """
    count = 1
    for p, r in factorize(l):
        if p > 2:
            count *= 1 + (p + 1) * (p**r - 1) // (p - 1)
    if l % 3 == 0:
        return FccCensus(l, count, None, True)
    return FccCensus(l, count, count * 2 * l**3, False)
