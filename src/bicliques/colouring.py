"""Colouring constructions and chromatic decisions for powers of paths and
cycles.

closed_form(kind, mode, n, k) is the one table of the closed forms; the
four named constructors (biclique_colour_path, ...) each call it.  It
checks its output once before returning, for the hyperedge family of the
mode (powers.first_mono_set): by index arithmetic, for an equal-coloured
pair of the universal clique, a monochromatic induced P3 or a
monochromatic induced C4, in O(n + k*k*log n) time with no graph built.
A monochromatic set is a bug in this module, not bad input, and raises
AssertionError.

Colour ids are 0 = blue, 1 = red, 2 = green; further ids only appear in the
all-distinct colourings of complete graphs.  The records are
collections.namedtuple classes, as graphs.Colouring is.
"""

from __future__ import annotations

from collections import namedtuple

from .graphs import (Colouring, InputError, check_choices, is_int, read_json,
                     write_json)
from .powers import check_params, first_mono_set, is_complete

BLUE, RED, GREEN = 0, 1, 2


class EvenDivision(namedtuple("EvenDivision", "a t")):
    """n = a*k + t with a even, a >= 2, 0 <= t < 2k."""

    __slots__ = ()


class AbCertificate(namedtuple("AbCertificate", "a b")):
    """Witness that n = a*k + b*(k+1) with a + b even, certifying a
    2-colouring by a size-k blocks and b size-(k+1) blocks."""

    __slots__ = ()

    def is_valid_for(self, n: int, k: int) -> bool:
        return (self.a >= 0 and self.b >= 0
                and self.a * k + self.b * (k + 1) == n
                and (self.a + self.b) % 2 == 0
                and self.a + self.b >= 2)


class ChromaticResult(namedtuple("ChromaticResult",
                                 "colouring ab universal_witness",
                                 defaults=(None, None))):
    """An optimal colouring, whose colour count is the exact chromatic
    value, and, when one exists, a certificate: ab, an AbCertificate block
    decomposition for 2-colourable cycles, or universal_witness, a tuple of
    pairwise-adjacent universal vertices forcing the lower bound in the
    dense ranges."""

    __slots__ = ()

    @property
    def value(self) -> int:
        """The chromatic value: the colouring's colour count."""
        return self.colouring.num_colours


def even_division(n: int, k: int) -> EvenDivision:
    """The unique (a, t) with n = a*k + t, a even >= 2, 0 <= t < 2k.

    Exactly one even integer lies in (n/k - 2, n/k], which pins a.
    """
    check_params(n, k)
    if n < 2 * k:
        raise InputError(f"even division needs n >= 2k, got n={n}, k={k}")
    q = n // k
    a = q if q % 2 == 0 else q - 1
    return EvenDivision(a, n - a * k)


def ab_certificate(n: int, k: int) -> AbCertificate | None:
    """(a, b) with n = a*k + b*(k+1) and a + b even, or None.

    c blocks of sizes k and k+1 fill n exactly when c*k <= n <= c*(k+1).
    The largest even c with c*k <= n is a of even_division(n, k), so an
    even c exists exactly when n <= a*(k+1), that is t <= a, and then t
    blocks take k+1.  Requires n >= 2k+2 so that the total is at least 2.
    Never None for n >= 2k**2, where a >= 2k > t.
    """
    check_params(n, k)
    if n < 2 * k + 2:
        raise InputError(f"block certificate needs n >= 2k+2, got n={n}, k={k}")
    a, t = even_division(n, k)
    return AbCertificate(a - t, t) if t <= a else None


# ---------------------------------------------------------------------------
# block layouts

def _stripes(n: int, size: int, first: int = RED) -> tuple[int, ...]:
    """n vertices in blocks of the given size, red and blue alternating
    from first, by tuple repetition (a per-vertex generator is slower)."""
    pair = (first,) * size + (RED + BLUE - first,) * size
    return (pair * (n // (2 * size) + 1))[:n]


def _check_no_mono(vs, what: str) -> None:
    """AssertionError naming vs, a monochromatic set found by a check."""
    if vs is not None:
        raise AssertionError(f"construction bug: monochromatic {what} {vs}")


def _three_colouring(n: int, k: int) -> Colouring:
    """The layout of three_colour_no_mono_p3 without its P3 scan;
    closed_form checks it for the family of its mode instead."""
    a, t = even_division(n, k)
    if t <= k:
        colours = _stripes(a * k, k) + (GREEN,) * t
    else:
        colours = (_stripes((a - 1) * k, k) + (GREEN,) * k + (BLUE,) * k
                   + (GREEN,) * (t - k))
    return Colouring.from_sequence(colours)


def three_colour_no_mono_p3(n: int, k: int) -> Colouring:
    """A colouring of C_n^k (n >= 2k+2) with at most three colours in which
    no monochromatic triple induces a P3.

    With n = a*k + t from even_division: for t <= k, a alternating red/blue
    size-k blocks then a green t-block.  For k < t < 2k, a-1 alternating
    size-k blocks (odd count, red at both ends) then green k, blue k,
    green t-k, which restores the block total to n.  The output is checked
    for a monochromatic star, here an induced P3 (powers.first_mono_set),
    before being returned.
    """
    check_params(n, k)
    if n < 2 * k + 2:
        raise InputError(f"three-colouring needs n >= 2k+2, got n={n}, k={k}")
    colouring = _three_colouring(n, k)
    _check_no_mono(first_mono_set("cycle", "star", n, k, colouring.colours),
                   "P3")
    return colouring


# ---------------------------------------------------------------------------
# chromatic constructions

def closed_form(kind: str, mode: str, n: int, k: int) -> ChromaticResult:
    """Exact chromatic number of mode ("biclique" or "star") on P_n^k
    (kind "path") or C_n^k, with an optimal colouring, by the first row of
    this table that applies; the colouring is checked for the mode's family
    (powers.first_mono_set) before it is returned.

    K_n (powers.is_complete): value n, each vertex its own colour.
    path, n <= 2k: value 2k+2-n, the universal vertices n-1-k..k; the first
        n-k vertices blue, the last n-k red, the middle fresh colours.
    path, n > 2k: value 2, alternating size-k blocks from red.
    cycle bicliques, n <= 3k+1: value 2, one red size-k block.
    cycle: value 2 by ab_certificate's blocks, else 3 by _three_colouring.
    """
    check_choices(kind, mode)
    check_params(n, k)
    if is_complete(kind, n, k):
        everyone = tuple(range(n))
        result = ChromaticResult(Colouring(everyone, n),
                                 universal_witness=everyone)
    elif kind == "path" and n <= 2 * k:
        value, witness = 2 * k + 2 - n, tuple(range(n - 1 - k, k + 1))
        colours = ((BLUE,) * (n - k) + tuple(range(GREEN, value))
                   + (RED,) * (n - k))
        result = ChromaticResult(Colouring(colours, value),
                                 universal_witness=witness)
    elif kind == "path":
        result = ChromaticResult(Colouring(_stripes(n, k), 2))
    elif mode == "biclique" and n <= 3 * k + 1:
        colours = (RED,) * k + (BLUE,) * (n - k)
        result = ChromaticResult(Colouring(colours, 2))
    elif (cert := ab_certificate(n, k)) is not None:
        # a size-k blocks then b size-(k+1) blocks, alternating from red;
        # a + b even keeps the alternation across n-1 -> 0
        colours = (_stripes(cert.a * k, k)
                   + _stripes(cert.b * (k + 1), k + 1, (RED, BLUE)[cert.a % 2]))
        result = ChromaticResult(Colouring(colours, 2), cert)
    else:
        result = ChromaticResult(_three_colouring(n, k))
    _check_no_mono(first_mono_set(kind, mode, n, k, result.colouring.colours),
                   mode)
    return result


def biclique_colour_path(n: int, k: int) -> ChromaticResult:
    """Exact biclique-chromatic number of P_n^k with an optimal colouring.

    n <= k+1: K_n, value n.  k+2 <= n <= 2k: value 2k+2-n, forced by the
    2k+2-n pairwise-adjacent universal vertices v_{n-1-k}..v_k; the flanks
    take blue and red and the middle takes fresh colours.  n >= 2k+1:
    value 2 by size-k blocks, the final partial block red iff the count of
    full blocks is even.
    """
    return closed_form("path", "biclique", n, k)


def biclique_colour_cycle(n: int, k: int) -> ChromaticResult:
    """Exact biclique-chromatic number of C_n^k with an optimal colouring.

    n <= 2k+1: K_n, value n.  2k+2 <= n <= 3k+1: every biclique is a C4 and
    one red size-k block against a blue rest is enough, value 2.  n >= 3k+2:
    value 2 exactly when an (a, b) block decomposition exists, else value 3
    via the no-mono-P3 three-colouring.
    """
    return closed_form("cycle", "biclique", n, k)


def star_colour_path(n: int, k: int) -> ChromaticResult:
    """Exact star-chromatic number of P_n^k.  Path powers are C4-free, so
    stars and bicliques coincide and so do the two chromatic numbers."""
    return closed_form("path", "biclique", n, k)


def star_colour_cycle(n: int, k: int) -> ChromaticResult:
    """Exact star-chromatic number of C_n^k with an optimal colouring.

    n <= 2k+1: K_n, value n.  Otherwise every edge extends to an induced P3,
    so the maximal stars are exactly the induced P3s: value 2 exactly when an
    (a, b) block decomposition exists (blocks of size k and k+1 admit no
    monochromatic P3), else value 3.  This differs from the biclique number
    only in 2k+2 <= n <= 3k+1, where C_11^4 is the standard example with
    biclique number 2 but star number 3.
    """
    return closed_form("cycle", "star", n, k)


# ---------------------------------------------------------------------------
# serialization

def colouring_to_dict(c: Colouring, *, ab: AbCertificate | None = None,
                      universal_witness=None) -> dict:
    d: dict = {"n": c.n, "colours": list(c.colours),
               "num_colours": c.num_colours}
    if ab is not None:
        d["certificate"] = {"a": ab.a, "b": ab.b}
    if universal_witness is not None:
        d["universal_witness"] = list(universal_witness)
    return d


def colouring_from_dict(d: dict) -> Colouring:
    if not isinstance(d, dict) or "n" not in d or "colours" not in d:
        raise InputError('colouring object needs "n" and "colours" keys')
    colours = d["colours"]
    if not (isinstance(colours, list) and all(is_int(c) for c in colours)):
        raise InputError('"colours" must be a list of integers')
    if not is_int(d["n"]):
        raise InputError('"n" must be an integer')
    if d["n"] != len(colours):
        raise InputError(
            f'"n" is {d["n"]} but {len(colours)} colours are listed')
    num = d.get("num_colours", (max(colours) + 1) if colours else 0)
    return Colouring(tuple(colours), num)


def read_colouring(path: str) -> Colouring:
    return colouring_from_dict(read_json(path))


def write_colouring(c: Colouring, path: str, *, ab: AbCertificate | None = None,
                    universal_witness=None) -> None:
    write_json(colouring_to_dict(c, ab=ab, universal_witness=universal_witness),
               path)
