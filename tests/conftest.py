"""Faults injected into the inputs of the associated set I' = I_R ∪ I_B of
E_n + H.  Each makes I' not independent in F2(E_n + H), and the harness
must report that as a verdict (a DISAGREE row, a failed lemma trial),
never as an error."""

import pytest

from token_alpha import harness


def _lowest(bits):
    return (bits & -bits).bit_length() - 1


def _s2_not_independent(monkeypatch):
    """Every S2 the harness takes, the cross candidate's greedy set and the
    lemma trials' extracted set, gains the H-neighbours of its lowest
    member; two of its members x, y then share an edge, and {u,x}, {u,y}
    of I_R are adjacent.  The extracted set's H is read off the graph under
    test, E_n + H, the last graph the harness built a token graph of."""
    real_greedy, real_extract = harness.greedy_independent_set, harness.extract_s1_s2
    real_build = harness.build_f2
    built = []

    def build(base):
        built.append(base)
        return real_build(base)

    def greedy(adj):
        bits = real_greedy(adj)
        return bits | adj[_lowest(bits)]

    def extract(i, n, order):
        s1, s2 = real_extract(i, n, order)
        return s1, s2 | built[-1].masks[n + _lowest(s2)] >> n

    monkeypatch.setattr(harness, "build_f2", build)
    monkeypatch.setattr(harness, "greedy_independent_set", greedy)
    monkeypatch.setattr(harness, "extract_s1_s2", extract)


def _with_pairs(rows, *pairs):
    """Partner rows with pairs added, each in both of its rows; rows is
    left as it was."""
    rows = list(rows)
    for x, y in pairs:
        rows[x] |= 1 << y
        rows[y] |= 1 << x
    return rows


def _pair_touches_s2(monkeypatch):
    """F2(H - S2)'s set gains a pair {a,b} with a the lowest member of a
    nonempty S2; {u,a} of I_R and {a,b} differ by the join edge u-b."""
    real = harness._max_ind_rows_of_f2

    def faulty(h, removed):
        rows = real(h, removed)
        if not removed:
            return rows
        a = _lowest(removed)
        return _with_pairs(rows, (0, a) if a else (0, 1))

    monkeypatch.setattr(harness, "_max_ind_rows_of_f2", faulty)


def _f2_set_not_independent(monkeypatch):
    """F2(H - S2)'s set gains {x,y} and {x,z} for an edge yz of H - S2 and
    a third vertex x of H - S2, wherever H - S2 has them."""
    real = harness._max_ind_rows_of_f2

    def faulty(h, removed):
        rows = real(h, removed)
        survivors = [v for v in range(h.order) if not removed >> v & 1]
        for y, z in h.sorted_edges():
            x = next((v for v in survivors if v not in (y, z)), None)
            if y in survivors and z in survivors and x is not None:
                return _with_pairs(rows, (x, y), (x, z))
        return rows

    monkeypatch.setattr(harness, "_max_ind_rows_of_f2", faulty)


@pytest.fixture(params=[_s2_not_independent, _pair_touches_s2, _f2_set_not_independent],
                ids=["s2-not-independent", "pair-touches-s2", "f2-set-not-independent"])
def construction_fault(request, monkeypatch):
    """Installs one fault in the harness for the length of a test."""
    request.param(monkeypatch)
