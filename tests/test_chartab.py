import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoprod import chartab as ct
from isoprod import groups as gr
from isoprod.cyclotomic import CyclotomicNumber, zeta


def rat(x):
    return CyclotomicNumber.from_rational(x)


def _row_key(row):
    return tuple(v.sort_key() for v in row)


def row_tuples(table):
    return sorted((tuple(chi.values) for chi in table), key=_row_key)


def sorted_rows(rows):
    return sorted(rows, key=_row_key)


# a deterministic zoo of small groups for the property suites
def zoo_groups():
    return [
        gr.cyclic_group(2),
        gr.cyclic_group(12),
        gr.abelian_group([2, 4]),
        gr.abelian_group([3, 3]),
        gr.symmetric_group(3),
        gr.symmetric_group(4),
        gr.dihedral_group(4),
        gr.dihedral_group(6),
        gr.alternating_group(4),
        gr.alternating_group(5),
        gr.polycyclic_group([2, 2, 2], powers={0: (2,), 1: (2,)},
                            conjugates={(1, 0): (1, 2)}),
        gr.direct_product(gr.symmetric_group(3), gr.cyclic_group(4)),
    ]


def test_z2_table():
    table = ct.character_table(gr.cyclic_group(2))
    rows = sorted(tuple(v.as_rational() for v in chi.values) for chi in table)
    assert rows == [(1, -1), (1, 1)]


def test_q8_table_matches_known_rows(q8, tables):
    table = tables[q8.recipe]
    # canonical class order puts the identity first and the central
    # involution second; the three order-4 classes may come in any order,
    # and the expected multiset below is symmetric under permuting them
    one, minus = rat(1), rat(-1)
    expected = sorted_rows([
        (one, one, one, one, one),
        (one, one, one, minus, minus),
        (one, one, minus, one, minus),
        (one, one, minus, minus, one),
        (rat(2), rat(-2), rat(0), rat(0), rat(0)),
    ])
    assert row_tuples(table) == expected


def test_psl_table_matches_known_rows(psl27, tables):
    table = tables[psl27.recipe]
    assert sorted(chi.degree for chi in table) == [1, 3, 3, 6, 7, 8]
    eta = zeta(7) + zeta(7, 2) + zeta(7, 4)
    etabar = eta.conjugate()
    o = rat(1)
    expected = sorted_rows([
        (o, o, o, o, o, o),
        (rat(3), rat(-1), rat(0), rat(1), eta, etabar),
        (rat(3), rat(-1), rat(0), rat(1), etabar, eta),
        (rat(6), rat(2), rat(0), rat(0), rat(-1), rat(-1)),
        (rat(7), rat(-1), rat(1), rat(-1), rat(0), rat(0)),
        (rat(8), rat(0), rat(-1), rat(0), rat(1), rat(1)),
    ])
    assert row_tuples(table) == expected
    # the degree-3 values multiply to 2 and sum to -1
    deg3 = next(chi for chi in table if chi.degree == 3)
    v = deg3.values[-1]
    assert v + v.conjugate() == -1 and v * v.conjugate() == 2


def test_abelian_tables_against_dual_group_oracle():
    for orders in ([3, 3], [12], [2, 4], [2, 2, 2], [3, 3, 3], [5, 5]):
        group = gr.abelian_group(orders)
        table = ct.character_table(group)
        # direct construction: a character per exponent vector
        reps = [group.labels[c.representative] for c in group.conjugacy_classes]
        oracle = set()
        for cvec in itertools.product(*[range(n) for n in orders]):
            values = []
            for lab in reps:
                acc = rat(1)
                for c, x, n in zip(cvec, lab, orders):
                    if c * x:
                        acc = acc * zeta(n, c * x)
                values.append(acc)
            oracle.add(tuple(values))
        assert {tuple(chi.values) for chi in table} == oracle


def test_orthogonality_and_degree_sums(tables):
    groups = zoo_groups()
    own = [ct.character_table(g) for g in groups[:9]]  # keep runtime modest
    selected = list(tables.values()) + own
    for table in selected:
        group = table.group
        classes = group.conjugacy_classes
        assert sum(chi.degree ** 2 for chi in table) == group.order
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                assert table.inner_product(a, b) == (1 if i == j else 0)
        # column orthogonality
        k = len(classes)
        for c1 in range(k):
            for c2 in range(k):
                total = rat(0)
                for chi in table:
                    total = total + chi.values[c1] * chi.values[c2].conjugate()
                want = Fraction(group.order, classes[c1].size) if c1 == c2 else 0
                assert total == rat(want)


def test_galois_action_permutes_rows(tables):
    for table in tables.values():
        e = table.group.exponent
        rows = {tuple(chi.values) for chi in table}
        for t in range(1, e):
            if math.gcd(t, e) != 1:
                continue
            assert {tuple(chi.galois(t).values) for chi in table} == rows


def test_frobenius_schur_values(q8, psl27, tables):
    tq = tables[q8.recipe]
    assert ct.frobenius_schur(tq[tq.trivial_index]) == 1
    chi5 = next(chi for chi in tq if chi.degree == 2)
    assert ct.frobenius_schur(chi5) == -1
    # independent evaluation of (1/8) sum chi5(g^2) over all elements
    total = rat(0)
    for g in range(q8.order):
        total = total + chi5.value_on_element(q8.power(g, 2))
    assert (total * Fraction(1, 8)).as_rational() == -1
    tp = tables[psl27.recipe]
    deg3 = next(chi for chi in tp if chi.degree == 3)
    assert ct.frobenius_schur(deg3) == 0
    assert not deg3.is_self_dual()


def test_galois_orbits_structure(tables, z3z3, q8, psl27):
    tp = tables[psl27.recipe]
    orbits = ct.galois_orbits(tp)
    assert len(orbits) == 5
    deg3 = tuple(i for i, chi in enumerate(tp) if chi.degree == 3)
    assert sorted(len(o.indices) for o in orbits) == [1, 1, 1, 1, 2]
    assert next(o for o in orbits if len(o.indices) == 2).indices == deg3

    tz = tables[z3z3.recipe]
    oz = ct.galois_orbits(tz)
    assert len(oz) == 5
    assert sorted(len(o.indices) for o in oz) == [1, 2, 2, 2, 2]
    for o in oz:
        assert o.schur_index == 1 and not o.schur_heuristic
        # each orbit is closed under complex conjugation of rows
        for i in o.indices:
            assert tz.row_index(tz[i].conjugate()) in o.indices

    tq = tables[q8.recipe]
    oq = ct.galois_orbits(tq)
    assert len(oq) == 5 and all(o.field_degree == 1 for o in oq)
    o5 = next(o for o in oq if o.complex_degree == 2)
    assert o5.schur_index == 2 and not o5.schur_heuristic
    assert o5.rational_dimension == 4
    assert all(o.schur_index == 1 for o in oq if o is not o5)

    # partition property on every fixture table
    for table in tables.values():
        orbits = ct.galois_orbits(table)
        seen = sorted(i for o in orbits for i in o.indices)
        assert seen == list(range(len(table)))


def test_trivial_restriction_multiplicity(q8, z3z3, tables):
    tq = tables[q8.recipe]
    chi5 = next(chi for chi in tq if chi.degree == 2)
    for chi in tq:
        assert ct.trivial_restriction_multiplicity(chi, 0) == chi.degree
    i_gen = q8.generators[0]
    assert ct.trivial_restriction_multiplicity(chi5, i_gen) == 0

    tz = tables[z3z3.recipe]
    lab = {l: i for i, l in enumerate(z3z3.labels)}
    g11 = lab[(1, 1)]
    # a character nontrivial on (1,1) restricts without trivial constituents
    chi = next(c for c in tz if c.value_on_element(g11) == zeta(3))
    assert ct.trivial_restriction_multiplicity(chi, g11) == 0
    triv = tz[tz.trivial_index]
    assert ct.trivial_restriction_multiplicity(triv, g11) == 1


def test_rational_idempotents(q8, z3z3, tables):
    tq = tables[q8.recipe]
    oq = ct.galois_orbits(tq)
    triv = next(o for o in oq if o.contains_trivial())
    q_triv = ct.rational_idempotent(tq, triv)
    assert all(c == Fraction(1, 8) for c in q_triv.coefficients)

    o5 = next(o for o in oq if o.complex_degree == 2)
    q5 = ct.rational_idempotent(tq, o5)
    minus1 = next(i for i in range(8) if q8.element_orders[i] == 2)
    expected = [Fraction(0)] * 8
    expected[0] = Fraction(1, 2)
    expected[minus1] = Fraction(-1, 2)
    assert list(q5.coefficients) == expected

    # idempotency and centrality across all orbits of the fixture tables
    for table in tables.values():
        for orbit in ct.galois_orbits(table):
            q = ct.rational_idempotent(table, orbit)
            assert (q * q).coefficients == q.coefficients
            assert q.is_central()

    # a single constituent idempotent has irrational coefficients, the
    # orbit sum does not
    tz = tables[z3z3.recipe]
    oz = ct.galois_orbits(tz)
    pair = next(o for o in oz if o.field_degree == 2)
    single = ct.central_idempotent(tz, pair.indices[0])
    assert any(not v.is_rational for v in single)
    q_pair = ct.rational_idempotent(tz, pair)
    summed = ct.central_idempotent(tz, pair.indices[0])
    other = ct.central_idempotent(tz, pair.indices[1])
    assert all(
        (a + b).as_rational() == c
        for a, b, c in zip(summed, other, q_pair.coefficients)
    )


def test_tensor_trivial_multiplicity(q8, z3z3, tables):
    tz = tables[z3z3.recipe]
    oz = ct.galois_orbits(tz)
    pair = next(o for o in oz if o.field_degree == 2)
    assert ct.tensor_trivial_multiplicity(pair, pair) == 2
    triv = next(o for o in oz if o.contains_trivial())
    assert ct.tensor_trivial_multiplicity(pair, triv) == 0

    tq = tables[q8.recipe]
    oq = ct.galois_orbits(tq)
    o5 = next(o for o in oq if o.complex_degree == 2)
    assert ct.tensor_trivial_multiplicity(o5, o5) == 4

    # oracle: direct inner product of the rational characters
    for table in tables.values():
        group = table.group
        orbits = ct.galois_orbits(table)
        for oj in orbits:
            for ok in orbits:
                direct = Fraction(0)
                for k, cls in enumerate(group.conjugacy_classes):
                    direct += (cls.size * oj.rational_values[k]
                               * ok.rational_values[k])
                direct /= group.order
                assert direct == ct.tensor_trivial_multiplicity(oj, ok)


def test_rational_values_are_rational_integers(tables):
    for table in tables.values():
        for orbit in ct.galois_orbits(table):
            for v in orbit.rational_values:
                assert v.denominator == 1


def test_schur_policy_heuristic_flag():
    # SL(2,3) has a quaternionic degree-2 representation with irrational
    # (cube-root) values in its orbit companions; the faithful quaternionic
    # one is rational-valued, so it certifies s = 2, while the complex
    # degree-2 pair gets the exact s = 1 by no rule -- it is flagged only
    # when neither witness applies.  Here we just pin the flag behavior on
    # the fixtures: no shipped orbit is heuristic.
    sl23 = gr.polycyclic_group(
        [3, 2, 2, 2],
        powers={1: (3,), 2: (3,)},
        conjugates={(1, 0): (2,), (2, 0): (1, 2, 3), (2, 1): (2, 3)},
    )
    assert sl23.order == 24 and not sl23.is_abelian
    table = ct.character_table(sl23)
    orbits = ct.galois_orbits(table)
    deg2 = [o for o in orbits if o.complex_degree == 2]
    assert any(o.schur_index == 2 and not o.schur_heuristic for o in deg2)
    flagged = [o for o in deg2 if o.schur_heuristic]
    for o in flagged:
        assert o.schur_index == 1
        assert o.field_degree == 2


def test_table_export_import_roundtrip(q8, tables, tmp_path, monkeypatch):
    table = tables[q8.recipe]
    text = ct.render_table(table)
    back = ct.parse_table(text, q8)
    assert [tuple(chi.values) for chi in back] == [tuple(chi.values) for chi in table]
    with pytest.raises(ct.CharacterTableError):
        ct.parse_table(text, gr.dihedral_group(4))
    # cache path via environment variable
    monkeypatch.setenv("ISOPROD_CACHE", str(tmp_path))
    first = ct.cached_character_table(q8)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = ct.cached_character_table(q8)
    assert [tuple(c.values) for c in second] == [tuple(c.values) for c in first]
    # a damaged cache file is recomputed and overwritten
    files[0].write_bytes(b"\xff" + files[0].read_bytes()[:40])
    third = ct.cached_character_table(q8)
    assert [tuple(c.values) for c in third] == [tuple(c.values) for c in first]
    assert files[0].read_text() == text


def test_cache_write_leaves_no_partial_file(q8, tmp_path, monkeypatch):
    def failing_render(table):
        raise RuntimeError("render interrupted")

    monkeypatch.setattr(ct, "render_table", failing_render)
    with pytest.raises(RuntimeError):
        ct.cached_character_table(q8, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def _mutations(text, exponent):
    """Truncations, dropped lines, replaced characters and, where the text
    has a root of unity, a conductor that does not divide the exponent
    (refused before any arithmetic: building z(4001) alone takes seconds)."""
    lines = text.splitlines(keepends=True)
    chars = st.one_of(st.sampled_from("0123456789+-*/^;() z\n"), st.characters())
    options = [
        st.integers(0, len(text)).map(lambda i: text[:i]),
        st.integers(0, len(lines) - 1).map(
            lambda i: "".join(lines[:i] + lines[i + 1:])),
        st.tuples(st.integers(0, len(text) - 1), chars).map(
            lambda ic: text[:ic[0]] + ic[1] + text[ic[0] + 1:]),
    ]
    start = text.find("z(")
    if start >= 0:
        end = text.index(")", start)
        options.append(st.integers(2, 20000).filter(lambda n: exponent % n).map(
            lambda n: text[:start] + f"z({n}" + text[end:]))
    return st.one_of(options)


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(data=st.data())
def test_parse_table_returns_equal_table_or_rejects(data, z3z3, q8, psl27, tables):
    group = data.draw(st.sampled_from([z3z3, q8, psl27]))
    table = tables[group.recipe]
    mutated = data.draw(_mutations(ct.render_table(table), group.exponent))
    try:
        back = ct.parse_table(mutated, group)
    except ct.CharacterTableError:
        return
    assert [chi.values for chi in back] == [chi.values for chi in table]


def test_dixon_prime_policy():
    assert ct.dixon_prime(8, 4) == 13
    assert ct.dixon_prime(168, 84) == 337
    p = ct.dixon_prime(128, 4)
    assert p % 4 == 1 and p > 2 * math.isqrt(127) + 2
