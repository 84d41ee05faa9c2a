import pytest

import oracles
from qrank.cyclotomic import CycQ
from qrank.quadruples import (CLASSES_MAX_N, _partitions, _rank_counts, class_counts, enumerate_quadruples,
                              in_family, omega, rank, rank_counts, rank_table)
from qrank.rankgen import u_series, v_series


# the fifteen u-members of 3, written out by hand
U3_MEMBERS = {
    ((3,), (), (), ()), ((2, 1), (), (), ()), ((1, 1, 1), (), (), ()),
    ((1, 1), (1,), (), ()), ((1, 1), (), (1,), ()), ((1, 1), (), (), (1,)),
    ((1,), (2,), (), ()), ((1,), (), (2,), ()), ((1,), (), (), (2,)),
    ((1,), (1, 1), (), ()), ((1,), (), (1, 1), ()), ((1,), (), (), (1, 1)),
    ((1,), (1,), (1,), ()), ((1,), (1,), (), (1,)), ((1,), (), (1,), (1,)),
}


def test_partitions_bounded_examples():
    assert set(_partitions(3, 1, None)) == {(3,), (2, 1), (1, 1, 1)}
    assert set(_partitions(4, 2, 4)) == {(4,), (2, 2)}
    assert _partitions(0, 1, None) == ((),)


def test_enumerate_u3():
    got = set(enumerate_quadruples(3, "u"))
    assert got == U3_MEMBERS


def test_enumerate_v3():
    got = set(enumerate_quadruples(3, "v"))
    assert got == {((1, 1, 1), (), (), ()), ((1, 1), (1,), (), ()),
                   ((1, 1), (), (1,), ()), ((1, 1), (), (), (1,))}


def test_enumerate_n1():
    qs = enumerate_quadruples(1, "u")
    assert len(qs) == 1
    assert qs[0] == ((1,), (), (), ())
    assert enumerate_quadruples(1, "v") == []


def test_membership_predicate():
    assert in_family(((1, 1), (), (), (2,)), "u")
    assert not in_family(((1,), (), (), (3,)), "u")      # l(p4) > 2 s(p1)
    assert not in_family(((2,), (1,), (), ()), "u")      # s(p1) not minimal
    assert not in_family(((), (), (), ()), "u")
    assert in_family(((1, 1), (), (), ()), "v")
    assert not in_family(((2, 1), (), (), ()), "v")


def test_enumeration_agrees_with_membership():
    for n in range(1, 8):
        for kind in ("u", "v"):
            members = enumerate_quadruples(n, kind)
            assert all(in_family(q, kind) and sum(map(sum, q)) == n for q in members)
            keys = [(q[0][-1], q) for q in members]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_omega_examples():
    assert omega(((1, 1), (), (), (1,))) == 2
    assert omega(((1,), (), (), (1, 1))) == 1
    assert omega(((2, 1), (), (), ())) == 2


def test_omega_counts_all_parts_when_p4_empty():
    for n in range(1, 9):
        for qd in enumerate_quadruples(n, "u"):
            if not qd[3]:
                assert omega(qd) == len(qd[0])


def test_rank_examples():
    assert rank(((1,), (1, 1), (), ()), "u") == 4
    assert rank(((1,), (), (1,), (1,)), "u") == -3
    assert rank(((1, 1), (), (), ()), "v") == 0


def test_rank_counts_examples():
    assert rank_counts(3, "u") == {-4: 1, -3: 1, -2: 2, -1: 2, 0: 3, 1: 2, 2: 2, 3: 1, 4: 1}
    assert rank_counts(2, "u") == {-2: 1, -1: 1, 0: 1, 1: 1, 2: 1}
    assert rank_counts(1, "u") == {0: 1}
    assert rank_counts(1, "v") == {}
    assert rank_counts(2, "v") == {0: 1}
    assert rank_counts(3, "v") == {-2: 1, -1: 1, 1: 1, 2: 1}
    with pytest.raises(ValueError):
        rank_counts(0, "u")
    with pytest.raises(ValueError):
        rank_counts(3, "w")


@pytest.mark.parametrize("kind", ["u", "v"])
def test_rank_counts_match_enumeration(kind):
    for n in range(1, 15):
        got = rank_counts(n, kind)
        assert got == oracles.ref_rank_counts(n, kind), n
        assert list(got) == sorted(got)


@pytest.mark.deep
@pytest.mark.parametrize("kind", ["u", "v"])
def test_rank_counts_match_enumeration_deep(kind):
    for n in range(15, 18):
        assert rank_counts(n, kind) == oracles.ref_rank_counts(n, kind), n


def test_each_n_and_kind_is_counted_once_and_handed_out_as_a_fresh_dict():
    _rank_counts.cache_clear()
    first = rank_counts(9, "u")
    first[0] = -1
    assert rank_counts(9, "u") == oracles.ref_rank_counts(9, "u")
    assert sum(class_counts(9, "u", 5)) == sum(oracles.ref_rank_counts(9, "u").values())
    assert rank_counts(9, "v") == oracles.ref_rank_counts(9, "v")
    assert _rank_counts.cache_info()[:2] == (2, 2)


def test_class_counts_examples():
    assert class_counts(3, "u", 3) == [5, 5, 5]
    assert class_counts(3, "u", 5) == [3, 3, 3, 3, 3]
    assert class_counts(5, "u", 5) == [21, 21, 21, 21, 21]


def test_class_counts_feed_residue_vector_test():
    assert CycQ.from_raw(5, class_counts(5, "u", 5)).is_zero()
    assert not CycQ.from_raw(13, class_counts(13, "u", 13)).is_zero()


def test_totals_match_counting_series():
    u = u_series(CLASSES_MAX_N + 1)
    v = v_series(CLASSES_MAX_N + 1)
    for n in range(1, CLASSES_MAX_N + 1):
        assert sum(class_counts(n, "u", 7)) == u.coefficient(n)
        assert sum(rank_counts(n, "u").values()) == u.coefficient(n)
        assert sum(rank_counts(n, "v").values()) == v.coefficient(n)


def test_rank_table_shape():
    rows = rank_table(3, "u")
    assert len(rows) == 15
    triple = {(r["rank"], r["mod3"], r["mod5"]) for r in rows}
    assert triple == {(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 3), (-1, 2, 4),
                      (2, 2, 2), (-2, 1, 3), (-1, 2, 4), (4, 1, 4), (-4, 2, 1),
                      (-2, 1, 3), (0, 0, 0), (1, 1, 1), (-3, 0, 2)}
    single = rank_table(1, "u")
    assert len(single) == 1 and single[0]["omega"] == 1 and single[0]["rank"] == 0
    v_rows = rank_table(3, "v")
    assert sorted(r["rank"] for r in v_rows) == [-2, -1, 1, 2]
    assert set(rows[0]) == {"p1", "p2", "p3", "p4", "omega", "rank", "mod3", "mod5", "mod7"}


def test_rank_table_multiset_matches_worked_example():
    # multiset of (omega, rank) pairs from the worked n=3 table
    expected = sorted([(1, 0), (2, 1), (3, 2), (2, 3), (2, -1), (2, 0),
                       (1, 2), (1, -2), (1, -1), (1, 4), (1, -4), (1, -2),
                       (1, 0), (1, 1), (1, -3)])
    got = sorted((r["omega"], r["rank"]) for r in rank_table(3, "u"))
    assert got == expected


@pytest.mark.parametrize("kind", ["u", "v"])
def test_rank_table_ranks_match_rank_counts(kind):
    for n in range(1, 11):
        hist = {}
        for row in rank_table(n, kind):
            hist[row["rank"]] = hist.get(row["rank"], 0) + 1
        assert hist == rank_counts(n, kind), n
