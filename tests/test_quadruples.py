import pytest

import oracles
from qrank.quadruples import (EMPTY, Partition, Quadruple, class_counts,
                              enumerate_quadruples, partitions_bounded,
                              rank_counts, rank_table)
from qrank.rankgen import u_series, v_series


def P(*parts):
    return Partition.of(parts)


def Q4(p1, p2, p3, p4):
    return Quadruple(P(*p1), P(*p2), P(*p3), P(*p4))


# the fifteen u-members of 3, written out by hand
U3_MEMBERS = {
    ((3,), (), (), ()), ((2, 1), (), (), ()), ((1, 1, 1), (), (), ()),
    ((1, 1), (1,), (), ()), ((1, 1), (), (1,), ()), ((1, 1), (), (), (1,)),
    ((1,), (2,), (), ()), ((1,), (), (2,), ()), ((1,), (), (), (2,)),
    ((1,), (1, 1), (), ()), ((1,), (), (1, 1), ()), ((1,), (), (), (1, 1)),
    ((1,), (1,), (1,), ()), ((1,), (1,), (), (1,)), ((1,), (), (1,), (1,)),
}


def test_partitions_bounded_examples():
    assert {p.parts for p in partitions_bounded(3, 1)} == {(3,), (2, 1), (1, 1, 1)}
    assert {p.parts for p in partitions_bounded(4, 2, 4)} == {(4,), (2, 2)}
    assert partitions_bounded(0, 1) == [EMPTY]


def test_partition_conventions():
    assert EMPTY.smallest() == float("inf")
    assert EMPTY.largest() == 0
    assert P(3, 1).smallest() == 1 and P(3, 1).largest() == 3
    with pytest.raises(ValueError):
        Partition.of((1, 2))
    with pytest.raises(ValueError):
        Partition.of((0,))


def test_enumerate_u3():
    got = {(q.p1.parts, q.p2.parts, q.p3.parts, q.p4.parts)
           for q in enumerate_quadruples(3, "u")}
    assert got == U3_MEMBERS


def test_enumerate_v3():
    got = {(q.p1.parts, q.p2.parts, q.p3.parts, q.p4.parts)
           for q in enumerate_quadruples(3, "v")}
    assert got == {((1, 1, 1), (), (), ()), ((1, 1), (1,), (), ()),
                   ((1, 1), (), (1,), ()), ((1, 1), (), (), (1,))}


def test_enumerate_n1():
    qs = enumerate_quadruples(1, "u")
    assert len(qs) == 1
    assert qs[0] == Q4((1,), (), (), ())
    assert enumerate_quadruples(1, "v") == []


def test_membership_predicate():
    assert Q4((1, 1), (), (), (2,)).in_family("u")
    assert not Q4((1,), (), (), (3,)).in_family("u")      # l(p4) > 2 s(p1)
    assert not Q4((2,), (1,), (), ()).in_family("u")      # s(p1) not minimal
    assert not Q4((), (), (), ()).in_family("u")
    assert Q4((1, 1), (), (), ()).in_family("v")
    assert not Q4((2, 1), (), (), ()).in_family("v")


def test_enumeration_agrees_with_membership():
    for n in range(1, 8):
        for kind in ("u", "v"):
            members = enumerate_quadruples(n, kind)
            assert all(q.in_family(kind) and q.total() == n for q in members)
            keys = [q.sort_key() for q in members]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_omega_examples():
    assert Q4((1, 1), (), (), (1,)).omega() == 2
    assert Q4((1,), (), (), (1, 1)).omega() == 1
    assert Q4((2, 1), (), (), ()).omega() == 2


def test_omega_counts_all_parts_when_p4_empty():
    for n in range(1, 9):
        for qd in enumerate_quadruples(n, "u"):
            if qd.p4.is_empty():
                assert qd.omega() == qd.p1.count()


def test_rank_examples():
    assert Q4((1,), (1, 1), (), ()).rank("u") == 4
    assert Q4((1,), (), (1,), (1,)).rank("u") == -3
    assert Q4((1, 1), (), (), ()).rank("v") == 0


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


def test_class_counts_examples():
    assert class_counts(3, "u", 3) == [5, 5, 5]
    assert class_counts(3, "u", 5) == [3, 3, 3, 3, 3]
    assert class_counts(5, "u", 5) == [21, 21, 21, 21, 21]


def test_class_counts_feed_residue_vector_test():
    from qrank.cyclotomic import residue_vector_is_constant
    assert residue_vector_is_constant(5, class_counts(5, "u", 5))
    assert not residue_vector_is_constant(13, class_counts(13, "u", 13))


def test_totals_match_counting_series():
    u = u_series(31)
    v = v_series(31)
    for n in range(1, 31):
        assert sum(class_counts(n, "u", 7)) == u.coefficient(n)
        assert sum(rank_counts(n, "u").values()) == u.coefficient(n)
        assert sum(rank_counts(n, "v").values()) == v.coefficient(n)


def test_rank_table_shape():
    rows = rank_table(3, "u")
    assert len(rows) == 15
    triple = {(r.rank, r.mod3, r.mod5) for r in rows}
    assert triple == {(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 0, 3), (-1, 2, 4),
                      (2, 2, 2), (-2, 1, 3), (-1, 2, 4), (4, 1, 4), (-4, 2, 1),
                      (-2, 1, 3), (0, 0, 0), (1, 1, 1), (-3, 0, 2)}
    single = rank_table(1, "u")
    assert len(single) == 1 and single[0].omega == 1 and single[0].rank == 0
    v_rows = rank_table(3, "v")
    assert sorted(r.rank for r in v_rows) == [-2, -1, 1, 2]
    as_dict = rows[0].as_dict()
    assert set(as_dict) == {"p1", "p2", "p3", "p4", "omega", "rank", "mod3", "mod5", "mod7"}


def test_rank_table_multiset_matches_worked_example():
    # multiset of (omega, rank) pairs from the worked n=3 table
    expected = sorted([(1, 0), (2, 1), (3, 2), (2, 3), (2, -1), (2, 0),
                       (1, 2), (1, -2), (1, -1), (1, 4), (1, -4), (1, -2),
                       (1, 0), (1, 1), (1, -3)])
    got = sorted((r.omega, r.rank) for r in rank_table(3, "u"))
    assert got == expected
