import random

import pytest

from binheight.errors import EnumerationCapExceeded, MalformedInput, NotAnIdeal
from binheight.hibi import (
    Poset,
    comparability_components,
    defining_ideal_height,
    dual,
    is_ideal,
    isolated_singularity_verdict,
    join_and_meet,
    poset_ideals,
    presentation,
)
from helpers import (
    labeled_posets,
    poset_classes,
    poset_from_relation,
    set_presentation,
)

CHAIN3 = Poset(("a", "b", "c"), (("a", "b"), ("b", "c")))
ANTICHAIN2 = Poset(("a", "b"), ())
VEE = Poset(("p", "q", "r"), (("p", "q"), ("p", "r")))


class TestPoset:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(MalformedInput):
            Poset(("a", "a"), ())

    def test_unknown_label_in_cover(self):
        with pytest.raises(MalformedInput):
            Poset(("a",), (("a", "z"),))

    def test_self_cover_rejected(self):
        with pytest.raises(MalformedInput):
            Poset(("a",), (("a", "a"),))

    def test_cycle_rejected(self):
        with pytest.raises(MalformedInput):
            Poset(("a", "b"), (("a", "b"), ("b", "a")))

    def test_comparability(self):
        assert CHAIN3.comparable("a", "c") is True
        assert VEE.comparable("q", "r") is False
        assert VEE.comparable("q", "q") is True


class TestPosetIdeals:
    def test_chain(self):
        assert poset_ideals(CHAIN3) == (
            (),
            ("a",),
            ("a", "b"),
            ("a", "b", "c"),
        )

    def test_long_chain(self):
        # the search goes one element deeper per element, past the
        # interpreter's recursion limit
        labels = tuple(f"c{i:04d}" for i in range(1200))
        chain = Poset(labels, tuple(zip(labels, labels[1:])))
        assert len(poset_ideals(chain)) == 1201

    def test_antichain(self):
        assert poset_ideals(ANTICHAIN2) == ((), ("a",), ("b",), ("a", "b"))

    def test_vee(self):
        assert poset_ideals(VEE) == (
            (),
            ("p",),
            ("p", "q"),
            ("p", "r"),
            ("p", "q", "r"),
        )

    def test_empty_poset(self):
        assert poset_ideals(Poset((), ())) == ((),)

    def test_each_result_is_down_closed(self):
        for rel in labeled_posets(4):
            p = poset_from_relation(4, rel)
            for ideal in poset_ideals(p):
                assert is_ideal(p, ideal)

    def test_count_matches_brute_force(self):
        for rel in labeled_posets(4):
            p = poset_from_relation(4, rel)
            brute = sum(
                1
                for bits in range(16)
                if is_ideal(
                    p, [p.elements[i] for i in range(4) if bits >> i & 1]
                )
            )
            assert len(poset_ideals(p)) == brute

    def test_size_cap(self):
        with pytest.raises(EnumerationCapExceeded, match="at least 4 steps"):
            poset_ideals(ANTICHAIN2, cap=3)


class TestJoinAndMeet:
    def test_vee_ideals(self):
        join, meet = join_and_meet(VEE, ("p", "q"), ("p", "r"))
        assert join == ("p", "q", "r")
        assert meet == ("p",)

    def test_identity_on_equal_ideals(self):
        join, meet = join_and_meet(ANTICHAIN2, ("a",), ("a",))
        assert join == meet == ("a",)

    def test_rejects_non_ideal(self):
        with pytest.raises(NotAnIdeal):
            join_and_meet(CHAIN3, ("b",), ())

    def test_distributivity(self):
        rng = random.Random(73)
        for rel in labeled_posets(4):
            p = poset_from_relation(4, rel)
            ideals = poset_ideals(p)
            for _ in range(3):
                i, j, k = (set(rng.choice(ideals)) for _ in range(3))
                jk_join, _ = join_and_meet(p, j, k)
                _, left = join_and_meet(p, i, jk_join)
                _, ij = join_and_meet(p, i, j)
                _, ik = join_and_meet(p, i, k)
                right, _ = join_and_meet(p, ij, ik)
                assert left == right


class TestPresentation:
    def test_chain_has_no_relations(self):
        h = presentation(CHAIN3)
        assert h.toric.generators == ()
        assert h.height == 0

    def test_antichain_relation(self):
        h = presentation(ANTICHAIN2)
        assert h.names == ("y()", "y(a)", "y(b)", "y(a,b)")
        assert h.toric.generators == ((-1, 1, 1, -1),)
        assert h.height == 1

    def test_vee_relation(self):
        h = presentation(VEE)
        assert h.names == (
            "y()",
            "y(p)",
            "y(p,q)",
            "y(p,r)",
            "y(p,q,r)",
        )
        assert h.toric.generators == ((0, -1, 1, 1, -1),)
        assert h.height == 1

    def test_configuration_shape(self):
        h = presentation(ANTICHAIN2)
        m = h.toric.config.matrix
        assert m.shape == (3, 4)
        assert m.row(0) == (1, 1, 1, 1)

    def test_relations_kill_configuration(self):
        h = presentation(VEE)
        for g in h.toric.generators:
            assert h.toric.config.apply(g) == (0, 0, 0, 0)

    def test_empty_poset(self):
        h = presentation(Poset((), ()))
        assert h.height == 0
        assert h.names == ("y()",)

    def test_matches_set_oracle(self):
        # bit masks against the label-set pair loop, on every labelled poset
        # of at most 4 elements and every class of 1-5 elements; listing the
        # elements in reverse makes bit order differ from label order
        posets = [poset_from_relation(n, rel) for n in range(5) for rel in labeled_posets(n)]
        classes = [poset_from_relation(n, rel) for n in range(1, 6) for rel in poset_classes(n)]
        assert len(classes) == 87
        for p in posets + classes:
            for q in (p, Poset(p.elements[::-1], p.covers)):
                h = presentation(q)
                m = h.toric.config.matrix
                rows = tuple(m.row(i) for i in range(m.rows))
                got = (h.ideals, h.names, h.toric.generators, rows)
                assert got == set_presentation(q), q

    def test_pair_tests_capped_while_enumerating(self):
        # 2^20 ideals: the enumeration stops at the first 4473, whose pairs
        # already exceed the default cap
        with pytest.raises(EnumerationCapExceeded) as exc:
            presentation(Poset(tuple(f"e{i}" for i in range(20)), ()))
        assert exc.value.required == 4473 * 4472 // 2
        assert "at least" in str(exc.value)

    def test_relation_entries_capped_before_building(self):
        # the 3-antichain: 8 ideals, 9 incomparable pairs, 72 dense entries
        antichain = Poset(("a", "b", "c"), ())
        assert len(presentation(antichain, cap=72).toric.generators) == 9
        with pytest.raises(EnumerationCapExceeded, match="relation entries needs 72 steps"):
            presentation(antichain, cap=71)
        with pytest.raises(EnumerationCapExceeded) as exc:
            defining_ideal_height(Poset(tuple("abcdefghi"), ()))
        assert exc.value.required == 57_162_240

    def test_long_chain(self):
        labels = tuple(f"c{i:04d}" for i in range(1200))
        h = presentation(Poset(labels, tuple(zip(labels, labels[1:]))))
        assert len(h.ideals) == 1201
        assert h.toric.generators == ()

    def test_height_formula(self):
        for rel in labeled_posets(4):
            p = poset_from_relation(4, rel)
            h = presentation(p)
            assert h.height == len(h.ideals) - len(p.elements) - 1
            assert defining_ideal_height(p) == h.height


class TestDuality:
    def test_covers_reverse(self):
        d = dual(CHAIN3)
        assert set(d.covers) == {("b", "a"), ("c", "b")}

    def test_ideal_complement_bijection(self):
        for rel in labeled_posets(4):
            p = poset_from_relation(4, rel)
            d = dual(p)
            all_elems = set(p.elements)
            complements = {
                tuple(sorted(all_elems - set(i))) for i in poset_ideals(p)
            }
            assert complements == set(poset_ideals(d))

    def test_verdict_is_self_dual(self):
        for rel in labeled_posets(4):
            p = poset_from_relation(4, rel)
            assert (
                isolated_singularity_verdict(p).status
                == isolated_singularity_verdict(dual(p)).status
            )


class TestComparabilityComponents:
    def test_union_of_chains(self):
        p = Poset(("a", "b", "c", "d", "e"), (("a", "b"), ("c", "d"), ("d", "e")))
        assert comparability_components(p) == (("a", "b"), ("c", "d", "e"))

    def test_antichain_splits_fully(self):
        assert comparability_components(ANTICHAIN2) == (("a",), ("b",))


class TestIsolatedVerdict:
    def test_union_of_chains_is_isolated(self):
        p = Poset(("a", "b", "c", "d", "e"), (("a", "b"), ("c", "d"), ("d", "e")))
        r = isolated_singularity_verdict(p)
        assert r.status == "isolated"
        assert r.chain_components is True
        assert r.note is None

    def test_antichain_is_isolated(self):
        assert isolated_singularity_verdict(ANTICHAIN2).status == "isolated"

    def test_vee_is_not(self):
        r = isolated_singularity_verdict(VEE)
        assert r.status == "not_isolated"
        assert "'q'" in r.note and "'r'" in r.note
