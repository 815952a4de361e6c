import pytest

import z2index.borsuk as borsuk
from z2index.borsuk import classify_class
from z2index.catalog import (
    ENTRIES,
    lens_rule_index,
    lookup,
)
from z2index.homology import CoverClass
from z2index.surgery import linking_matrix


class TestLookup:
    def test_sphere(self):
        entries = lookup("S3")
        assert any(
            e.cover_manifold == "S^3" and e.quotient_manifold == "RP^3"
            and e.index == 3 for e in entries
        )

    def test_s1xs2_four_quotients(self):
        entries = lookup("S1xS2")
        quotients = {(e.quotient_manifold, e.index) for e in entries
                     if e.cover_manifold == "S^1xS^2"}
        assert quotients == {
            ("S^1xS^2", 1), ("K^3", 1), ("S^1xRP^2", 2), ("RP^3#RP^3", 2),
        }

    def test_klein_bottle_as_cover(self):
        entries = [e for e in lookup("K3") if e.cover_manifold == "K^3"]
        assert len(entries) == 1
        e = entries[0]
        assert e.quotient_manifold == "S^1xRP^2" and e.index == 3
        assert not e.computable_by_surgery and e.source

    def test_unknown_is_empty(self):
        assert lookup("poincare-sphere") == []

    def test_alias_l21(self):
        assert lookup("L(2,1)") == lookup("RP3")


class TestSelfConsistency:
    @pytest.mark.parametrize(
        "entry",
        [e for e in ENTRIES if e.computable_by_surgery],
        ids=lambda e: e.quotient_manifold,
    )
    def test_surgery_entries_reproduce_index(self, entry):
        b = linking_matrix(entry.surgery_presentation)
        report = classify_class(b, CoverClass.from_bits(entry.cover_class_bits))
        assert report.index == entry.index

    def test_nonorientable_entries_cited(self):
        nonorientable = [e for e in ENTRIES if not e.computable_by_surgery]
        assert {e.quotient_manifold for e in nonorientable} == \
            {"K^3", "S^1xRP^2"}
        for e in nonorientable:
            assert e.source
            assert e.surgery_presentation is None


class TestLensRule:
    def test_rule(self):
        assert lens_rule_index(2) == 3
        assert lens_rule_index(6) == 3
        assert lens_rule_index(4) == 2
        assert lens_rule_index(8) == 2
        assert lens_rule_index(5) is None

    def test_catalog_reexports_the_rule_of_borsuk(self):
        assert lens_rule_index is borsuk.lens_rule_index
