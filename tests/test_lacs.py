"""Unit tests for local approximate changes."""

import pytest

from repro.core import LAC, applied_copy, apply_lac, is_safe
from repro.netlist import CONST0, CONST1, Circuit, validate


class TestLACKind:
    def test_wire_by_constant(self):
        assert LAC(5, CONST0).kind == "wire-by-constant"
        assert LAC(5, CONST1).kind == "wire-by-constant"

    def test_wire_by_wire(self):
        assert LAC(5, 2).kind == "wire-by-wire"

    def test_str(self):
        assert "wire-by-wire(8 -> 2)" in str(LAC(8, 2))


class TestSafety:
    def test_tfi_switch_is_safe(self, fig3):
        assert is_safe(fig3, LAC(target=8, switch=2))
        assert is_safe(fig3, LAC(target=8, switch=5))

    def test_constants_always_safe(self, fig3):
        for target in fig3.logic_ids():
            assert is_safe(fig3, LAC(target, CONST0))
            assert is_safe(fig3, LAC(target, CONST1))

    def test_tfo_switch_unsafe(self, fig3):
        # 11 is in the TFO of 8: rewiring consumers of 8 to 11 loops.
        assert not is_safe(fig3, LAC(target=8, switch=11))

    def test_self_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(8, 8))

    def test_po_target_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(13, 5))

    def test_po_switch_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(8, 13))

    def test_missing_gate_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(999, 5))
        assert not is_safe(fig3, LAC(8, 999))

    def test_const_target_unsafe(self, fig3):
        assert not is_safe(fig3, LAC(CONST0, 5))

    def test_sibling_switch_safe(self, fig3):
        # 9 is neither in TFI nor TFO of 10's cone start... 9 feeds 12
        # like 10 does; substituting 10 by 9 must be loop-free.
        assert is_safe(fig3, LAC(target=10, switch=9))
        c = fig3.copy()
        apply_lac(c, LAC(target=10, switch=9))
        validate(c)


class TestApply:
    def test_paper_fig5_wire_by_constant(self, fig3):
        """cs1 in Fig. 5: gate 8 replaced by constant 0 in gate 11."""
        changed = apply_lac(fig3, LAC(target=8, switch=CONST0))
        assert changed == [11]
        assert fig3.fanins[11] == (5, CONST0)
        validate(fig3)

    def test_paper_fig5_wire_by_wire(self, fig3):
        """cs2 in Fig. 5: PO 15's driver 12 replaced by gate 10."""
        # The PO-driver substitution is a wire-by-wire on gate 12.
        changed = apply_lac(fig3, LAC(target=12, switch=10))
        assert changed == [15]
        assert fig3.fanins[15] == (10,)
        validate(fig3)

    def test_unsafe_apply_raises(self, fig3):
        with pytest.raises(ValueError):
            apply_lac(fig3, LAC(target=8, switch=11))

    def test_applied_copy_leaves_original(self, fig3):
        child = applied_copy(fig3, LAC(target=8, switch=CONST0))
        assert fig3.fanins[11] == (5, 8)
        assert child.fanins[11] == (5, CONST0)
        validate(child)

    def test_applied_copy_unsafe_raises_source_untouched(self, fig3):
        before = dict(fig3.fanins)
        version = fig3.version
        with pytest.raises(ValueError, match="unsafe LAC"):
            applied_copy(fig3, LAC(target=8, switch=11))
        assert fig3.version == version
        assert dict(fig3.fanins) == before

    def test_applied_copy_checks_safety_on_the_source(
        self, fig3, monkeypatch
    ):
        """The fresh copy has no memos: no fan-out map may be built on it
        before its substitution (the source answers ``is_safe``)."""
        events = []
        copies = []
        real_fanouts = Circuit.fanouts
        real_substitute = Circuit.substitute
        real_copy = Circuit.copy

        def fanouts(self):
            events.append(("fanouts", self))
            return real_fanouts(self)

        def substitute(self, target, switch):
            events.append(("substitute", self))
            return real_substitute(self, target, switch)

        def copy(self, name=None):
            child = real_copy(self, name)
            copies.append(child)
            return child

        monkeypatch.setattr(Circuit, "fanouts", fanouts)
        monkeypatch.setattr(Circuit, "substitute", substitute)
        monkeypatch.setattr(Circuit, "copy", copy)
        child = applied_copy(fig3, LAC(target=10, switch=7))
        assert copies == [child]
        assert ("fanouts", fig3) in events
        first_sub = events.index(("substitute", child))
        assert all(c is not child for _, c in events[:first_sub])
        assert child.fanins[12] == (9, 7)
