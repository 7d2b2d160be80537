"""Tests for versioned-extent storage and visibility rules."""

import math

from repro.core.semantics import Semantics
from repro.pfs.storage import FileStore


def store(semantics, **kw):
    return FileStore("/f", semantics, **kw)


class TestStrong:
    def test_read_sees_latest_write(self):
        st = store(Semantics.STRONG)
        st.write(0, 0, b"aaaa", 1.0)
        st.write(1, 0, b"bbbb", 2.0)
        out = st.read(2, 0, 4, 3.0)
        assert out.data == b"bbbb"
        assert not out.is_stale

    def test_holes_read_as_zeros(self):
        st = store(Semantics.STRONG)
        st.write(0, 4, b"xx", 1.0)
        assert st.read(1, 0, 8, 2.0).data == b"\x00" * 4 + b"xx\x00\x00"

    def test_partial_overlap_resolution(self):
        st = store(Semantics.STRONG)
        st.write(0, 0, b"aaaaaaaa", 1.0)
        st.write(1, 2, b"BB", 2.0)
        assert st.read(0, 0, 8, 3.0).data == b"aaBBaaaa"


class TestCommit:
    def test_unpublished_write_invisible_to_others(self):
        st = store(Semantics.COMMIT)
        st.write(0, 0, b"new!", 1.0)
        out = st.read(1, 0, 4, 2.0)
        assert out.data == b"\x00" * 4
        assert out.is_stale and out.stale_bytes == 4

    def test_own_writes_always_visible(self):
        st = store(Semantics.COMMIT)
        st.write(0, 0, b"mine", 1.0)
        out = st.read(0, 0, 4, 1.5)
        assert out.data == b"mine" and not out.is_stale

    def test_publish_makes_visible(self):
        st = store(Semantics.COMMIT)
        st.write(0, 0, b"data", 1.0)
        assert st.publish(0, 2.0) == 1
        out = st.read(1, 0, 4, 3.0)
        assert out.data == b"data" and not out.is_stale

    def test_publish_idempotent(self):
        st = store(Semantics.COMMIT)
        st.write(0, 0, b"data", 1.0)
        st.publish(0, 2.0)
        assert st.publish(0, 5.0) == 0  # already published

    def test_read_before_commit_point_stale(self):
        st = store(Semantics.COMMIT)
        st.write(0, 0, b"data", 1.0)
        st.publish(0, 5.0)
        out = st.read(1, 0, 4, 3.0)  # before the publish time
        assert out.is_stale

    def test_same_process_ordering_disabled(self):
        """BurstFS-like: a read after two own writes may see either."""
        st = store(Semantics.COMMIT, same_process_ordering=False)
        st.write(0, 0, b"1111", 1.0)
        st.write(0, 0, b"2222", 2.0)
        out = st.read(0, 0, 4, 3.0)
        # with reversed own-order, the first write wins -> stale content
        assert out.data == b"1111"
        assert out.is_stale


class TestSession:
    def test_close_to_open_visibility(self):
        st = store(Semantics.SESSION)
        st.write(0, 0, b"data", 1.0)
        st.publish(0, 2.0)  # writer closes
        # reader whose open predates the close: stale
        before = st.read(1, 0, 4, 3.0, client_open_time=1.5)
        assert before.is_stale
        # reader who re-opened after the close: fresh
        after = st.read(1, 0, 4, 3.0, client_open_time=2.5)
        assert after.data == b"data" and not after.is_stale


class TestObject:
    def test_put_carries_forward_the_version_it_opened_on(self):
        st = store(Semantics.OBJECT)
        st.write(0, 0, b"aaaa", 1.0)
        st.publish(0, 2.0, opened_at=0.5)
        st.write(1, 4, b"bbbb", 3.5)      # session opened at 3.0
        st.publish(1, 4.0, opened_at=3.0)
        assert st.read(2, 0, 8, 5.0, client_open_time=4.5).data \
            == b"aaaabbbb"
        assert st.settle() == b"aaaabbbb"

    def test_version_published_at_the_open_is_carried_forward(self):
        # the same bound as a reader's pin: commit_point <= open
        st = store(Semantics.OBJECT)
        st.write(0, 0, b"aaaa", 1.0)
        st.publish(0, 2.0, opened_at=0.5)
        st.write(1, 4, b"bbbb", 2.5)
        st.publish(1, 3.0, opened_at=2.0)
        assert st.settle() == b"aaaabbbb"

    def test_put_supersedes_versions_published_after_its_open(self):
        st = store(Semantics.OBJECT)
        st.write(0, 0, b"aaaa", 1.0)
        st.write(1, 4, b"bbbb", 1.5)
        st.publish(0, 2.0, opened_at=0.5)
        st.publish(1, 3.0, opened_at=0.6)  # racing PUT: 0's update lost
        assert st.settle() == b"\x00" * 4 + b"bbbb"

    def test_put_without_an_open_supersedes_everything(self):
        st = store(Semantics.OBJECT)
        st.write(0, 0, b"aaaa", 1.0)
        st.publish(0, 2.0)
        st.write(1, 4, b"bbbb", 3.0)
        st.publish(1, 4.0)
        assert st.settle() == b"\x00" * 4 + b"bbbb"


class TestEventual:
    def test_visible_after_delay(self):
        st = store(Semantics.EVENTUAL, eventual_delay=10.0)
        st.write(0, 0, b"data", 1.0)
        assert st.read(1, 0, 4, 5.0).is_stale
        out = st.read(1, 0, 4, 12.0)
        assert out.data == b"data" and not out.is_stale


class TestSettlement:
    def test_posix_settle_is_latest_completion(self):
        st = store(Semantics.SESSION)
        st.write(0, 0, b"aaaa", 1.0)
        st.write(1, 0, b"bbbb", 2.0)
        assert st.posix_settle() == b"bbbb"

    def test_ordered_writes_settle_identically_everywhere(self):
        """Published-before-written pairs settle correctly in any order."""
        st = store(Semantics.SESSION)
        st.write(0, 0, b"aaaa", 1.0)
        st.publish(0, 2.0)
        st.write(1, 0, b"bbbb", 3.0)  # after A's publish
        st.publish(1, 4.0)
        assert st.settle("close") == b"bbbb"
        assert st.settle("client") == b"bbbb"
        assert not st.hazard_pairs()

    def test_hazard_pairs_detected(self):
        st = store(Semantics.SESSION)
        st.write(0, 0, b"aaaa", 1.0)
        st.write(1, 0, b"bbbb", 2.0)  # A still unpublished: hazard
        st.publish(0, 3.0)
        st.publish(1, 4.0)
        assert len(st.hazard_pairs()) == 1

    def test_hazardous_writes_settle_differently(self):
        """The nondeterminism: client-order merge picks the stale write."""
        st = store(Semantics.SESSION)
        # later write comes from the LOWER client id
        st.write(1, 0, b"old!", 1.0)
        st.write(0, 0, b"new!", 2.0)
        st.publish(0, 3.0)
        st.publish(1, 4.0)
        assert st.posix_settle() == b"new!"
        assert st.settle("client") == b"old!"  # corruption

    def test_same_client_program_order_respected(self):
        st = store(Semantics.SESSION)
        st.write(0, 0, b"1111", 1.0)
        st.write(0, 0, b"2222", 2.0)
        assert st.settle("close") == b"2222"
        assert st.settle("client") == b"2222"
        assert not st.hazard_pairs()  # same client: never hazardous

    def test_disjoint_writes_never_hazardous(self):
        st = store(Semantics.SESSION)
        st.write(0, 0, b"aaaa", 1.0)
        st.write(1, 4, b"bbbb", 2.0)
        assert not st.hazard_pairs()
        assert st.settle("close") == st.settle("client") == b"aaaabbbb"

    def test_size(self):
        st = store(Semantics.STRONG)
        assert st.size == 0
        st.write(0, 10, b"xy", 1.0)
        assert st.size == 12

    def test_unpublished_commit_point_infinite(self):
        st = store(Semantics.SESSION)
        ext = st.write(0, 0, b"x", 1.0)
        assert math.isinf(ext.commit_point)
