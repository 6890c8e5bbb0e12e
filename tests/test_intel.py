"""Unit tests for the VT / HA threat-intelligence substrates."""

import datetime

import pytest

from repro.intel.ha import HaService
from repro.intel.vt import AV_VENDORS, AvReport, VtService
from repro.sandbox.emulator import SandboxReport
from repro.netsim.flows import FlowRecord

D = datetime.date


def report(sha="s1", n_detections=12, label="Trojan.CoinMiner.xx",
           detected_on=D(2018, 1, 1), **kwargs):
    detections = {
        vendor: (label, detected_on)
        for vendor in AV_VENDORS[:n_detections]
    }
    return AvReport(sha256=sha, detections=detections, **kwargs)


class TestAvReport:
    def test_positives(self):
        assert report(n_detections=15).positives() == 15

    def test_positives_grow_over_time(self):
        detections = {
            AV_VENDORS[0]: ("Miner.x", D(2018, 1, 1)),
            AV_VENDORS[1]: ("Miner.y", D(2018, 6, 1)),
        }
        r = AvReport(sha256="s", detections=detections)
        assert r.positives(D(2018, 3, 1)) == 1
        assert r.positives(D(2018, 12, 1)) == 2
        assert r.positives() == 2

    def test_miner_label_count(self):
        assert report(n_detections=11).miner_label_count() == 11
        generic = report(label="Trojan.Generic.abc")
        assert generic.miner_label_count() == 0

    def test_miner_label_variants(self):
        for label in ["Win32.BitcoinMiner.x", "Riskware.CoinMine",
                      "Trojan.Cryptonight"]:
            assert report(label=label).miner_label_count() > 0


class TestVtService:
    def test_store_and_get(self):
        vt = VtService()
        vt.add_report(report())
        assert vt.get_report("s1").sha256 == "s1"
        assert vt.get_report("missing") is None
        assert len(vt) == 1

    def test_rate_limit(self):
        """The paper's '~19?' artifact: queries fail past the limit."""
        vt = VtService(rate_limit=2)
        vt.add_report(report())
        assert vt.get_report("s1") is not None
        assert vt.get_report("s1") is not None
        assert vt.get_report("s1") is None

    def test_search_by_contacted_domain(self):
        vt = VtService()
        vt.add_report(report("s1", contacted_domains=["pool.minexmr.com"]))
        vt.add_report(report("s2", contacted_domains=["other.example"]))
        hits = vt.search_by_contacted_domain("minexmr.com")
        assert [r.sha256 for r in hits] == ["s1"]

    def test_search_miner_labeled(self):
        vt = VtService()
        vt.add_report(report("s1", n_detections=15))
        vt.add_report(report("s2", n_detections=5))
        hits = vt.search_miner_labeled(min_vendors=10)
        assert [r.sha256 for r in hits] == ["s1"]

    def test_search_min_positives(self):
        vt = VtService()
        vt.add_report(report("s1", n_detections=15))
        vt.add_report(report("s2", n_detections=5))
        assert len(vt.search_min_positives(10)) == 1

    def test_children_of(self):
        vt = VtService()
        vt.add_report(report("parent"))
        vt.add_report(report("child", parents=["parent"]))
        assert vt.children_of("parent") == ["child"]
        assert vt.children_of("child") == []

    def test_children_index_matches_linear_scan(self, small_world):
        def scan(vt, sha):
            return [r.sha256 for r in vt.reports() if sha in r.parents]

        vt = VtService()
        for r in small_world.vt.reports():
            vt.add_report(r)
        shas = [r.sha256 for r in vt.reports()]
        assert any(scan(vt, sha) for sha in shas), "world has no droppers"
        for sha in shas:
            assert vt.children_of(sha) == scan(vt, sha)
        # a report stored after the first call: a new child of an
        # existing dropper, listing it twice, then a replaced report
        parent = next(sha for sha in shas if scan(vt, sha))
        vt.add_report(report("late", parents=[parent, parent]))
        vt.add_report(report(shas[0], parents=[parent]))
        for sha in shas + ["late"]:
            assert vt.children_of(sha) == scan(vt, sha)
        assert vt.children_of(parent)[-1] == "late"


class TestHaService:
    def _report(self, sha="h1", host="pool.minexmr.com"):
        r = SandboxReport(sample_sha256=sha)
        r.flows.record(FlowRecord(host, "10.0.0.1", 4444, "stratum",
                                  login="W"))
        return r

    def test_publish_and_get(self):
        ha = HaService()
        ha.publish(self._report())
        assert ha.get_report("h1") is not None
        assert "h1" in ha
        assert len(ha) == 1

    def test_search_stratum_hosts(self):
        ha = HaService()
        ha.publish(self._report("h1", "pool.minexmr.com"))
        ha.publish(self._report("h2", "other.pool"))
        assert ha.search_stratum_hosts("pool.minexmr.com") == ["h1"]
