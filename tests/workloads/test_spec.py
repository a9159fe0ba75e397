"""Unit tests for the Table III benchmark surrogates (repro.workloads.spec)."""

import pytest

from repro.util.errors import ConfigurationError
from repro.workloads.spec import (
    TABLE3,
    BenchmarkSpec,
    benchmark,
    mlp_for_apkc,
    paper_profile,
)

#: Table III verbatim: name -> (type, APKC_alone, APKI, intensity)
PAPER_TABLE3 = {
    "lbm": ("FP", 9.38517, 53.1331, "high"),
    "libquantum": ("INT", 6.91693, 34.1188, "middle"),
    "milc": ("FP", 6.87143, 42.2216, "middle"),
    "soplex": ("FP", 6.05614, 37.8789, "middle"),
    "hmmer": ("INT", 5.29083, 4.6008, "middle"),
    "omnetpp": ("INT", 5.18984, 30.5707, "middle"),
    "sphinx3": ("FP", 4.88898, 13.5657, "middle"),
    "leslie3d": ("FP", 4.3855, 7.5847, "middle"),
    "bzip2": ("INT", 3.93331, 5.6413, "low"),
    "gromacs": ("FP", 3.36604, 5.1976, "low"),
    "h264ref": ("INT", 3.04387, 2.2705, "low"),
    "zeusmp": ("FP", 2.42424, 4.521, "low"),
    "gobmk": ("INT", 1.91485, 4.0668, "low"),
    "namd": ("FP", 0.61975, 0.428, "low"),
    "sjeng": ("INT", 0.559802, 0.7906, "low"),
    "povray": ("FP", 0.553825, 0.6977, "low"),
}


class TestTable3Data:
    def test_all_sixteen_benchmarks_present(self):
        assert set(TABLE3) == set(PAPER_TABLE3)

    @pytest.mark.parametrize("name", sorted(PAPER_TABLE3))
    def test_values_match_paper(self, name):
        btype, apkc, apki, intensity = PAPER_TABLE3[name]
        b = TABLE3[name]
        assert b.btype == btype
        assert b.apkc_alone == pytest.approx(apkc)
        assert b.apki == pytest.approx(apki)
        assert b.intensity == intensity

    def test_order_is_descending_apkc(self):
        apkcs = [b.apkc_alone for b in TABLE3.values()]
        assert apkcs == sorted(apkcs, reverse=True)

    def test_derived_quantities(self):
        b = TABLE3["libquantum"]
        assert b.api == pytest.approx(0.0341188)
        assert b.apc_alone_target == pytest.approx(0.00691693)
        assert b.ipc_alone_target == pytest.approx(6.91693 / 34.1188)


class TestSurrogateConstruction:
    def test_core_spec_carries_api(self):
        spec = TABLE3["milc"].core_spec()
        assert spec.api == pytest.approx(0.0422216)
        assert spec.name == "milc"

    def test_paper_profile(self):
        p = paper_profile("gobmk")
        assert p.apc_alone == pytest.approx(0.00191485)
        assert p.api == pytest.approx(0.0040668)

    def test_mlp_classes(self):
        assert mlp_for_apkc(9.0) == 24
        assert mlp_for_apkc(5.0) == 12
        assert mlp_for_apkc(3.0) == 3
        assert mlp_for_apkc(0.5) == 2

    def test_intensive_benchmarks_have_deep_mlp(self):
        for b in TABLE3.values():
            if b.intensity in ("high", "middle"):
                assert b.mlp >= 12, b.name
            else:
                assert b.mlp <= 4, b.name

    def test_lookup_unknown(self):
        with pytest.raises(ConfigurationError):
            benchmark("doom3")

    def test_btype_validation(self):
        with pytest.raises(ConfigurationError):
            BenchmarkSpec(
                name="x", btype="GPU", apkc_alone=1.0, apki=1.0,
                ipc_peak=1.0, write_fraction=0.1, mlp=2,
            )

    def test_demand_exceeds_target(self):
        """Every calibrated surrogate must be able to *demand* at least
        its target rate (ipc_peak >= ipc_alone_target)."""
        for b in TABLE3.values():
            assert b.ipc_peak >= b.ipc_alone_target * 0.999, b.name
