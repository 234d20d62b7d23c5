"""Tests for the Figure 1 taxonomy, performance contracts and workload
generators."""

import pytest

from repro.contract import (
    ContractTerm,
    PerformanceContract,
    characterize_device,
)
from repro.errors import ContractViolation, ReproError
from repro.landscape import (
    FTL_ABSTRACTIONS,
    FTL_PLACEMENTS,
    SSD_MODELS,
    FtlAbstraction,
    FtlPlacement,
    FtlTransparency,
    figure1_grid,
    models_in_quadrant,
    render_figure1,
)
from repro.nand import CellType, FlashGeometry, timing_for
from repro.ocssd import DeviceGeometry, OpenChannelSSD
from repro.lsm import DB, DBConfig, DbBench, MemEnv
from repro.sim import Simulator
from repro.workloads import RandomWriteWorkload, ZipfianKeyChooser
from repro.units import MIB


class TestLandscape:
    def test_every_model_placed(self):
        grid = figure1_grid()
        placed = sum(len(models) for models in grid.values())
        assert placed == len(SSD_MODELS) == 13

    def test_traditional_and_smartssd_share_a_quadrant(self):
        """§3.1: 'traditional SSDs and SmartSSD are in the same quadrant'."""
        quadrant = models_in_quadrant(FtlAbstraction.BLOCK_DEVICE,
                                      FtlPlacement.CONTROLLER)
        names = {model.name for model in quadrant}
        assert "Traditional SSDs" in names
        assert "Smart SSD" in names

    def test_ox_ftls_are_controller_side_white_boxes(self):
        for name in ("OX-Block", "OX-Eleos, LightLSM"):
            model = next(m for m in SSD_MODELS if m.name == name)
            assert model.placement is FtlPlacement.CONTROLLER
            assert model.transparency is FtlTransparency.WHITE_BOX

    def test_unavailable_models_flagged(self):
        unavailable = {m.name for m in SSD_MODELS if not m.available}
        assert unavailable == {"LightNVM target for ZNS", "ZNS SSD",
                               "OX-ZNS"}

    def test_every_quadrant_column_covered(self):
        """Open-Channel-based designs appear in all three abstraction
        columns (§3.2: OCSSDs 'appear in all the quadrants')."""
        for abstraction in FTL_ABSTRACTIONS:
            assert any(models_in_quadrant(abstraction, placement)
                       for placement in FTL_PLACEMENTS)

    def test_render_contains_all_models(self):
        text = render_figure1()
        for model in SSD_MODELS:
            assert model.name.split(",")[0] in text

    def test_dimensions_exposed(self):
        model = SSD_MODELS[0]
        dims = model.dimensions()
        assert set(dims) == {"abstraction", "placement", "chips",
                             "integration", "transparency", "access"}


def small_device():
    geometry = DeviceGeometry(
        num_groups=2, pus_per_group=2,
        flash=FlashGeometry(blocks_per_plane=8, pages_per_block=6))
    return OpenChannelSSD(geometry=geometry)


class TestPerformanceContract:
    def test_characterization_produces_metrics(self):
        metrics = characterize_device(small_device(), samples=8)
        assert metrics["write_unit_mean"] > 0
        assert metrics["read_sector_mean"] > 0
        assert metrics["read_sector_p99"] >= metrics["read_sector_mean"]
        assert metrics["endurance"] > 0

    def test_satisfied_contract_passes(self):
        metrics = characterize_device(small_device(), samples=8)
        contract = PerformanceContract([
            ContractTerm("read_sector_p99", metrics["read_sector_p99"] * 2),
            ContractTerm("write_unit_mean", metrics["write_unit_mean"] * 2),
        ])
        report = contract.check(metrics)
        assert report.passed
        report.require()   # no raise

    def test_violated_contract_reports_term(self):
        metrics = characterize_device(small_device(), samples=8)
        contract = PerformanceContract([
            ContractTerm("read_sector_p99",
                         metrics["read_sector_p99"] / 1e3,
                         "ultra-low-latency clause"),
        ])
        report = contract.check(metrics)
        assert not report.passed
        assert "read_sector_p99" in report.violations[0]
        with pytest.raises(ContractViolation):
            report.require()

    def test_unmeasured_metric_is_a_violation(self):
        contract = PerformanceContract([ContractTerm("made_up", 1.0)])
        assert not contract.check({}).passed

    def test_wear_aware_characterization(self):
        """§5: contracts taking wear into account.  The endurance term is
        the cell's rated erase budget, and an aged device measures the
        same envelope as a fresh one: wear fails only an erase past the
        endurance, it slows nothing."""
        fresh = characterize_device(small_device(), samples=8)
        device = small_device()
        for chip in device.chips.values():
            chip.erase_counts[:] = [2500] * len(chip.erase_counts)
        aged = characterize_device(device, samples=8)
        assert aged == fresh
        assert aged["endurance"] == CellType.TLC.endurance
        contract = PerformanceContract([
            ContractTerm("endurance", 5000, "TLC-class endurance cap")])
        assert contract.check(aged).passed

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            PerformanceContract([ContractTerm("x", 1.0),
                                 ContractTerm("x", 2.0)])


class TestWorkloads:
    def test_kv_generator_deterministic(self):
        sim = Simulator()
        generator = DbBench(DB(MemEnv(sim), DBConfig(), sim))
        assert generator.key(42) == generator.key(42)
        assert len(generator.key(42)) == 16
        assert len(generator.value(42)) == 1024

    def test_random_write_sizes_bounded(self):
        """Figure 3 workload: random writes of up to 1 MB."""
        workload = RandomWriteWorkload(lba_space=10_000, seed=1)
        ops = list(workload.operations(200))
        assert len(ops) == 200
        max_sectors = MIB // 4096
        assert all(1 <= op.num_sectors <= max_sectors for op in ops)
        assert all(0 <= op.lba < 10_000 for op in ops)
        assert all(op.lba + op.num_sectors <= 10_000 for op in ops)

    def test_random_write_deterministic_per_seed(self):
        first = list(RandomWriteWorkload(10_000, seed=7).operations(50))
        second = list(RandomWriteWorkload(10_000, seed=7).operations(50))
        assert first == second
        other = list(RandomWriteWorkload(10_000, seed=8).operations(50))
        assert first != other

    def test_payload_size(self):
        op = next(iter(RandomWriteWorkload(10_000, seed=1).operations(1)))
        assert len(op.payload(4096)) == op.num_sectors * 4096

    def test_zipfian_skew(self):
        chooser = ZipfianKeyChooser(key_space=1000, theta=0.99, seed=3)
        samples = chooser.sample(5000)
        assert all(0 <= s < 1000 for s in samples)
        head = sum(1 for s in samples if s < 10)
        assert head > 0.2 * len(samples)   # heavy head

    def test_zipfian_parameters_validated(self):
        with pytest.raises(ReproError, match="key_space"):
            ZipfianKeyChooser(0)
        with pytest.raises(ReproError, match="theta"):
            ZipfianKeyChooser(10, theta=2.5)
