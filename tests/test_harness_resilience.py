"""Tests for the fault-tolerant harness execution layer.

Covers the deterministic fault-injection framework
(:mod:`repro.utils.faultinject`), the crash-safe checkpoint journal,
retry/backoff with error classification, per-cell timeouts with serial
degradation, and the acceptance contracts: a sweep whose worker is
killed mid-run recovers records *bitwise* identical to a clean run, and
a sweep with one deterministically-failing cell finishes the rest and
surfaces the failure as a structured record.

Tests that kill worker processes on purpose carry the
``fault_injection`` marker; CI runs them serialized.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.geometry import Rect
from repro.harness import RunSettings, run_matrix, sweep_health, table3
from repro.harness.cli import build_parser
from repro.harness.resilience import (
    CellTimeout,
    CheckpointJournal,
    RecordCodec,
    RetryPolicy,
    classify_error,
    default_cell_timeout,
    default_max_retries,
    execute_cells,
    sweep_fingerprint,
)
from repro.harness.runner import RunRecord
from repro.layouts import Clip, Dataset
from repro.layouts.synth import ClipStyle
import repro.autodiff as ad
from repro.autodiff import functional as F
from repro.optics import AbbeImaging, OpticalConfig, fftlib
from repro.utils import faultinject as fi

METHODS = ("NILT", "Abbe-MO")


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    """Every test starts and ends with fault injection disabled."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    fi.clear_plan()
    yield
    fi.clear_plan()


def _tiny_dataset(n_clips: int = 2) -> Dataset:
    clips = tuple(
        Clip(
            name=f"c{i}",
            rects=(Rect(100 + 30 * i, 100, 300, 180),),
            cd_nm=32,
            tile_nm=500,
        )
        for i in range(n_clips)
    )
    style = ClipStyle(name="T", cd_nm=32, tile_nm=500, target_area_nm2=20000)
    return Dataset(name="TINY", clips=clips, style=style)


def _settings(iterations: int = 2) -> RunSettings:
    return RunSettings(
        config=OpticalConfig.preset("tiny"),
        iterations=iterations,
        num_kernels=8,
        unroll_steps=1,
        terms=2,
    )


def _assert_records_identical(serial, parallel):
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert (a.method, a.dataset, a.clip) == (b.method, b.dataset, b.clip)
        assert a.l2_nm2 == b.l2_nm2
        assert a.pvb_nm2 == b.pvb_nm2
        assert a.epe_violations == b.epe_violations
        assert a.epe_mean_nm == b.epe_mean_nm
        assert a.final_loss == b.final_loss
        assert a.losses.tobytes() == b.losses.tobytes()


# ----------------------------------------------------------------------
# fault-injection framework
# ----------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_unknown_point_rejected(self):
        with pytest.raises(fi.FaultError, match="unknown fault point"):
            fi.parse_plan("harness.bogus@1=kill")

    def test_unknown_action_rejected(self):
        with pytest.raises(fi.FaultError, match="unknown action"):
            fi.parse_plan("harness.run_cell@1=explode")

    def test_unknown_exception_rejected(self):
        with pytest.raises(fi.FaultError, match="unknown exception"):
            fi.parse_plan("harness.run_cell@1=raise:KeyboardInterrupt")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(fi.FaultError, match="probability"):
            fi.parse_plan("harness.run_cell?1.5=kill")

    def test_kill_takes_no_argument(self):
        with pytest.raises(fi.FaultError, match="no argument"):
            fi.parse_plan("harness.run_cell@1=kill:9")

    def test_multi_entry_plan(self):
        plan = fi.parse_plan(
            "harness.run_cell@2=raise:MemoryError;"
            "cache.warmup?0.5=delay:0.01|seed=7"
        )
        assert len(plan.specs) == 2
        assert plan.specs[0].hit == 2
        assert plan.specs[1].probability == 0.5
        assert plan.specs[1].seed == 7


class TestFaultPlanFiring:
    def test_exact_hit_fires_once(self):
        fi.install_plan("harness.run_cell@2=raise:ValueError")
        fi.fault_point("harness.run_cell")  # visit 1: no fire
        with pytest.raises(ValueError, match="injected"):
            fi.fault_point("harness.run_cell")  # visit 2: fires
        fi.fault_point("harness.run_cell")  # visit 3: no fire

    def test_persistent_hit_fires_from_n_onward(self):
        fi.install_plan("harness.run_cell@2+=raise:MemoryError")
        fi.fault_point("harness.run_cell")
        for _ in range(3):
            with pytest.raises(MemoryError):
                fi.fault_point("harness.run_cell")

    def test_points_count_independently(self):
        fi.install_plan("harness.run_cell@1=raise:ValueError")
        fi.fault_point("cache.warmup")  # different point: no fire
        with pytest.raises(ValueError):
            fi.fault_point("harness.run_cell")

    def test_probabilistic_mode_is_seeded(self):
        text = "harness.run_cell?0.5=raise:ValueError|seed=3"

        def firing_pattern():
            plan = fi.parse_plan(text)
            pattern = []
            for _ in range(24):
                try:
                    plan.visit("harness.run_cell")
                    pattern.append(False)
                except ValueError:
                    pattern.append(True)
            return pattern

        first, second = firing_pattern(), firing_pattern()
        assert first == second  # replays identically
        assert any(first) and not all(first)  # actually probabilistic

    def test_fuse_is_single_shot_across_plans(self, tmp_path):
        fuse = tmp_path / "fuse"
        text = f"harness.run_cell@1=raise:ValueError|fuse={fuse}"
        plan_a, plan_b = fi.parse_plan(text), fi.parse_plan(text)
        with pytest.raises(ValueError):
            plan_a.visit("harness.run_cell")
        assert fuse.exists()
        plan_b.visit("harness.run_cell")  # fuse burnt: no fire

    def test_no_plan_is_a_noop(self):
        fi.clear_plan()
        fi.fault_point("harness.run_cell")  # must not raise

    def test_env_reload(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "harness.run_cell@1=raise:OSError")
        fi.reload_from_env()
        with pytest.raises(OSError):
            fi.fault_point("harness.run_cell")


# ----------------------------------------------------------------------
# error taxonomy + policy + env defaults
# ----------------------------------------------------------------------
class TestClassification:
    def test_taxonomy(self):
        assert classify_error(MemoryError()) == "transient"
        assert classify_error(EOFError()) == "transient"
        assert classify_error(OSError()) == "transient"
        assert classify_error(ValueError("solver bug")) == "deterministic"
        assert classify_error(KeyError("method")) == "deterministic"
        assert classify_error(CellTimeout("late")) == "timeout"

    def test_policy_budgets(self):
        policy = RetryPolicy(max_retries=3)
        assert policy.retries_for("transient") == 3
        assert policy.retries_for("timeout") == 3
        assert policy.retries_for("deterministic") == 1  # fail fast

    def test_backoff_is_deterministic_and_growing(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, jitter=0.25)
        a1, a2 = policy.backoff(5, 1), policy.backoff(5, 2)
        assert policy.backoff(5, 1) == a1  # seeded jitter replays
        assert 0.1 <= a1 <= 0.125
        assert a2 > a1

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_CELL_TIMEOUT", raising=False)
        assert default_max_retries() == 2
        assert default_cell_timeout() == 0.0
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1.5")
        assert default_max_retries() == 5
        assert default_cell_timeout() == 1.5
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ValueError):
            default_max_retries()


# ----------------------------------------------------------------------
# checkpoint journal
# ----------------------------------------------------------------------
def _toy_codec() -> RecordCodec:
    def failure(cell, status, error, attempts):
        return [{"cell": cell, "status": status, "error": error, "attempts": attempts}]

    def stamp(records, status, attempts, error):
        for rec in records:
            rec["status"] = status
            rec["attempts"] = attempts
            rec["error"] = error

    return RecordCodec(
        encode=lambda records: records,
        decode=lambda payload: payload,
        failure=failure,
        stamp=stamp,
    )


class TestCheckpointJournal:
    def test_round_trip_keeps_completed_cells(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        labels = ["a", "b", "c"]
        codec = _toy_codec()
        outcomes = execute_cells(
            [10, 20, 30], labels, lambda c: [{"cell": c}], codec, checkpoint=path
        )
        assert [o.status for o in outcomes] == ["ok"] * 3
        journal = CheckpointJournal(path, labels)
        assert sorted(journal.completed) == [0, 1, 2]
        journal.close()

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        labels = ["a", "b"]
        execute_cells([1, 2], labels, lambda c: [{"cell": c}], _toy_codec(),
                      checkpoint=path)
        with open(path, "a") as fh:
            fh.write('{"cell": 1, "status"')  # crash mid-append
        journal = CheckpointJournal(path, labels)
        assert sorted(journal.completed) == [0, 1]
        journal.close()

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        labels = ["a"]
        with CheckpointJournal(path, labels):
            pass
        text = path.read_text()
        path.write_text(text + "not json\n" + json.dumps({"cell": 0}) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            CheckpointJournal(path, labels)

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        with CheckpointJournal(path, ["a", "b"]):
            pass
        with pytest.raises(ValueError, match="different sweep"):
            CheckpointJournal(path, ["a", "b", "c"])

    def test_failed_entries_rerun_on_resume(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        labels = ["a", "b"]
        codec = _toy_codec()

        def failing(cell):
            if cell == 2:
                raise ValueError("deterministic solver bug")
            return [{"cell": cell}]

        outcomes = execute_cells(
            [1, 2], labels, failing, codec, checkpoint=path,
            policy=RetryPolicy(max_retries=1, backoff_base=0.001),
        )
        assert [o.status for o in outcomes] == ["ok", "failed"]
        journal = CheckpointJournal(path, labels)
        assert sorted(journal.completed) == [0]  # failed cell is not done
        journal.close()

    def test_fingerprint_is_order_sensitive(self):
        assert sweep_fingerprint(["a", "b"]) != sweep_fingerprint(["b", "a"])


class TestRecordSerialization:
    def test_run_record_round_trips_bitwise(self):
        rng = np.random.default_rng(7)
        rec = RunRecord(
            method="BiSMO-NMN",
            dataset="TINY",
            clip="c0",
            l2_nm2=rng.standard_normal() * 1e4,
            pvb_nm2=rng.standard_normal() * 1e3,
            epe_violations=3,
            epe_mean_nm=float("nan"),
            runtime_s=0.123456789123456789,
            final_loss=rng.standard_normal(),
            losses=rng.standard_normal(17),
            attempts=2,
        )
        revived = RunRecord.from_json(json.loads(json.dumps(rec.to_json())))
        assert revived.method == rec.method
        assert revived.l2_nm2 == rec.l2_nm2
        assert revived.pvb_nm2 == rec.pvb_nm2
        assert np.isnan(revived.epe_mean_nm)
        assert revived.runtime_s == rec.runtime_s
        assert revived.final_loss == rec.final_loss
        assert revived.losses.tobytes() == rec.losses.tobytes()
        assert revived.attempts == 2 and revived.status == "ok"


# ----------------------------------------------------------------------
# the resilient executor (serial paths, toy cells)
# ----------------------------------------------------------------------
class TestExecutorSerial:
    def test_deterministic_failure_is_structured_not_fatal(self):
        def run_one(cell):
            if cell == "bad":
                raise ValueError("solver exploded")
            return [{"cell": cell}]

        outcomes = execute_cells(
            ["a", "bad", "b"], ["a", "bad", "b"], run_one, _toy_codec(),
            policy=RetryPolicy(max_retries=2, backoff_base=0.001),
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        failed = outcomes[1]
        assert failed.attempts == 2  # one retry, then fail fast
        assert "ValueError" in failed.error
        assert failed.records[0]["status"] == "failed"

    def test_transient_failure_retries_to_success(self):
        calls = {"n": 0}

        def run_one(cell):
            calls["n"] += 1
            if calls["n"] == 1:
                raise MemoryError("transient pressure")
            return [{"cell": cell}]

        outcomes = execute_cells(
            ["only"], ["only"], run_one, _toy_codec(),
            policy=RetryPolicy(max_retries=2, backoff_base=0.001),
        )
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2
        assert outcomes[0].records[0]["attempts"] == 2

    def test_resume_skips_journaled_cells(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        labels = ["a", "b", "c"]
        codec = _toy_codec()
        first = execute_cells(
            [1, 2, 3], labels, lambda c: [{"cell": c}], codec, checkpoint=path
        )

        def must_not_run(cell):
            raise AssertionError("resumed run must not re-execute cells")

        second = execute_cells([1, 2, 3], labels, must_not_run, codec,
                               checkpoint=path)
        assert [o.records for o in second] == [o.records for o in first]


# ----------------------------------------------------------------------
# run_matrix integration
# ----------------------------------------------------------------------
class TestRunMatrixResilience:
    def test_failing_cell_yields_structured_record_and_sweep_finishes(self):
        ds = _tiny_dataset(2)
        records = run_matrix(
            [ds], _settings(), methods=("NILT", "NO-SUCH-METHOD"),
            max_retries=1,
        )
        assert len(records) == 4  # 2 clips x 2 methods, nothing dropped
        by_method = {}
        for rec in records:
            by_method.setdefault(rec.method, []).append(rec)
        assert all(r.ok for r in by_method["NILT"])
        failed = by_method["NO-SUCH-METHOD"]
        assert all(r.status == "failed" for r in failed)
        assert all("KeyError" in r.error for r in failed)
        assert all(np.isnan(r.l2_nm2) for r in failed)
        # metric tables skip the failures instead of averaging NaNs
        t3 = table3(records)
        assert all(np.isfinite(v) for v in t3.row("TINY"))
        # ... and the sweep-health table keeps them visible
        health = sweep_health(records)
        assert health.row("TINY/NO-SUCH-METHOD")[health.columns.index("failed")] == 2.0

    def test_checkpoint_resume_reproduces_serial_records_bitwise(self, tmp_path):
        ds = _tiny_dataset(2)
        settings = _settings()
        baseline = run_matrix([ds], settings, methods=METHODS)
        path = tmp_path / "sweep.jsonl"
        first = run_matrix(
            [ds], settings, methods=METHODS, checkpoint=path, max_retries=0
        )
        _assert_records_identical(baseline, first)
        # amputate the journal down to header + 2 completed cells,
        # as if the sweep had crashed halfway
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n")
        seen = []
        resumed = run_matrix(
            [ds], settings, methods=METHODS, checkpoint=path,
            max_retries=0, progress=seen.append,
        )
        _assert_records_identical(baseline, resumed)
        # only the 2 un-journaled cells re-ran (one start event each)
        assert len([e for e in seen if e.status == "start"]) == 2

    @pytest.mark.fault_injection
    def test_worker_death_recovers_bitwise(self, tmp_path, monkeypatch):
        ds = _tiny_dataset(2)
        settings = _settings()
        baseline = run_matrix([ds], settings, methods=METHODS)
        fuse = tmp_path / "kill.fuse"
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", f"harness.run_cell@1=kill|fuse={fuse}"
        )
        # parse now so forked workers inherit the plan (and a worker's
        # first cell visit reads REPRO_FAULT_PLAN lazily regardless)
        fi.reload_from_env()
        recovered = run_matrix([ds], settings, methods=METHODS, workers=2)
        assert fuse.exists()  # the kill really fired
        _assert_records_identical(baseline, recovered)
        assert all(r.ok for r in recovered)


# ----------------------------------------------------------------------
# timeouts + degradation (toy pool cells)
# ----------------------------------------------------------------------
def _toy_pool_cell(cell):
    """Top-level pool task: (name, sleep_s) -> one toy record."""
    fi.fault_point("harness.run_cell")
    name, sleep_s = cell
    if sleep_s:
        time.sleep(sleep_s)
    return [{"cell": name}]


class TestTimeoutsAndDegradation:
    @pytest.mark.fault_injection
    def test_overdue_cell_times_out_others_survive(self):
        cells = [("fast1", 0.0), ("stuck", 30.0), ("fast2", 0.0)]
        labels = [c[0] for c in cells]
        outcomes = execute_cells(
            cells,
            labels,
            _toy_pool_cell,
            _toy_codec(),
            workers=2,
            pool_factory=lambda: ProcessPoolExecutor(max_workers=2),
            policy=RetryPolicy(max_retries=0, backoff_base=0.001),
            cell_timeout=1.0,
            poll_interval=0.02,
        )
        by_label = {o.label: o for o in outcomes}
        assert by_label["stuck"].status == "timeout"
        assert "wall-clock budget" in by_label["stuck"].error
        assert by_label["fast1"].status == "ok"
        assert by_label["fast2"].status == "ok"

    @pytest.mark.fault_injection
    def test_repeated_pool_breakage_degrades_to_serial(self):
        # every worker dies on its first cell, every round: the pool can
        # never make progress, so the executor must fall back to serial
        cells = [("a", 0.0), ("b", 0.0), ("c", 0.0)]
        labels = [c[0] for c in cells]
        messages = []
        outcomes = execute_cells(
            cells,
            labels,
            _toy_pool_cell,
            _toy_codec(),
            workers=2,
            pool_factory=lambda: ProcessPoolExecutor(
                max_workers=2,
                initializer=fi.install_plan,
                initargs=("harness.run_cell@1+=kill",),
            ),
            policy=RetryPolicy(max_retries=1, backoff_base=0.001),
            max_pool_rebuilds=1,
            poll_interval=0.02,
            progress=messages.append,
        )
        assert [o.status for o in outcomes] == ["ok"] * 3
        # pool-breakage victims are not charged attempts
        assert [o.attempts for o in outcomes] == [1, 1, 1]
        assert any("degrading to serial" in str(m) for m in messages)


# ----------------------------------------------------------------------
# fftlib chunk fallback
# ----------------------------------------------------------------------
class TestChunkFallback:
    def test_memory_error_halves_chunk_once(self):
        fi.install_plan("fftlib.stream_chunk@1=raise:MemoryError")
        calls = []

        def fn(csize):
            calls.append(csize)
            return csize

        assert fftlib.run_with_chunk_fallback(fn, 8) == 4  # injected, halved
        assert fftlib.run_with_chunk_fallback(fn, 8) == 8  # visit 2: clean
        assert calls == [4, 8]

    def test_second_memory_error_propagates(self):
        fi.install_plan("fftlib.stream_chunk@1+=raise:MemoryError")

        def fn(csize):
            raise AssertionError("unreachable: the fault fires first")

        with pytest.raises(MemoryError):
            fftlib.run_with_chunk_fallback(fn, 8)

    def test_chunk_one_propagates(self):
        def fn(csize):
            raise MemoryError("genuine exhaustion")

        with pytest.raises(MemoryError):
            fftlib.run_with_chunk_fallback(fn, 1)

    def test_nominal_aerial_survives_memory_error(self):
        """Nominal imaging is the one-condition stack, so a MemoryError
        in its streamed block halves the chunk and retries instead of
        failing; the image and both gradients stay chunk-invariant."""
        cfg = OpticalConfig.preset("tiny")
        engine = AbbeImaging(cfg)
        rng = np.random.default_rng(5)
        masks = rng.uniform(size=(2, cfg.mask_size, cfg.mask_size))
        source = rng.uniform(size=(cfg.source_size, cfg.source_size))

        def image_and_grads():
            mt = ad.Tensor(masks, requires_grad=True)
            st = ad.Tensor(source, requires_grad=True)
            with fftlib.use(chunk=4):
                image = engine.aerial(mt, st)
                gm, gs = ad.grad(F.sum(F.power(image, 2.0)), [mt, st])
            return image.data, gm.data, gs.data

        clean = image_and_grads()
        fi.install_plan("fftlib.stream_chunk@1=raise:MemoryError")
        faulted = image_and_grads()
        assert fi.active_plan().visits("fftlib.stream_chunk") >= 1
        for got, want in zip(faulted, clean):
            np.testing.assert_allclose(got, want, atol=1e-13)

    def test_intensity_basis_survives_memory_error(self):
        """The source-intensity basis streams over source-axis chunks
        under the same fallback; every plane is transformed on its own,
        so the halved-chunk retry rebuilds the identical basis."""
        cfg = OpticalConfig.preset("tiny")
        engine = AbbeImaging(cfg)
        masks = np.random.default_rng(6).uniform(
            size=(2, cfg.mask_size, cfg.mask_size)
        )
        clean = engine.source_intensity_basis(masks)
        fi.install_plan("fftlib.stream_chunk@1=raise:MemoryError")
        faulted = engine.source_intensity_basis(masks)
        assert fi.active_plan().visits("fftlib.stream_chunk") == 2
        np.testing.assert_array_equal(faulted, clean)


# ----------------------------------------------------------------------
# CLI flags
# ----------------------------------------------------------------------
class TestCLIFlags:
    def test_resilience_flags_parse(self, tmp_path):
        args = build_parser().parse_args(
            [
                "table3",
                "--resume", str(tmp_path / "j.jsonl"),
                "--cell-timeout", "30",
                "--max-retries", "1",
            ]
        )
        assert args.resume == tmp_path / "j.jsonl"
        assert args.cell_timeout == 30.0
        assert args.max_retries == 1

    def test_pwindow_has_resume(self, tmp_path):
        args = build_parser().parse_args(
            ["pwindow", "--resume", str(tmp_path / "j.jsonl")]
        )
        assert args.resume == tmp_path / "j.jsonl"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["table4"])
        assert args.resume is None
        assert args.cell_timeout is None
        assert args.max_retries is None
