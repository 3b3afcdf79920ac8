"""Chaos suite: deterministic fault injection against the artifact cache.

The ISSUE 6 acceptance property, exercised scenario by scenario: every
corrupt artifact, torn write, transient I/O error, contended lock, or
simulated crash ends in a structured diagnostic (or warning) plus a
successful recompile — never an unstructured crash, a hang, or a wrong
result.
"""

from __future__ import annotations

import os

import pytest

from repro import Runtime
from repro.faults import (
    FaultPlan,
    InjectedCrash,
    fault_bytes,
    fault_point,
)
from repro.modules.cache import MAGIC, ModuleCache, QUARANTINE_DIR

SOURCE = "#lang racket\n(define (sq x) (* x x))\n(displayln (sq 7))\n"
EXPECTED = "49\n"


def cached_runtime(tmp_path, **modules) -> Runtime:
    rt = Runtime(cache_dir=str(tmp_path / "cache"))
    for path, source in modules.items():
        rt.register_module(path, source)
    return rt


def warm_cache(tmp_path) -> str:
    """Run once to populate the cache; returns the artifact path."""
    with cached_runtime(tmp_path, m=SOURCE) as rt:
        assert rt.run("m") == EXPECTED
        [(name, _size)] = rt.cache.entries()
        return os.path.join(rt.cache.dir, name)


class TestPlanMechanics:
    def test_fault_points_are_noops_without_a_plan(self):
        assert ModuleCache("unused").fault_plan is None
        fault_point(None, "cache.read")  # must not raise
        assert fault_bytes(None, "cache.read", b"abc") == b"abc"

    def test_rules_fire_a_bounded_number_of_times(self):
        plan = FaultPlan().rule("s", "fail", times=2)
        for _ in range(2):
            with pytest.raises(OSError):
                fault_point(plan, "s")
        fault_point(plan, "s")  # exhausted: behaves
        assert plan.fired == [("s", "fail"), ("s", "fail")]

    def test_prefix_sites_match(self):
        plan = FaultPlan().rule("cache.*", "fail", times=None)
        with pytest.raises(OSError):
            fault_point(plan, "cache.read")
        with pytest.raises(OSError):
            fault_point(plan, "cache.write")
        fault_point(plan, "other.site")

    def test_a_plan_belongs_to_one_cache(self, tmp_path):
        """Two Runtimes in one process: only the cache that holds the plan
        injects its faults."""
        warm_cache(tmp_path)
        plan = FaultPlan().rule("cache.read", "fail", times=None)
        with cached_runtime(tmp_path, m=SOURCE) as faulty, \
                cached_runtime(tmp_path, m=SOURCE) as clean:
            faulty.cache.fault_plan = plan
            assert clean.run("m") == EXPECTED
            assert clean.stats.cache_hits == 1 and not plan.fired
            assert faulty.run("m") == EXPECTED
            assert faulty.stats.cache_hits == 0
            assert plan.fired == [("cache.read", "fail")] * 3

    def test_garbling_is_deterministic_per_seed(self):
        payload = bytes(range(256)) * 4
        out1 = FaultPlan(seed=42).garble(payload)
        out2 = FaultPlan(seed=42).garble(payload)
        assert out1 == out2 != payload

    def test_injected_crash_skips_except_exception(self):
        with pytest.raises(InjectedCrash):
            try:
                raise InjectedCrash("boom")
            except Exception:  # the platform's degradation paths
                pytest.fail("InjectedCrash must not be caught as Exception")


class TestCorruption:
    """Bad bytes on disk: detected, quarantined (C104), recompiled."""

    @pytest.mark.parametrize("kind", ["garble", "torn"])
    def test_corrupt_read_quarantines_and_recompiles(self, tmp_path, kind):
        warm_cache(tmp_path)
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = FaultPlan(seed=9).rule("cache.read", kind)
            assert rt.run("m") == EXPECTED
            assert any(d.code == "C104" for d in rt.cache.diagnostics)
            assert rt.stats.cache_hits == 0
            qdir = os.path.join(rt.cache.dir, QUARANTINE_DIR)
            assert os.listdir(qdir)
            # the recompile stored a fresh artifact over the quarantined one
            assert rt.stats.cache_stores == 1
        # and the replacement is valid: a later runtime gets a warm hit
        with cached_runtime(tmp_path, m=SOURCE) as rt2:
            assert rt2.run("m") == EXPECTED
            assert rt2.stats.cache_hits == 1

    @pytest.mark.parametrize("kind", ["garble", "torn"])
    def test_corrupt_write_is_caught_on_next_load(self, tmp_path, kind):
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = FaultPlan(seed=5).rule("cache.write", kind)
            assert rt.run("m") == EXPECTED  # the run itself is unharmed
        with cached_runtime(tmp_path, m=SOURCE) as rt2:
            assert rt2.run("m") == EXPECTED
            assert any(d.code == "C104" for d in rt2.cache.diagnostics)

    def test_hand_truncated_artifact(self, tmp_path):
        artifact = warm_cache(tmp_path)
        with open(artifact, "rb") as f:
            data = f.read()
        with open(artifact, "wb") as f:
            f.write(data[: len(MAGIC) + 10])  # cut inside the checksum
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            assert rt.run("m") == EXPECTED
            assert any(d.code == "C104" for d in rt.cache.diagnostics)


class TestTransientIO:
    def test_transient_read_failure_is_retried_to_a_hit(self, tmp_path):
        warm_cache(tmp_path)
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = FaultPlan().rule("cache.read", "fail", times=2)
            assert rt.run("m") == EXPECTED
            assert rt.stats.cache_hits == 1
            assert rt.cache.retries == 2
            assert not rt.cache.diagnostics  # fully recovered: no warning

    def test_persistent_read_failure_degrades_to_recompile(self, tmp_path):
        warm_cache(tmp_path)
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = (
                FaultPlan().rule("cache.read", "fail", times=None)
            )
            assert rt.run("m") == EXPECTED
            assert rt.stats.cache_hits == 0
            assert rt.cache.diagnostics  # warned, structured

    def test_persistent_store_failure_warns_c103(self, tmp_path):
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = (
                FaultPlan().rule("cache.write", "fail", times=None)
            )
            assert rt.run("m") == EXPECTED
            assert any(d.code == "C103" for d in rt.cache.diagnostics)
            assert rt.stats.cache_stores == 0
            # the failed store's temp file was cleaned up
            assert not [
                n for n in os.listdir(rt.cache.dir) if ".tmp." in n
            ]

    def test_unavailable_cache_dir_disables_with_one_c105(self, tmp_path):
        with cached_runtime(tmp_path, a=SOURCE, b="#lang racket\n(displayln 2)\n") as rt:
            rt.cache.fault_plan = (
                FaultPlan().rule("cache.makedirs", "fail", times=None)
            )
            assert rt.run("a") == EXPECTED
            assert rt.run("b") == "2\n"
            assert rt.cache.disabled
            # one warning for the whole session, not one per store
            assert [d.code for d in rt.cache.diagnostics] == ["C105"]


class TestLocking:
    def test_contended_lock_skips_the_store(self, tmp_path):
        fcntl = pytest.importorskip("fcntl")
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            source_hash = rt.registry.source_hash("m")
            artifact = rt.cache.artifact_path("m", "racket", source_hash)
            os.makedirs(rt.cache.dir, exist_ok=True)
            fd = os.open(artifact + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                # the "other writer" holds the lock: the run still succeeds,
                # the store is skipped silently
                assert rt.run("m") == EXPECTED
                assert rt.stats.cache_stores == 0
                assert not rt.cache.diagnostics
            finally:
                os.close(fd)
        assert not os.path.exists(artifact)

    def test_lock_failure_skips_the_store_gracefully(self, tmp_path):
        # two acquisition sites per cold compile since the writer-claim
        # protocol landed: the pre-compile claim and the store itself; when
        # both fail, the run still succeeds and the store is skipped
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = FaultPlan().rule("cache.lock", "fail", times=2)
            assert rt.run("m") == EXPECTED
            assert rt.stats.cache_stores == 0

    def test_lock_failure_at_claim_only_still_stores(self, tmp_path):
        # a transient lock failure at claim time degrades to an unclaimed
        # compile; the store's own acquisition then succeeds and publishes
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            rt.cache.fault_plan = FaultPlan().rule("cache.lock", "fail", times=1)
            assert rt.run("m") == EXPECTED
            assert rt.stats.cache_stores == 1

    def test_lock_is_released_after_store(self, tmp_path):
        artifact = warm_cache(tmp_path)
        assert not os.path.exists(artifact + ".lock")


class TestCrash:
    def test_crash_between_write_and_rename_leaves_recoverable_debris(
        self, tmp_path, live_bindings
    ):
        before = live_bindings()
        rt = cached_runtime(tmp_path, m=SOURCE)
        rt.cache.fault_plan = FaultPlan().rule("cache.replace", "crash")
        with pytest.raises(InjectedCrash):
            rt.run("m")
        cache_dir = rt.cache.dir
        # the "crash" left a torn-write temp file, never a torn artifact
        debris = [n for n in os.listdir(cache_dir) if ".tmp." in n]
        assert debris
        assert not [n for n in os.listdir(cache_dir) if n.endswith(".zo")]
        # the crashed compile left no bindings alive behind it
        rt.close()
        del rt
        assert live_bindings() == before
        # the debris names this (live) process as its writer, so doctor
        # reports it instead of sweeping — safe to run mid-flight
        report = ModuleCache(cache_dir).doctor()
        assert report["tmp_removed"] == []
        assert [name for name, _pid in report["tmp_live"]] == debris
        assert all(pid == os.getpid() for _name, pid in report["tmp_live"])
        # once the writer is gone (simulate: re-stamp with a dead pid),
        # doctor sweeps the debris
        dead = []
        for name in debris:
            stem = name.rsplit(".tmp.", 1)[0]
            dead_name = f"{stem}.tmp.999999999"
            os.rename(
                os.path.join(cache_dir, name), os.path.join(cache_dir, dead_name)
            )
            dead.append(dead_name)
        report = ModuleCache(cache_dir).doctor()
        assert report["tmp_removed"] == dead
        assert not [n for n in os.listdir(cache_dir) if ".tmp." in n]
        # and a fresh process recompiles and stores normally
        with cached_runtime(tmp_path, m=SOURCE) as rt2:
            assert rt2.run("m") == EXPECTED
            assert rt2.stats.cache_stores == 1


class TestDoctor:
    def test_doctor_full_repair_report(self, tmp_path):
        artifact = warm_cache(tmp_path)
        cache_dir = os.path.dirname(artifact)
        # corrupt one artifact, plant torn-write debris and a stale lock
        with open(artifact, "r+b") as f:
            f.seek(len(MAGIC) + 40)
            f.write(b"\x00\x00\x00\x00")
        with open(os.path.join(cache_dir, "dead.zo.tmp.123"), "wb") as f:
            f.write(b"partial")
        with open(os.path.join(cache_dir, "orphan.zo.lock"), "wb"):
            pass
        report = ModuleCache(cache_dir).doctor()
        assert report["scanned"] == 1
        assert report["ok"] == 0
        [(name, why, dest)] = report["quarantined"]
        assert name == os.path.basename(artifact)
        assert os.path.exists(dest)
        assert report["tmp_removed"] == ["dead.zo.tmp.123"]
        assert report["locks_removed"] == ["orphan.zo.lock"]
        assert report["errors"] == []

    def test_doctor_keeps_healthy_artifacts(self, tmp_path):
        artifact = warm_cache(tmp_path)
        report = ModuleCache(os.path.dirname(artifact)).doctor()
        assert (report["scanned"], report["ok"]) == (1, 1)
        assert not report["quarantined"]
        assert os.path.exists(artifact)

    def test_doctor_on_missing_directory_reports_not_raises(self, tmp_path):
        report = ModuleCache(str(tmp_path / "absent")).doctor()
        assert report["errors"]

    def test_cli_cache_doctor(self, tmp_path, capsys, monkeypatch):
        from repro.tools.runner import main

        artifact = warm_cache(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", os.path.dirname(artifact))
        assert main(["cache", "doctor"]) == 0
        out = capsys.readouterr().out
        assert "1 ok" in out
        assert "no problems found" in out
        with open(artifact, "wb") as f:
            f.write(b"garbage")
        assert main(["cache", "doctor"]) == 0
        assert "quarantined" in capsys.readouterr().out


class TestEndToEnd:
    def test_chaos_storm_never_breaks_results(self, tmp_path):
        """A multi-fault plan across several runs: outputs stay correct and
        every degradation is structured."""
        plan = (
            FaultPlan(seed=1234)
            .rule("cache.write", "garble", times=1)
            .rule("cache.read", "fail", times=2)
            .rule("cache.makedirs", "delay", times=1, delay=0.001)
        )
        outputs = []
        for _ in range(4):
            with cached_runtime(tmp_path, m=SOURCE) as rt:
                rt.cache.fault_plan = plan
                outputs.append(rt.run("m"))
                for diag in rt.cache.diagnostics:
                    assert diag.severity == "warning"
                    assert diag.code.startswith("C1")
        assert outputs == [EXPECTED] * 4
        # the storm is over: the cache settles into steady warm hits
        with cached_runtime(tmp_path, m=SOURCE) as rt:
            assert rt.run("m") == EXPECTED
            assert rt.stats.cache_hits == 1
