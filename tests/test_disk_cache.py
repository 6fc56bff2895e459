"""Persistent disk cache: hits, misses, eviction, corruption, tiering.

Covers the PR-4 cache satellite: `DiskExpectationCache` basics (atomic
writes, LRU byte-bounded eviction, corrupt-entry recovery, cross-"process"
persistence via fresh instances), `TieredExpectationCache` promotion, the
content-addressed noise tokens that make keys disk-stable, and the
executor-level cold-vs-warm contract: a warm re-run of a deterministic
workload spends **zero** simulator invocations, proven by the cache-hit
counters.
"""

import os
import pickle

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.execution import (DiskExpectationCache, ExecutionPolicy, Executor,
                             ExpectationCache, TieredExpectationCache,
                             noise_token)
from repro.execution.disk_cache import key_digest
from repro.operators import ising_hamiltonian
from repro.simulators.noise import NoiseModel, depolarizing_channel


def make_key(tag):
    return ("fingerprint", ("term", b"\x01", b"\x02"), None,
            "statevector", tag, True)


def clifford_circuit(num_qubits):
    qc = QuantumCircuit(num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    return qc


def cx_noise():
    return NoiseModel().add_gate_error(depolarizing_channel(0.05, 2),
                                       ["cx", "cnot"]).add_readout_error(0.01)


class TestKeyDigest:
    def test_digest_is_stable_and_distinct(self):
        assert key_digest(make_key(1)) == key_digest(make_key(1))
        assert key_digest(make_key(1)) != key_digest(make_key(2))
        # Type tags matter: 1 and 1.0 and True are distinct keys.
        assert len({key_digest((1,)), key_digest((1.0,)),
                    key_digest((True,))}) == 3
        # bytes vs str with the same content are distinct.
        assert key_digest((b"ab",)) != key_digest(("ab",))

    def test_rejects_unhashable_content(self):
        with pytest.raises(TypeError):
            key_digest((object(),))


class TestDiskExpectationCache:
    def test_miss_then_hit(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        assert cache.get(make_key(1)) is None
        cache.put(make_key(1), 0.25)
        assert cache.get(make_key(1)) == 0.25
        stats = cache.stats
        assert stats.hits == 1 and stats.misses == 1 and stats.writes == 1

    def test_persists_across_instances(self, tmp_path):
        DiskExpectationCache(tmp_path).put(make_key(1), -1.5)
        fresh = DiskExpectationCache(tmp_path)  # a "new process"
        assert fresh.get(make_key(1)) == -1.5

    def test_get_many_put_many(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        cache.put_many([(make_key(i), float(i)) for i in range(4)])
        values = cache.get_many([make_key(i) for i in range(6)])
        assert values == [0.0, 1.0, 2.0, 3.0, None, None]

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        for i in range(16):
            cache.put(make_key(i), float(i))
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()
                     and p.name.startswith(".tmp-")]
        assert leftovers == []

    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(1), 0.5)
        [entry] = [p for p in tmp_path.rglob("*.expv")]
        entry.write_bytes(b"not a pickle")
        assert cache.get(make_key(1)) is None
        assert cache.stats.corrupt == 1
        assert not entry.exists()  # bad entry no longer serveable...
        quarantined = entry.with_name(".corrupt-" + entry.name)
        assert quarantined.exists()  # ...but preserved for post-mortem
        cache.put(make_key(1), 0.5)  # and the slot is writable again
        assert cache.get(make_key(1)) == 0.5
        # The quarantined file is invisible to entry scans and is purged by
        # clear() along with everything else.
        assert len(cache) == 1
        cache.clear()
        assert not quarantined.exists()

    def test_truncated_entry_recovers_as_miss(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(1), 0.5)
        [entry] = [p for p in tmp_path.rglob("*.expv")]
        entry.write_bytes(entry.read_bytes()[:5])
        assert cache.get(make_key(1)) is None
        assert cache.stats.corrupt == 1

    def test_key_mismatch_treated_as_corrupt(self, tmp_path):
        # A digest collision must not serve a wrong value: plant a valid
        # entry for key 2 at key 1's path.
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(1), 0.5)
        cache.put(make_key(2), 9.0)
        cache._path_for(make_key(1)).write_bytes(
            cache._path_for(make_key(2)).read_bytes())
        assert cache.get(make_key(1)) is None
        assert cache.stats.corrupt == 1
        assert cache.get(make_key(2)) == 9.0

    def test_foreign_pickle_bytes_are_inert(self, tmp_path):
        # Entries are a plain binary format, never unpickled: a planted
        # pickle payload (the classic shared-volume attack) reads as
        # corrupt and is deleted without ever being deserialized.
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(1), 0.5)
        [entry] = [p for p in tmp_path.rglob("*.expv")]
        entry.write_bytes(pickle.dumps((make_key(1), 9.0)))
        assert cache.get(make_key(1)) is None
        assert cache.stats.corrupt == 1
        assert not entry.exists()
        assert entry.with_name(".corrupt-" + entry.name).exists()

    def test_lru_eviction_respects_touch_order(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        now = 1_000_000_000
        for i in range(6):
            cache.put(make_key(i), float(i))
            os.utime(cache._path_for(make_key(i)), (now + i, now + i))
        # Touch key 0 so it becomes the newest.
        path0 = cache._path_for(make_key(0))
        os.utime(path0, (now + 100, now + 100))
        evicted = cache.evict_to_size(max_bytes=path0.stat().st_size * 2)
        assert evicted == 4
        assert cache.get(make_key(0)) == 0.0  # survived: most recently used
        assert cache.get(make_key(1)) is None  # oldest were evicted
        assert cache.stats.evictions == 4

    def test_numpy_scalar_key_components(self, tmp_path):
        # Sweep configs hand numpy scalars into task fields; keys must be
        # canonical (np.int64(5) addresses the same entry as 5).
        import numpy as np
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(np.int64(5)), 1.5)
        assert cache.get(make_key(5)) == 1.5
        assert key_digest((np.float64(0.5),)) == key_digest((0.5,))

    def test_write_failure_is_swallowed_and_counted(self, tmp_path,
                                                    monkeypatch):
        # A full/read-only cache volume must never crash a finished run.
        import errno
        import tempfile as _tempfile
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(1), 1.0)

        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(_tempfile, "mkstemp", disk_full)
        cache.put(make_key(2), 2.0)  # must not raise
        cache.put_many([(make_key(3), 3.0)])  # must not raise either
        monkeypatch.undo()
        assert cache.stats.write_errors == 2
        assert cache.get(make_key(1)) == 1.0  # earlier entries still served
        assert cache.get(make_key(2)) is None

    def test_stale_temp_files_reaped_by_eviction(self, tmp_path):
        # A writer killed between mkstemp and os.replace leaves an orphaned
        # temp file; eviction scans reap it (valid entries untouched).
        cache = DiskExpectationCache(tmp_path)
        cache.put(make_key(1), 1.0)
        bucket = cache._path_for(make_key(1)).parent
        orphan = bucket / ".tmp-orphan.expv"
        orphan.write_bytes(b"junk")
        os.utime(orphan, (1, 1))  # ancient mtime: clearly abandoned
        fresh = bucket / ".tmp-live.expv"
        fresh.write_bytes(b"junk")  # recent: may be an in-flight write
        cache.evict_to_size()
        assert not orphan.exists()
        assert fresh.exists()
        assert cache.get(make_key(1)) == 1.0

    def test_clear_and_len(self, tmp_path):
        cache = DiskExpectationCache(tmp_path)
        cache.put_many([(make_key(i), float(i)) for i in range(3)])
        assert len(cache) == 3
        assert make_key(0) in cache
        cache.clear()
        assert len(cache) == 0
        assert cache.get(make_key(0)) is None


class TestTieredCache:
    def test_disk_hit_promotes_to_memory(self, tmp_path):
        disk = DiskExpectationCache(tmp_path)
        disk.put(make_key(1), 0.75)
        tiered = TieredExpectationCache(memory=ExpectationCache(max_size=8),
                                        disk=disk)
        assert tiered.get(make_key(1)) == 0.75  # served from disk
        assert tiered.memory.get(make_key(1)) == 0.75  # now promoted

    def test_get_many_mixes_tiers(self, tmp_path):
        disk = DiskExpectationCache(tmp_path)
        disk.put(make_key(1), 1.0)
        tiered = TieredExpectationCache(disk=disk)
        tiered.memory.put(make_key(0), 0.0)
        assert tiered.get_many([make_key(0), make_key(1), make_key(2)]) \
            == [0.0, 1.0, None]

    def test_put_writes_both_tiers(self, tmp_path):
        tiered = TieredExpectationCache(disk=DiskExpectationCache(tmp_path))
        tiered.put(make_key(1), 2.0)
        assert tiered.memory.get(make_key(1)) == 2.0
        assert tiered.disk.get(make_key(1)) == 2.0

    def test_clear_keeps_disk(self, tmp_path):
        tiered = TieredExpectationCache(disk=DiskExpectationCache(tmp_path))
        tiered.put(make_key(1), 2.0)
        tiered.clear()
        assert tiered.memory.get(make_key(1)) is None
        assert tiered.get(make_key(1)) == 2.0  # re-served from disk


class TestNoiseTokens:
    def test_token_is_content_addressed(self):
        a = cx_noise()
        b = cx_noise()
        assert a is not b
        assert noise_token(a) == noise_token(b)  # equal content, equal token
        b.add_readout_error(0.2)
        assert noise_token(a) != noise_token(b)

    def test_token_stable_under_equal_readdition(self):
        model = cx_noise()
        before = noise_token(model)
        version_before = model.version
        model.add_readout_error(0.01)  # same value re-set: content unchanged
        assert model.version > version_before  # version still bumps
        assert noise_token(model) == before  # but entries remain valid

    def test_equal_content_models_share_cache_entries(self):
        hamiltonian = ising_hamiltonian(3, 1.0)
        circuit = clifford_circuit(3)
        executor = Executor(policy=ExecutionPolicy(parallel="none"))
        first = executor.evaluate_observable(
            circuit, hamiltonian, noise_model=cx_noise(),
            backend="pauli_propagation")[0]
        invocations = executor.stats.simulator_invocations
        second = executor.evaluate_observable(
            circuit, hamiltonian, noise_model=cx_noise(),  # a fresh object
            backend="pauli_propagation")[0]
        assert second == first
        assert executor.stats.simulator_invocations == invocations


class TestExecutorDiskCache:
    def test_cache_dir_attaches_tiered_cache(self, tmp_path):
        executor = Executor(cache_dir=tmp_path)
        assert executor.disk_cache is not None
        assert isinstance(executor.cache, TieredExpectationCache)

    def test_env_var_attaches_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        executor = Executor()
        assert executor.disk_cache is not None
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert Executor().disk_cache is None

    def test_warm_rerun_does_zero_evolutions(self, tmp_path):
        """The PR-4 acceptance shape: cold run fills the disk; a fresh
        executor (fresh memory cache — a "new process") serves everything
        from disk and never invokes a simulator."""
        hamiltonian = ising_hamiltonian(4, 1.0)
        circuits = [clifford_circuit(4), clifford_circuit(4).x(0)]

        cold = Executor(cache_dir=tmp_path)
        energies = cold.evaluate_observable(circuits, hamiltonian,
                                            backend="statevector")
        assert cold.stats.simulator_invocations > 0
        assert cold.disk_cache_stats.writes > 0

        warm = Executor(cache_dir=tmp_path)
        warm_energies = warm.evaluate_observable(circuits, hamiltonian,
                                                 backend="statevector")
        assert warm_energies == energies
        assert warm.stats.simulator_invocations == 0
        assert warm.stats.term_cache_hits \
            == len(circuits) * hamiltonian.num_terms
        assert warm.disk_cache_stats.hits >= hamiltonian.num_terms

    def test_warm_rerun_noisy_clifford(self, tmp_path):
        """Noisy Pauli-propagation energies are disk-cacheable: a warm
        re-run does zero evolutions and returns the exact same value."""
        hamiltonian = ising_hamiltonian(3, 1.0)
        circuit = clifford_circuit(3)
        noise = cx_noise()

        cold = Executor(cache_dir=tmp_path, use_cache=True)
        value = cold.evaluate_observable(
            circuit, hamiltonian, noise_model=noise,
            backend="pauli_propagation")[0]
        assert cold.stats.simulator_invocations == 1

        warm = Executor(cache_dir=tmp_path, use_cache=True)
        warm_value = warm.evaluate_observable(
            circuit, hamiltonian, noise_model=noise,
            backend="pauli_propagation")[0]
        assert warm_value == value
        assert warm.stats.simulator_invocations == 0
        # A different noise model misses (its token differs) and re-evolves.
        other = Executor(cache_dir=tmp_path, use_cache=True)
        other.evaluate_observable(
            circuit, hamiltonian,
            noise_model=cx_noise().add_readout_error(0.05),
            backend="pauli_propagation")
        assert other.stats.simulator_invocations == 1

    def test_sweep_values_persist(self, tmp_path):
        from repro.circuits.parameters import Parameter
        hamiltonian = ising_hamiltonian(3, 1.0)
        theta = Parameter("t")
        template = QuantumCircuit(3)
        template.h(0).cx(0, 1).cx(1, 2).rz(theta, 2)
        points = [[0.1 * i] for i in range(4)]

        cold = Executor(cache_dir=tmp_path)
        energies = cold.evaluate_sweep(template, points, hamiltonian,
                                       backend="statevector")
        # One entry per point, holding its energy.
        assert cold.disk_cache_stats.writes == len(points)
        warm = Executor(cache_dir=tmp_path)
        assert warm.evaluate_sweep(template, points, hamiltonian,
                                   backend="statevector") == energies
        assert warm.stats.simulator_invocations == 0

    def test_corrupt_disk_entry_recomputes(self, tmp_path):
        hamiltonian = ising_hamiltonian(3, 1.0)
        circuit = clifford_circuit(3)
        cold = Executor(cache_dir=tmp_path)
        [energy] = cold.evaluate_observable(circuit, hamiltonian,
                                            backend="statevector")
        for path in tmp_path.rglob("*.expv"):
            path.write_bytes(b"garbage")
        warm = Executor(cache_dir=tmp_path)
        [recomputed] = warm.evaluate_observable(circuit, hamiltonian,
                                                backend="statevector")
        assert recomputed == pytest.approx(energy, abs=1e-12)
        assert warm.stats.simulator_invocations == 1
        assert warm.disk_cache_stats.corrupt > 0
