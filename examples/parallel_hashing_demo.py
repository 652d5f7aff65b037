#!/usr/bin/env python
"""The parallel hashing paradigm as a standalone primitive (§3.3.1).

The paper proposes the batched construct/enquire pattern as generally
reusable: "the proposed parallel hashing paradigm can be used to
parallelize other algorithms that require many concurrent updates to a
large hash table."  This example uses it for something other than
classification: a distributed word-count-style aggregation followed by
point lookups, on both table flavors:

* the collision-free block table (ScalParC's node table), and
* the general open-chaining table with a multiplicative hash.

Run:  python examples/parallel_hashing_demo.py
"""

import numpy as np

from repro.hashing import DistributedChainedHashTable, DistributedNodeTable
from repro.perfmodel import CRAY_T3D, RankTracker, format_bytes, price
from repro.runtime import run_spmd

N_KEYS = 200_000
P = 8


def main() -> None:
    rng = np.random.default_rng(7)
    keys = rng.permutation(N_KEYS).astype(np.int64)
    values = rng.integers(0, 1_000, N_KEYS).astype(np.int32)
    chunk = -(-N_KEYS // P)

    print(f"Distributed node table: {N_KEYS} concurrent updates over "
          f"{P} ranks …")
    ledgers = [RankTracker() for _ in range(P)]

    def node_table_worker(comm):
        lo = comm.rank * chunk
        hi = min(lo + chunk, N_KEYS)
        table = DistributedNodeTable(comm, N_KEYS)
        rounds = table.update(keys[lo:hi], values[lo:hi])  # blocked rounds
        sample = keys[lo:hi][:5]
        return rounds, table.lookup(sample), sample

    results = run_spmd(P, node_table_worker, rank_perf=ledgers)
    rounds, got, sample = results[0]
    ref = np.empty(N_KEYS, dtype=np.int32)
    ref[keys] = values
    assert np.array_equal(got, ref[sample])
    stats = price(ledgers, CRAY_T3D)
    print(f"  update rounds: {rounds}; spot-lookups verified")
    print(f"  modeled time {stats.parallel_time * 1e3:.2f} ms, "
          f"per-rank traffic ≤ {format_bytes(stats.bytes_per_rank_max)}, "
          f"memory/rank ≤ {format_bytes(stats.memory_per_rank_max)}")

    print()
    print("General chained table: sparse 64-bit keys, collisions welcome …")
    sparse_keys = (keys * 2_654_435_761 % (1 << 40)).astype(np.int64)

    def chained_worker(comm):
        lo = comm.rank * chunk
        hi = min(lo + chunk, N_KEYS)
        table = DistributedChainedHashTable(comm, n_slots=N_KEYS // 4)
        table.insert(sparse_keys[lo:hi], values[lo:hi].astype(np.int64))
        probe = sparse_keys[:3] if comm.rank == 0 else sparse_keys[:0]
        found = table.get(probe)
        missing = table.get(
            np.array([-12345], dtype=np.int64) if comm.rank == 0
            else sparse_keys[:0]
        )
        chains = table.local_chain_lengths()
        return found, missing, (chains.max() if len(chains) else 0)

    results = run_spmd(P, chained_worker)
    found, missing, _ = results[0]
    assert np.array_equal(found, values[:3])
    assert missing[0] == -1
    longest = max(r[2] for r in results)
    print(f"  3 probes answered correctly, absent key -> -1, "
          f"longest chain: {longest}")
    print()
    print("Same two collectives (update / enquire) drive both tables — "
          "the paradigm is data-structure-agnostic.")


if __name__ == "__main__":
    main()
