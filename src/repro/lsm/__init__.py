"""RocksDB-lite: an LSM-tree engine with pluggable storage environments.

This is the data system driving the paper's main evaluation (Figures 5
and 6): memtable + leveled SSTables with bloom filters, background flush
and compaction, write stalls, and a storage ``Env`` abstraction with two
implementations — an in-memory one (tests, baselines) and **LightLSM**
(:mod:`repro.lsm.lightlsm`), the application-specific FTL that maps
SSTables directly onto Open-Channel SSD chunks with horizontal or
vertical placement (Figure 4).
"""

from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import MemTable, TOMBSTONE
from repro.lsm.sstable import SSTableBuilder, SSTableData, SSTableMeta
from repro.lsm.env import MemEnv, SSTableHandle, StorageEnv
from repro.lsm.lightlsm import (
    HorizontalPlacement,
    LightLSMConfig,
    LightLSMEnv,
    PlacementPolicy,
    VerticalPlacement,
)
from repro.lsm.blockenv import BlockDevEnv
from repro.lsm.znsenv import ZnsEnv
from repro.lsm.db import DB, DBConfig
from repro.lsm.dbbench import BenchResult, DbBench

__all__ = [
    "BloomFilter",
    "MemTable",
    "TOMBSTONE",
    "SSTableBuilder",
    "SSTableData",
    "SSTableMeta",
    "MemEnv",
    "SSTableHandle",
    "StorageEnv",
    "HorizontalPlacement",
    "LightLSMConfig",
    "LightLSMEnv",
    "PlacementPolicy",
    "VerticalPlacement",
    "BlockDevEnv",
    "ZnsEnv",
    "DB",
    "DBConfig",
    "BenchResult",
    "DbBench",
]
