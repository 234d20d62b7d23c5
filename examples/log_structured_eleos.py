#!/usr/bin/env python3
"""Log-structured storage with LLAMA-lite over OX-ELEOS.

The write path batches dirty pages into 8 MB LSS I/O buffers (one device
transaction each); the read path fetches single variable-sized pages —
with a mapping granularity *below* the 4 KB unit of read, the challenge
§4.2 highlights.  The host-side cleaner relocates live pages and frees
whole segments (chunk erases).

Run:  python examples/log_structured_eleos.py
"""

from repro.llama import LlamaEngine
from repro.ox import OXEleos
from repro.stack import StackSpec, build_stack
from repro.units import MIB, fmt_bytes


def main() -> None:
    stack = build_stack(StackSpec(
        name="log-structured",
        geometry={"num_groups": 4, "pus_per_group": 4,
                  "chunks_per_pu": 48, "pages_per_block": 24},
        ftl="eleos",
        ftl_config={"buffer_bytes": 2 * MIB},
        llama={"consolidate_after": 4, "clean_live_ratio": 0.8}))
    media, ftl, engine = stack.media, stack.ftl, stack.engine
    print(f"OX-ELEOS over {stack.device.geometry.describe()}")
    print(f"LSS buffer: {fmt_bytes(ftl.config.buffer_bytes)}")

    # Variable-sized pages: a record store with per-record pages.
    print("\nwriting 200 variable-sized pages (37 B .. 20 KB)...")
    for pid in range(200):
        engine.replace(pid, f"record-{pid}:".encode()
                       + b"x" * (37 + pid * 101 % 20_000))
    segment = engine.flush()
    print(f"flushed into segment {segment} "
          f"({engine.stats.pages_flushed} pages in "
          f"{engine.stats.flushes} buffer write)")

    # Delta updates: append without rewriting the base.
    for pid in range(0, 200, 4):
        engine.update(pid, b"+delta")
    second = engine.flush()
    print(f"50 delta-updated pages moved to segment {second}; "
          f"segment {segment} is now "
          f"{engine.segment_live_ratio(segment):.0%} live")

    page = engine.read(8)
    print(f"page 8: {len(page)} bytes, ends with {page[-6:]!r}")

    cleaned = engine.clean_once()
    print(f"cleaner freed segment {cleaned} "
          f"(relocated {engine.stats.pages_relocated} live pages)")

    # Crash: OX-ELEOS guarantees buffer-level atomicity.
    media.flush()
    ftl.crash()
    recovered, report = OXEleos.recover(media, ftl.config)
    print(f"\nrecovered after crash: {report.txns_applied} buffers "
          f"replayed, {len(recovered.live_page_ids())} pages live")
    engine2 = LlamaEngine(recovered)
    page = engine2.read(8)
    print(f"page 8 after recovery: {len(page)} bytes, "
          f"ends with {page[-6:]!r}")


if __name__ == "__main__":
    main()
