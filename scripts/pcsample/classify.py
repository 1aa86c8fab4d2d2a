#!/usr/bin/env python3
"""Attributes pcsample's program-counter samples to functions.

    python3 scripts/pcsample/classify.py pcsample.<pid>.pcs [--top N]

Reads the samples and the matching pcsample.<pid>.maps (see pcsample.c),
and pcsample.<pid>.jit when the JIT reported its code regions.

The sampler's timers run on the monotonic clock, so a thread blocked in a
system call is sampled too: at the instruction after its `syscall`, or at
the `syscall` itself when the kernel restarts the call after the signal
handler (a futex wait does). Such a sample (0f 05 just before or at its PC,
read from the mapped file) counts as "[blocked]": the header gives its share
of all samples, and every other share is of the samples that were not
blocked.

Each remaining sample goes to a bucket, printed largest first:

  * a function of the sampled program or of a shared library it loaded,
    named through `nm` (libc's functions are prefixed "libc:"). Stripped
    libraries such as libc export only some of their functions, so a PC
    past the end (`nm -S` size) of the nearest exported one is printed as
    its link-time address in the object, e.g. "libc:+0x11ea40", not under
    that symbol's name;
  * "[jit stubs]" and "[jit block va=0x<guest VA>]": a PC in the JIT's code
    cache, in its stubs or in the translated block at that guest VA (all
    blocks at one VA, in any enclave, share a bucket). A sample goes to the
    region last written at its address before the sample was taken, so a
    code-cache flush that reuses addresses does not confuse blocks;
  * "[jit code cache]": any other executable anonymous mapping, which in
    komodo binaries is the JIT's code cache outside every reported region
    (or all of it, without a pcsample.<pid>.jit);
  * "[<file>]" for a mapped file without a symbol at that address, the
    kernel's label (e.g. "[vdso]") for its own mappings, and "[unmapped]"
    for a PC no recorded mapping covers.

A summary line splits the samples that were not blocked into the program,
libc, other libraries, the JIT code cache and the rest.
"""

import argparse
import bisect
import collections
import functools
import os
import subprocess
import sys


def read_maps(path):
    """Executable mappings as (start, end, file_offset, name or None).

    The name is a path, a kernel label such as [vdso], or None for an
    anonymous mapping."""
    maps = []
    with open(path) as f:
        for line in f:
            parts = line.split(maxsplit=5)
            if len(parts) < 5 or "x" not in parts[1]:
                continue
            start, end = (int(x, 16) for x in parts[0].split("-"))
            name = parts[5].strip() if len(parts) == 6 else None
            maps.append((start, end, int(parts[2], 16), name))
    maps.sort()
    return maps


class JitRegions:
    """The JIT's code regions (pcsample.<pid>.jit), looked up by PC and by
    the sample's index: the region last written at that PC before it."""

    def __init__(self, path):
        self.pages = collections.defaultdict(list)  # host page -> [(samples, start, end, label)]
        if not os.path.exists(path):
            return
        with open(path) as f:
            for line in f:
                start, end, va, is_block, samples = line.split()
                start, end, va = int(start, 16), int(end, 16), int(va, 16)
                label = "[jit block va=0x%08x]" % va if is_block == "1" else "[jit stubs]"
                for page in range(start >> 12, ((end - 1) >> 12) + 1):
                    self.pages[page].append((int(samples, 16), start, end, label))
        for regions in self.pages.values():
            regions.sort(key=lambda r: r[0])  # stable: registration order within a count

    def label(self, pc, index):
        regions = self.pages.get(pc >> 12, ())
        i = bisect.bisect_right(regions, (index, float("inf"))) - 1
        for samples, start, end, label in reversed(regions[: i + 1]):
            if start <= pc < end:
                return label
        return None


def is_position_independent(path):
    """True for ET_DYN objects (shared libraries, PIE executables)."""
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and int.from_bytes(header[16:18], "little") == 3


class Symbols:
    """Sorted function symbols of one ELF file, by link-time address."""

    def __init__(self, path):
        self.path = path
        self.addrs, self.sizes, self.names = [], [], []
        for flags in (["--defined-only"], ["-D", "--defined-only"]):
            out = subprocess.run(["nm", "-C", "-n", "-S", *flags, path], capture_output=True,
                                 text=True).stdout
            for line in out.splitlines():
                # "addr size type name", or "addr type name" without a size.
                parts = line.split(maxsplit=2)
                size = None
                if len(parts) == 3 and len(parts[1]) > 1:
                    parts = line.split(maxsplit=3)
                    size = int(parts.pop(1), 16)
                if len(parts) == 3 and parts[1] in "tTwWiI":
                    self.addrs.append(int(parts[0], 16))
                    self.sizes.append(size)
                    self.names.append(parts[2])
            if self.addrs:
                break  # stripped libraries only have dynamic symbols
        order = sorted(range(len(self.addrs)), key=self.addrs.__getitem__)
        self.addrs = [self.addrs[i] for i in order]
        self.sizes = [self.sizes[i] for i in order]
        self.names = [self.names[i] for i in order]
        self.pie = is_position_independent(path)

    def lookup(self, addr):
        """The function containing addr, "+0x<addr>" past the nearest one's
        size, or None before the first."""
        i = bisect.bisect_right(self.addrs, addr) - 1
        if i < 0:
            return None
        if self.sizes[i] is not None and addr >= self.addrs[i] + max(self.sizes[i], 1):
            return "+0x%x" % addr
        return self.names[i]


@functools.lru_cache(maxsize=None)
def in_syscall(path, file_offset):
    """True if a `syscall` (0f 05) in path ends or starts at file_offset."""
    try:
        with open(path, "rb") as f:
            f.seek(max(file_offset - 2, 0))
            around = f.read(4 if file_offset >= 2 else 2)
    except OSError:
        return False
    return around[:2] == b"\x0f\x05" or around[2:] == b"\x0f\x05"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("samples", help="a pcsample.<pid>.pcs file")
    ap.add_argument("--top", type=int, default=30, help="buckets to print (default 30)")
    args = ap.parse_args()
    maps_path = args.samples[: -len(".pcs")] + ".maps"
    maps = read_maps(maps_path)
    starts = [m[0] for m in maps]
    with open(args.samples) as f:
        pcs = [int(line, 16) for line in f if line.strip()]
    if not pcs:
        sys.exit("no samples in " + args.samples)
    jit = JitRegions(args.samples[: -len(".pcs")] + ".jit")

    exe = None
    for _, _, _, name in maps:
        if name is not None and ".so" not in os.path.basename(name):
            exe = name
            break
    symbols = {}
    buckets = collections.Counter()
    kinds = collections.Counter()
    blocked = 0
    for index, pc in enumerate(pcs):
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            buckets["[unmapped]"] += 1
            kinds["other"] += 1
            continue
        start, _, offset, name = maps[i]
        if name is None:
            buckets[jit.label(pc, index) or "[jit code cache]"] += 1
            kinds["jit code cache"] += 1
            continue
        if not name.startswith("/"):
            buckets[name] += 1
            kinds["other"] += 1
            continue
        if in_syscall(name, pc - start + offset):
            blocked += 1
            continue
        if name not in symbols:
            symbols[name] = Symbols(name)
        syms = symbols[name]
        # Text segments are mapped at their file offset, so a PC's link-time
        # address is its offset into the file (position-independent objects)
        # or the PC itself (fixed-address executables).
        addr = pc - start + offset if syms.pie else pc
        func = syms.lookup(addr)
        base = os.path.basename(name)
        if base.startswith("libc.so") or base.startswith("libc-"):
            kind, label = "libc", "libc:" + (func or "?")
        elif name == exe:
            kind, label = "program", func or "[%s]" % base
        else:
            kind, label = "other libraries", "%s:%s" % (base, func or "?")
        buckets[label] += 1
        kinds[kind] += 1

    total = len(pcs)
    print("%d samples (%.3f thread-seconds at 100 us), [blocked] in a system call %d (%.1f%%)"
          % (total, total * 1e-4, blocked, 100.0 * blocked / total))
    total -= blocked
    if total == 0:
        sys.exit("every sample was blocked")
    print("  of the other %d: " % total + ", ".join(
        "%s %.1f%%" % (k, 100.0 * v / total) for k, v in kinds.most_common()))
    for label, n in buckets.most_common(args.top):
        print("%6.2f%% %8d  %s" % (100.0 * n / total, n, label))


if __name__ == "__main__":
    main()
