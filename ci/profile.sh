#!/usr/bin/env bash
# Sampling CPU profile of any command: where the host time goes.
#
# Usage: ci/profile.sh CMD [ARG...]
#
# Builds a small LD_PRELOAD sampler, runs CMD under it, then prints the
# functions and source lines that hold the most samples.  The sampler arms a
# 1 ms ITIMER_PROF (process CPU time, all threads) in every process CMD
# starts, records the interrupted program counter on each SIGPROF, and at
# exit writes the samples with the process's memory map.  The handler is
# installed with SA_RESTART, so system calls that a tick interrupts resume.
# Samples are symbolized with `addr2line -f -i -C` and charged two ways:
#
#   outermost function  the function the compiler emitted the code in, with
#                       everything inlined into it (a walk kernel inlined
#                       into its caller counts as that caller)
#   leaf line           the innermost inlined source line
#
# Build with debug information (the default RelWithDebInfo `build/`) for
# the line view; without it only the function view is meaningful.  A process that ends in _exit() or a signal writes no
# samples.  The profile is printed even when CMD fails; the script then exits
# with CMD's status.
#
# x86-64 Linux only: the sampler reads the program counter out of an x86-64
# signal context.  Any other platform exits 2.
set -euo pipefail

if [[ "$(uname -s)" != Linux || "$(uname -m)" != x86_64 ]]; then
    echo "profile.sh: x86-64 Linux only" >&2
    exit 2
fi
if (( $# == 0 )); then
    echo "usage: ci/profile.sh CMD [ARG...]" >&2
    exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/asbr-profile.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

cat > "$WORK/sampler.c" <<'C'
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)
static uintptr_t samples[MAX_SAMPLES];
static unsigned count;

static void onTick(int sig, siginfo_t* info, void* context) {
    (void)sig;
    (void)info;
    const unsigned i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (uintptr_t)((ucontext_t*)context)->uc_mcontext.gregs[REG_RIP];
}

static void arm(void) {
    const struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

/* A forked child starts with no timer and its parent's samples. */
static void forked(void) {
    count = 0;
    arm();
}

__attribute__((constructor)) static void start(void) {
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = onTick;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    pthread_atfork(NULL, NULL, forked);
    arm();
}

__attribute__((destructor)) static void finish(void) {
    const struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096];
    snprintf(path, sizeof path, "%s/%d.samples", OUT_DIR, (int)getpid());
    FILE* out = fopen(path, "w");
    if (out == NULL) return;
    FILE* maps = fopen("/proc/self/maps", "r");
    char line[8192];
    while (maps != NULL && fgets(line, sizeof line, maps) != NULL)
        fprintf(out, "map %s", line);
    if (maps != NULL) fclose(maps);
    const unsigned n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (unsigned i = 0; i < n; ++i) fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
    fclose(out);
}
C
mkdir "$WORK/out"
cc -O2 -shared -fPIC -DOUT_DIR="\"$WORK/out\"" -o "$WORK/sampler.so" "$WORK/sampler.c"

status=0
LD_PRELOAD="$WORK/sampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?
echo "profile.sh: command exited with status $status" >&2

python3 - "$WORK/out" <<'PY'
import collections
import os
import struct
import subprocess
import sys

out_dir = sys.argv[1]
TOP = 25  # rows per table


def load_segments(path):
    """The PT_LOAD (offset, vaddr, filesz) triples of an ELF64 file."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return None
        phoff, = struct.unpack_from("<Q", header, 32)
        phentsize, phnum = struct.unpack_from("<HH", header, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segments = []
    for i in range(phnum):
        kind, _, offset, vaddr, _, filesz = struct.unpack_from(
            "<IIQQQQ", table, i * phentsize)
        if kind == 1:
            segments.append((offset, vaddr, filesz))
    return segments


segments_of = {}
by_object = collections.defaultdict(list)  # path -> [(address in file)]
unknown = 0
total = 0
for name in sorted(os.listdir(out_dir)):
    maps, pcs = [], []
    with open(os.path.join(out_dir, name)) as f:
        for line in f:
            if line.startswith("map "):
                fields = line[4:].split()
                if len(fields) >= 6 and "x" in fields[1]:
                    lo, hi = (int(v, 16) for v in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
            elif line.startswith("pc "):
                pcs.append(int(line[3:], 16))
    for pc in pcs:
        total += 1
        hit = next((m for m in maps if m[0] <= pc < m[1]), None)
        if hit is None or not os.path.isfile(hit[3]):
            unknown += 1
            continue
        lo, _, offset, path = hit
        if path not in segments_of:
            segments_of[path] = load_segments(path)
        file_offset = pc - lo + offset
        address = None
        for seg_offset, vaddr, size in segments_of[path] or ():
            if seg_offset <= file_offset < seg_offset + size:
                address = vaddr + file_offset - seg_offset
        if address is None:
            unknown += 1
            continue
        by_object[path].append(address)

if total == 0:
    print("profile.sh: no samples (did the command run for at least 1 ms?)")
    sys.exit(0)

outermost = collections.Counter()
leaf = collections.Counter()
objects = collections.Counter()
for path, addresses in by_object.items():
    objects[os.path.basename(path)] += len(addresses)
    distinct = sorted(set(addresses))
    result = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(hex(a) for a in distinct), capture_output=True,
        text=True, check=True).stdout.splitlines()
    frames_of, frames, current = {}, [], None
    for line in result + ["0x0"]:
        if line.startswith("0x") and all(c in "0123456789abcdefx" for c in line):
            if current is not None:
                frames_of[current] = frames
            current, frames = int(line, 16), []
        else:
            frames.append(line)
    weight = collections.Counter(addresses)
    for address, n in weight.items():
        frames = frames_of.get(address, [])
        pairs = list(zip(frames[0::2], frames[1::2])) or [("??", "??:0")]
        outermost[pairs[-1][0]] += n
        where = pairs[0][1].split(" (discriminator")[0]
        leaf[f"{os.path.basename(where)}  {pairs[0][0]}"] += n


def table(title, counter):
    print(f"\n{title}")
    for key, n in counter.most_common(TOP):
        print(f"{100.0 * n / total:6.1f}%  {key[:150]}")


print(f"{total} samples at 1 ms ({unknown} outside any mapped file)")
table("objects", objects)
table("outermost functions", outermost)
table("leaf lines (file:line, innermost function)", leaf)
PY
exit "$status"
