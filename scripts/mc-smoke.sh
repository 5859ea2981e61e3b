#!/bin/sh
# mc-smoke: hold the model checker's worker-count contract at the CLI.
# `atomig-mc -j N` must report the same verdict, violation list and race
# list for every N, and -j 1 is the reference. Each case runs at -j 1
# and -j 4; the verdict (and exit code), the violation: lines and the
# race reports must match. Visit-order figures are ignored: the
# executions/pruned/states/frontier counters, each race's occurrence
# count, its witness clocks, and which of its two accesses was seen
# first. Driven by `make mc-smoke` (wired into `make check`).
#
# Usage: mc-smoke.sh <atomig-mc-binary> <scratch-dir>
set -e

MC="$1"
DIR="$2"
if [ -z "$MC" ] || [ -z "$DIR" ]; then
    echo "usage: $0 <atomig-mc-binary> <scratch-dir>" >&2
    exit 2
fi
mkdir -p "$DIR"

# normalize keeps the worker-count-invariant part of a report: the
# verdict= field, violation: lines, races: none, and one line per race
# report (header without the occurrence count, then its two access
# lines in sorted order).
normalize() {
    awk '
    function flush() {
        if (hdr != "") {
            if (acc[1] < acc[0]) { t = acc[0]; acc[0] = acc[1]; acc[1] = t }
            print hdr " | " acc[0] " | " acc[1]
        }
        hdr = ""; n = 0
    }
    /^model=/ {
        for (i = 1; i <= NF; i++) if ($i ~ /^verdict=/) print $i
        next
    }
    /^violation: / || /^races: none/ { flush(); print; next }
    /^data race on / {
        flush()
        hdr = $0
        sub(/, [0-9]+ occurrences\)/, ")", hdr)
        next
    }
    /^  (read|write) / { acc[n++] = $0; next }
    END { flush() }
    ' "$1"
}

# check <name> <want-exit> <atomig-mc args...>
check() {
    name="$1"; want="$2"; shift 2
    for j in 1 4; do
        set +e
        "$MC" -j "$j" "$@" > "$DIR/mc-smoke-$name-j$j.raw"
        code=$?
        set -e
        if [ "$code" -ne "$want" ]; then
            echo "mc-smoke: $name -j $j: exit $code, want $want" >&2
            cat "$DIR/mc-smoke-$name-j$j.raw" >&2
            exit 1
        fi
        normalize "$DIR/mc-smoke-$name-j$j.raw" > "$DIR/mc-smoke-$name-j$j.out"
    done
    if ! grep -q '^verdict=' "$DIR/mc-smoke-$name-j1.out"; then
        echo "mc-smoke: $name: no verdict line" >&2
        exit 1
    fi
    if ! cmp -s "$DIR/mc-smoke-$name-j1.out" "$DIR/mc-smoke-$name-j4.out"; then
        echo "mc-smoke: $name: -j 4 report differs from -j 1:" >&2
        diff "$DIR/mc-smoke-$name-j1.out" "$DIR/mc-smoke-$name-j4.out" >&2 || true
        exit 1
    fi
    echo "mc-smoke: $name: -j 1 and -j 4 agree ($(head -n 1 "$DIR/mc-smoke-$name-j1.out"), $(($(wc -l < "$DIR/mc-smoke-$name-j1.out") - 1)) findings)"
}

# The unported seqlock-gap program is racy (exit 4) and the unported
# ck_sequence program violates its assertion (exit 1). With -cex every
# race key also gets a replayed witness, printed as a "violation: data
# race:" line; witnesses of executions the visited cache pruned must
# replay too.
check seqlock-gap-race 4 -race -corpus seqlock-gap
check seqlock-gap-race-cex 4 -race -cex -corpus seqlock-gap
check ck_sequence 1 -corpus ck_sequence
