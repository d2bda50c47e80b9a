#!/usr/bin/env bash
# Counts the out-of-line `LocalKey<T>::with` call sites in a release
# binary and fails above a committed ceiling.
#
# The simulator's per-event hooks (the trace push, the cycle charge, the
# schedule and injection hooks) each reach the one simulation-context
# thread-local. They stay cheap only while that access compiles inline
# at every call site: a hook that picks up a panic edge or grows past
# LLVM's inlining budget becomes a `call` to `LocalKey::with` on every
# simulated event, which no test sees and which costs the fleet
# benchmark ~10%. The sites left are cold paths (arming, buffer
# recycling, the injection engine entered only where a fault is due).
#
# Usage: ci/inline_guard.sh [binary]
#   binary  defaults to perfbench/target/release/perfbench; build it with
#           cargo build --release --offline --manifest-path perfbench/Cargo.toml
set -euo pipefail

CEILING=16
bin=${1:-perfbench/target/release/perfbench}

listing=$(objdump -d -C --no-show-raw-insn "$bin")
sites=$(awk '/^[0-9a-f]+ <.*>:$/ { fn = substr($0, index($0, "<")) } /call.*LocalKey<.*>::with>/ { print fn }' <<<"$listing")
count=$(grep -c . <<<"$sites" || true)
echo "out-of-line LocalKey::with call sites: $count (ceiling $CEILING)"
sort <<<"$sites" | uniq -c
if [ "$count" -gt "$CEILING" ]; then
    echo "inline guard: $count call sites exceed the ceiling of $CEILING;" \
        "a hot-path hook stopped compiling inline" >&2
    exit 1
fi
