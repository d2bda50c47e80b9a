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
# It also fails when the binary holds a function body for any of the
# per-event hooks below. A hook without a body can only have been
# inlined, whether its callers reached it directly or through the GOT
# (which the PIE binary's call sites show with no symbol, so the call
# count above cannot see such a call).
#
# Usage: ci/inline_guard.sh [binary]
#   binary  defaults to perfbench/target/release/perfbench; build it with
#           cargo build --release --offline --manifest-path perfbench/Cargo.toml
set -euo pipefail

CEILING=16
HOOKS=(
    tt_hw::trace::record
    tt_hw::cycles::charge
    tt_hw::cycles::charge_n
    tt_hw::cycles::now
    tt_hw::cycles::measure
    tt_hw::cycles::instrument
    tt_hw::injection::fire
    tt_hw::injection::mutate_reg_write
    tt_hw::injection::force_user_fault
    tt_hw::injection::corrupt_syscall_arg
    tt_hw::injection::stack_nudge
    tt_hw::sched::arrival
)
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
bodies=0
for hook in "${HOOKS[@]}"; do
    # A body's header line, with or without generic parameters.
    if grep -qE "^[0-9a-f]+ <${hook}(<.*>)?>:\$" <<<"$listing"; then
        echo "inline guard: hot-path hook $hook has an out-of-line body" >&2
        bodies=$((bodies + 1))
    fi
done
echo "out-of-line hook bodies: $bodies of ${#HOOKS[@]} hooks"
if [ "$bodies" -gt 0 ]; then
    exit 1
fi
