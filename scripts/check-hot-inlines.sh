#!/usr/bin/env bash
# The hot generics must be inlined into their callers in the shipped
# binaries. Release builds use thin LTO over 4 codegen units per crate, so a
# size change anywhere in a crate can re-partition it and leave one of them
# as a call through memory — 3-15 % of events/s on the paper testbed, with no
# test failing. A standalone symbol is that outlined copy.
#
#   bash benchmark/run.sh --quick && cargo build --release
#   scripts/check-hot-inlines.sh [binary...]
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

bins=("$@")
if [ ${#bins[@]} -eq 0 ]; then
  bins=(benchmark/target/release/rss-benchmark target/release/rss)
fi

# As `nm -C` prints them: the per-event pop and the windowed driver's wrapper
# around it, the tagged schedule every `Scheduler` call ends in (the
# scheduler's own stamping wrapper may stand alone; a second call below it
# may not), the per-hop fabric handler, the per-event dispatch.
hot='EventQueue<.*>::pop_bounded$|EventQueue<.*>::pop_before$|EventQueue<.*>::schedule_tagged$|Fabric<.*>::handle$|Engine<.*>::dispatch$'
# And the two places a fabric follow-up event changes hands: the closure the
# world's handler gives the fabric, and the queue's slot allocator. Either
# one standing alone means the event is stored to the stack in the 4-byte
# pieces it was built from and reloaded 16 bytes at a time on the other side
# of the call — a store-forwarding stall per hop, the two hottest
# instructions of a profile, with no test failing.
hot+='|<.*World as .*Model>::handle::\{\{closure\}\}$|EventQueue<.*>::alloc_slot$'

status=0
for bin in "${bins[@]}"; do
  if [ ! -x "$bin" ]; then
    echo "check-hot-inlines: $bin is not built" >&2
    exit 2
  fi
  syms=$(nm -C "$bin")
  # `pop_merged` is `#[inline(never)]`: if not even that shows, the binary
  # is stripped and the check below would pass on nothing.
  if ! grep -qE 'EventQueue<.*>::pop_merged$' <<<"$syms"; then
    echo "check-hot-inlines: $bin has no symbols to check" >&2
    exit 2
  fi
  if outlined=$(grep -E "$hot" <<<"$syms"); then
    echo "check-hot-inlines: outlined in $bin:" >&2
    echo "$outlined" >&2
    status=1
  else
    echo "check-hot-inlines: $bin ok"
  fi
done
exit $status
