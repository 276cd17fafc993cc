#!/bin/sh
# Shard-split and resume-after-kill determinism smoke.
#
# One sweep run whole, then (a) as two --shard halves persisted into two
# result stores and merged, and (b) killed after shard 0 of 2 and
# finished with --resume: every report must be byte-identical to the
# whole run, at different thread counts. A second resume executes zero
# sessions and still reproduces the report from the store alone.
# (c) A resumed stress grid executes zero sessions per severity and
# reproduces its curves. (d) Broken shard stores gate merge and diff
# with exit 3 (missing part) and 4 (corrupt part).
#
# Usage: tests/smoke/shard_resume.sh PATH/TO/pes_fleet
# (registered with ctest, which passes the built binary).
set -eu

fleet="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

sweep() {
    "$fleet" --schedulers=ebs,interactive --apps=cnn,social_feed \
        --users=4 "$@"
}

sweep --threads=4 --out=whole.json --csv=whole.csv --quiet

# (a) Shard split + merge.
sweep --threads=3 --shard=0/2 --results-dir=shard0 --quiet
sweep --threads=2 --shard=1/2 --results-dir=shard1 --quiet
test -f shard0/part-s0-0.psum
test -f shard1/part-s1-0.psum
"$fleet" merge --into=shards-merged --from=shard0,shard1 \
    --out=merged.json --csv=merged.csv --quiet
"$fleet" diff --exact whole.json merged.json
"$fleet" diff --exact whole.csv merged.csv

# (b) Resume after a kill: only shard 0 of 2 ran, checkpointing each
# session; the resumed whole sweep must reproduce the whole run.
sweep --threads=4 --shard=0/2 --results-dir=killed --checkpoint-every=1 \
    --quiet
sweep --threads=1 --results-dir=killed --resume \
    --out=resumed.json --csv=resumed.csv --quiet
"$fleet" diff --exact whole.json resumed.json
"$fleet" diff --exact whole.csv resumed.csv
sweep --threads=1 --results-dir=killed --resume --out=noop.json \
    --quiet > noop.txt
grep -q "^0 sessions," noop.txt
"$fleet" diff --exact whole.json noop.json

# (c) A stress grid resumed from its complete stores runs nothing.
stress() {
    "$fleet" stress --family=rage_tap_storm --schedulers=ebs,interactive \
        --apps=cnn --users=2 --severities=0,1 "$@"
}
stress --threads=2 --results-dir=grid --out=curves.json --quiet \
    > /dev/null
stress --threads=1 --results-dir=grid --resume \
    --out=curves-resumed.json > stress-resumed.txt
test "$(grep -c ": 0 sessions in" stress-resumed.txt)" -eq 2
cmp curves.json curves-resumed.json

# (d) Store integrity exit codes: 3 = missing part, 4 = corrupt part.
expect_exit() {
    want="$1"
    shift
    if "$@"; then
        echo "expected exit $want, got 0: $*" >&2
        exit 1
    else
        got=$?
    fi
    if [ "$got" -ne "$want" ]; then
        echo "expected exit $want, got $got: $*" >&2
        exit 1
    fi
}
rm shard0/part-s0-0.psum
expect_exit 3 "$fleet" merge --into=gate --from=shard0 --quiet
expect_exit 3 "$fleet" diff shard0 shard0 --quiet
printf garbage > shard1/part-s1-0.psum
expect_exit 4 "$fleet" merge --into=gate2 --from=shard1 --quiet
expect_exit 4 "$fleet" diff shard1 shard1 --quiet

echo "shard/resume smoke: OK"
