#!/usr/bin/env bash
# Local pre-commit gate: everything CI would check, in dependency order.
#
#   tools/check.sh          # full gate
#   tools/check.sh --fast   # skip docs + clippy (build + tests only)
#
# Fails fast on the first broken step.

set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

# The record-writing benchmarks below run from a scratch directory:
# `harness::write_records` writes to the relative `results/`, and a gate run
# must not rewrite the records tracked there.
bin="$PWD/target/release"
bench_dir=$(mktemp -d)
trap 'rm -rf "$bench_dir"' EXIT

echo "==> cargo build --release (workspace, all targets)"
cargo build --workspace --release --bins --examples --benches --tests

echo "==> cargo build --release (perfbench: the benchmark must compile against the library)"
cargo build --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench self-tests (same-seed lib-cold counts repeat; traced spans add up to latency)"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench end to end (every workload 2 s at seed 1, then traced lib-cold at seeds 1-3; runs in a scratch directory)"
# Each run checks its own outputs and exits non-zero on a mismatch; the
# traced lib-cold runs also compare the staged path's report bytes (which
# build on one reused `QueryWorkspace` and sample through
# `AlivenessOracle::sample`) with `debug_with_strategy`'s, and check that
# every traced request's span self times add up to its timed latency.
perfbench="$PWD/perfbench/target/release/perfbench"
perfbench_start=$SECONDS
for workload in lib-cold serve-closed write-read; do
    (cd "$bench_dir" && "$perfbench" --workload "$workload" --seed 1 --seconds 2 --trace 0) \
        | grep -E "^attempted"
done
for seed in 1 2 3; do
    (cd "$bench_dir" && "$perfbench" --workload lib-cold --seed "$seed" --seconds 2 --trace 1) \
        | grep -E "^attempted"
done
echo "    perfbench end to end took $((SECONDS - perfbench_start)) s"

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> chaos suite (fixed seeds: degraded-mode soundness + accounting)"
cargo test --workspace -q --test chaos_soundness --test metrics_accounting

echo "==> engine differential (random join trees vs nested loops: verdicts and tuple order)"
cargo test --workspace --release -q --test prop_engine

echo "==> prune substrate differential (compact vs naive reference)"
cargo test --workspace --release -q --test prune_equivalence

echo "==> E14 prune aggregates (the THROUGHPUT row's counts must equal the committed record's)"
# Only the deterministic `prune` counts are compared, never a timing.
prune_of() { grep '"query":"THROUGHPUT"' "$1" | tail -1 | grep -o '"prune":{[^}]*}' || true; }
(cd "$bench_dir" && "$bin/exp_phase12" --scale small --throughput 200 > /dev/null)
want=$(prune_of results/BENCH_exp_phase12.json)
got=$(prune_of "$bench_dir/results/BENCH_exp_phase12.json")
if [[ -z "$want" || "$got" != "$want" ]]; then
    echo "E14 prune aggregates differ from results/BENCH_exp_phase12.json:"
    echo "    got  $got"
    echo "    want $want"
    exit 1
fi

echo "==> memo ablation (exp_memo --scale medium must repeat results/exp_memo_L5_medium.txt byte for byte)"
# The run is deterministic; a change to how the oracle memoizes verdicts
# moves its counts and must regenerate the record.
"$bin/exp_memo" --scale medium > "$bench_dir/exp_memo.txt"
diff -u results/exp_memo_L5_medium.txt "$bench_dir/exp_memo.txt" \
    || { echo "exp_memo differs from results/exp_memo_L5_medium.txt"; exit 1; }

echo "==> probe evaluation cache differential (cache on/off, all strategies)"
cargo test --workspace --release -q --test probe_cache_equivalence

echo "==> shared evaluation cache differential (cross-session, budgets, chaos pollution)"
cargo test --workspace --release -q --test shared_cache_equivalence

echo "==> examples end to end (traversal_shootout: every strategy agrees, cache and batching on and off; interactive_diagnosis: a DebugSession end to end)"
for example in traversal_shootout interactive_diagnosis; do
    (cd "$bench_dir" && "$bin/examples/$example" > /dev/null)
done

echo "==> E15 cold-vs-warm probe cache (DBLife, records to a scratch directory; every row's probe counts must equal the committed record's)"
(cd "$bench_dir" && "$bin/exp_probe_cache" --scale medium) | grep -E "throughput|speedup|wrote"
# Only the deterministic counts are compared: each row's `probes` object
# without its `time_ns`.
probes_of() { grep -o '"probes":{[^}]*}' "$1" | sed 's/"time_ns":[0-9]*,//' || true; }
want=$(probes_of results/BENCH_exp_probe_cache.json)
got=$(probes_of "$bench_dir/results/BENCH_exp_probe_cache.json")
if [[ -z "$want" || "$got" != "$want" ]]; then
    echo "E15 probe counts differ from results/BENCH_exp_probe_cache.json:"
    diff <(echo "$want") <(echo "$got") || true
    exit 1
fi

echo "==> mutable-database differential (incremental maintenance vs fresh rebuild)"
cargo test --workspace --release -q --test mutation_equivalence

echo "==> mutation benchmark (E19 incremental vs drop-and-rebuild, records to a scratch directory)"
(cd "$bench_dir" && "$bin/exp_mutate") | grep -E "speedup|wrote"

echo "==> serving layer (kwserve loopback: wire-vs-library bit-equivalence, admission)"
cargo test --workspace --release -q --test loopback

echo "==> protocol decoder fuzz (truncations, bit flips, hostile length prefixes)"
cargo test --workspace --release -q --test protocol_fuzz

echo "==> chaos soak (fixed seeds: shedding, deadlines, panic isolation, leak-free permits)"
cargo test --workspace --release -q --test chaos_soak

echo "==> shared-cache soak (cross-tenant chaos against one store, accounting, pollution)"
cargo test --workspace --release -q --test shared_cache_soak

echo "==> batched probing differential (cross-session single-flight, budgets, chaos, mid-traversal death; 5 runs)"
# Repeated so that an overlap assertion passing only by luck of scheduling
# fails the gate.
for _ in 1 2 3 4 5; do
    cargo test --workspace --release -q --test batch_equivalence
done

echo "==> serving load generator (E16 smoke + E17 overload + E18 warm + E20 batch, records to a scratch directory)"
(cd "$bench_dir" && "$bin/exp_serve" --scale tiny --sessions 2,8,64 --queries 4 --overload --warm --batch) \
    | grep -E "BENCH_JSON|overload p99|fewer probes|fewer probe executions"

echo "==> SERVING.md wire-spec drift check (tables must match protocol.rs codes)"
drift=0
# Every message-type constant (`pub const BYE_ACK: u8 = 0x84;`) must appear in
# the SERVING.md frame tables as a `| \`0x84\` | \`ByeAck\` |` row.
while read -r name code; do
    camel=$(echo "$name" | awk -F_ '{for (i = 1; i <= NF; i++) \
        printf "%s%s", toupper(substr($i,1,1)), tolower(substr($i,2))}')
    grep -Eq "\|[[:space:]]*\`${code}\`[[:space:]]*\|[[:space:]]*\`${camel}\`" SERVING.md \
        || { echo "SERVING.md: missing or renamed message row: ${code} ${camel}"; drift=1; }
done < <(sed -n 's/^ *pub const \([A-Z_]*\): u8 = \(0x[0-9A-Fa-f]*\);.*/\1 \2/p' \
    crates/kwserve/src/protocol.rs)
# Every error code (`1 => Some(ErrorCode::Malformed),`) must appear in the
# SERVING.md error table as a `| 1 | \`Malformed\` |` row.
while read -r num name; do
    grep -Eq "^\|[[:space:]]*${num}[[:space:]]*\|[[:space:]]*\`${name}\`" SERVING.md \
        || { echo "SERVING.md: missing or renamed error row: ${num} ${name}"; drift=1; }
done < <(sed -n 's/^ *\([0-9][0-9]*\) => Some(ErrorCode::\([A-Za-z]*\)).*/\1 \2/p' \
    crates/kwserve/src/protocol.rs)
[[ $drift -eq 0 ]] || { echo "wire-spec tables have drifted from protocol.rs"; exit 1; }

if [[ $fast -eq 0 ]]; then
    echo "==> cargo doc --no-deps (warnings denied)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

    echo "==> cargo clippy --workspace (warnings denied)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> all checks passed"
