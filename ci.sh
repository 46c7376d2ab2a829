#!/usr/bin/env bash
# Full CI gate: build, tests, formatting, lints. Run from the repo root.
#
# The workspace's external dependencies (criterion, proptest, rand) are
# vendored as offline stand-ins under vendor/, wired up as path
# dependencies — so when vendor/ is present the whole pipeline runs with
# --offline and never touches a registry.
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE=()
if [ -d vendor ]; then
    OFFLINE=(--offline)
fi

# Benchmark smoke: a scale-10 sweep must complete without panicking and
# must exercise the verifier's verdict memo — a sweep publishing
# `cache_hits: 0` means the memo went dead again. The overhead guard
# then pins the observability contract: the pipeline with the recorder
# enabled must stay within 5% of the recorder-disabled run (so the
# disabled product path cannot have drifted from the pre-obs code).
# Run standalone with `./ci.sh bench-smoke`.
bench_smoke() {
    echo "==> bench smoke (sweep --scales 10)"
    cargo build "${OFFLINE[@]}" --release -p omislice-bench
    local out=/tmp/omislice-bench-smoke.json
    ./target/release/sweep --scales 10 --out "$out" >/dev/null
    if grep -q '"cache_hits":0,' "$out"; then
        echo "bench smoke FAILED: sweep reports a dead verifier memo" >&2
        exit 1
    fi
    if ! grep -q '"phases":{"trace_us":' "$out"; then
        echo "bench smoke FAILED: sweep JSON lost the per-phase span columns" >&2
        exit 1
    fi
    if ! grep -q '"trace_io":{"save_us":' "$out"; then
        echo "bench smoke FAILED: sweep JSON lost the columnar trace_io columns" >&2
        exit 1
    fi
    echo "==> recorder overhead guard"
    ./target/release/overhead_guard
    echo "bench smoke OK"
}

# Observability smoke: a corpus locate with the journal and provenance
# surfaces on must produce a schema-valid journal whose final pruned
# slice contains the seeded root cause, and the provenance report must
# name that root statement. Run standalone with `./ci.sh obs-smoke`.
obs_smoke() {
    echo "==> obs smoke (corpus locate --obs-out --explain + schema validation)"
    cargo build "${OFFLINE[@]}" --release -p omislice-cli -p omislice-obs
    local journal=/tmp/omislice-obs-smoke.jsonl
    local out=/tmp/omislice-obs-smoke.out
    RUST_BACKTRACE=1 ./target/release/omislice corpus locate sed V3-F2 \
        --obs-out "$journal" --explain >"$out"
    # The CLI prints the seeded root as `  S<id> <source>` at the end.
    local root
    root=$(sed -n 's/^  \(S[0-9][0-9]*\) .*/\1/p' "$out" | tail -n 1)
    if [ -z "$root" ]; then
        echo "obs smoke FAILED: no seeded root statement in the locate output" >&2
        exit 1
    fi
    ./target/release/validate_journal "$journal" --require-root "$root"
    if ! awk '/=== slice provenance/,/^seeded root/' "$out" | grep -q " $root "; then
        echo "obs smoke FAILED: provenance report omits the root cause $root" >&2
        exit 1
    fi
    echo "obs smoke OK ($root captured)"
}

# Trace round-trip smoke: a trace saved with `trace --save` and fed back
# through `locate --trace-in` must be indistinguishable from tracing
# in-process — identical report and identical journal (minus the
# wall-clock `spans` record) — and corrupted or truncated trace files
# must climb the load ladder (warn, re-trace from source, same report),
# never panic. The program prints its wrong output early, before a long
# loop, so the in-process session records its failing run only through
# that output while the saved trace holds the whole run; the journal
# header's `trace_len` must still count the whole run. Run standalone
# with `./ci.sh trace-smoke`.
trace_smoke() {
    echo "==> trace smoke (trace --save / locate --trace-in round trip)"
    cargo build "${OFFLINE[@]}" --release -p omislice-cli
    local dir
    dir=$(mktemp -d)
    cat > "$dir/faulty.omi" <<'EOF'
global flags = 0;
fn main() { let save = input() - 1; flags = 1;
            if save == 1 { flags = 2; } print(flags);
            let i = 0; let s = 0;
            while i < 5000 { s = s + i % 7; i = i + 1; }
            print(s); }
EOF
    cat > "$dir/fixed.omi" <<'EOF'
global flags = 0;
fn main() { let save = input(); flags = 1;
            if save == 1 { flags = 2; } print(flags);
            let i = 0; let s = 0;
            while i < 5000 { s = s + i % 7; i = i + 1; }
            print(s); }
EOF
    ./target/release/omislice trace "$dir/faulty.omi" --input 1 \
        --save "$dir/t.omitrace" 2>"$dir/save.err"
    ./target/release/omislice locate --faulty "$dir/faulty.omi" \
        --fixed "$dir/fixed.omi" --input 1 \
        --obs-out "$dir/live.jsonl" > "$dir/live.out"
    ./target/release/omislice locate --faulty "$dir/faulty.omi" \
        --fixed "$dir/fixed.omi" --input 1 --trace-in "$dir/t.omitrace" \
        --obs-out "$dir/reload.jsonl" > "$dir/reload.out"
    if ! grep -q "root cause captured : yes" "$dir/live.out"; then
        echo "trace smoke FAILED: the live locate missed the root cause" >&2
        exit 1
    fi
    if ! cmp -s "$dir/live.out" "$dir/reload.out"; then
        echo "trace smoke FAILED: reports diverge between live and reloaded trace" >&2
        exit 1
    fi
    if ! diff <(grep -v '"type":"spans"' "$dir/live.jsonl") \
              <(grep -v '"type":"spans"' "$dir/reload.jsonl") >/dev/null; then
        echo "trace smoke FAILED: journals diverge between live and reloaded trace" >&2
        exit 1
    fi
    local saved len
    saved=$(sed -n 's/^saved \([0-9]*\) instance.*/\1/p' "$dir/save.err")
    len=$(grep -o '"trace_len":[0-9]*' "$dir/live.jsonl" | cut -d: -f2)
    if [ -z "$saved" ] || [ "$len" != "$saved" ]; then
        echo "trace smoke FAILED: journal trace_len ${len:-?} is not the whole run's ${saved:-?} instances" >&2
        exit 1
    fi
    head -c 40 "$dir/t.omitrace" > "$dir/trunc.omitrace"
    printf 'garbage' > "$dir/bad.omitrace"
    local f
    for f in trunc bad; do
        if ! ./target/release/omislice locate --faulty "$dir/faulty.omi" \
            --fixed "$dir/fixed.omi" --input 1 \
            --trace-in "$dir/$f.omitrace" >"$dir/$f.out" 2>"$dir/$f.err"; then
            echo "trace smoke FAILED: $f.omitrace did not recover:" >&2
            cat "$dir/$f.err" >&2
            exit 1
        fi
        if ! grep -q "cannot load trace" "$dir/$f.err" \
            || ! grep -q "re-tracing from source" "$dir/$f.err" \
            || grep -q "panicked" "$dir/$f.err"; then
            echo "trace smoke FAILED: $f.omitrace did not degrade cleanly:" >&2
            cat "$dir/$f.err" >&2
            exit 1
        fi
        if ! cmp -s "$dir/live.out" "$dir/$f.out"; then
            echo "trace smoke FAILED: $f.omitrace recovery changed the report" >&2
            exit 1
        fi
    done
    rm -rf "$dir"
    echo "trace smoke OK"
}

# Fault-injection smoke: one `--fault-plan` language for every site.
# Statement faults planted in the verifier's switched runs — panics,
# crashes, budget exhaustion, corrupted checkpoints — must be survived
# without failing the session, and `--stats` must show that each one
# actually fired (a gate whose fault never fires passes vacuously); the
# corrupted checkpoint must also leave the report byte-identical. Every
# pipeline fault — encode/decode corruption, short writes, ENOSPC, mmap
# failure — must be absorbed by the supervisor's degradation ladders
# with zero effect on the localization verdict: the report stays
# byte-identical to the clean run, the journal carries a schema-valid `recovery` record,
# and saved traces come out bit-exact. A pinned deadline expiry must
# exit 3 with a partial report, and the differential harness's chaos
# mode (invariant 7) must hold over a seed window. Run standalone with
# `./ci.sh fault-smoke`.
fault_smoke() {
    echo "==> fault-injection smoke (--fault-plan at every site)"
    cargo build "${OFFLINE[@]}" --release \
        -p omislice-cli -p omislice-obs -p omislice-bench
    local dir
    dir=$(mktemp -d)

    # Statement sites go through `corpus locate`: each plan names the
    # `--stats` counter its fault must move off zero.
    local fault plan fired
    while read -r fault plan fired; do
        echo "   -- sed $fault $plan (corpus locate)"
        if ! RUST_BACKTRACE=1 ./target/release/omislice corpus locate sed "$fault" \
            --fault-plan "$plan" --stats > "$dir/stmt.out" 2> "$dir/stmt.err"; then
            echo "fault smoke FAILED: $plan failed the session:" >&2
            cat "$dir/stmt.err" >&2
            exit 1
        fi
        if ! grep -Eq " [1-9][0-9]* $fired" "$dir/stmt.err"; then
            echo "fault smoke FAILED: $plan never fired (no $fired in --stats)" >&2
            cat "$dir/stmt.err" >&2
            exit 1
        fi
    done <<'PLANS'
V3-F2 S2:0=panic panics isolated
V3-F2 S2:0=oob crashed
V3-F2 S2:0=budget budget-exhausted
V3-F2 S5:0=div-zero crashed
V3-F3 S25:1=corrupt-checkpoint invalid checkpoints
PLANS
    # The corrupted checkpoint (the last plan) falls back to a scratch
    # run: the report must not change.
    ./target/release/omislice corpus locate sed V3-F3 > "$dir/clean-f3.out"
    if ! cmp -s "$dir/clean-f3.out" "$dir/stmt.out"; then
        echo "fault smoke FAILED: corrupt-checkpoint changed the report" >&2
        exit 1
    fi

    # Loop-heavy pair (>4096 trace events): the failing run spans
    # several of the recorder's counted deadline checks.
    cat > "$dir/faulty.omi" <<'EOF'
global acc = 0;
fn main() {
  let n = input();
  let i = 0;
  while i < 1200 {
    acc = acc + i;
    let j = acc / 7;
    let k = j * 3;
    acc = acc - k / 9;
    i = i + 1;
  }
  let flag = input();
  if flag == 1 { acc = 0; }
  print(acc);
}
EOF
    sed 's/flag == 1/flag == 2/' "$dir/faulty.omi" > "$dir/fixed.omi"
    local locate=(./target/release/omislice locate \
        --faulty "$dir/faulty.omi" --fixed "$dir/fixed.omi" --input 5,2)
    "${locate[@]}" > "$dir/clean.out"
    if ! grep -q "root cause captured : yes" "$dir/clean.out"; then
        echo "fault smoke FAILED: clean baseline did not locate the root" >&2
        exit 1
    fi
    ./target/release/omislice trace "$dir/faulty.omi" --input 5,2 \
        --save "$dir/clean.omitrace" 2>/dev/null

    # Save-side sites go through `trace --save`: the retried save must
    # produce a bit-exact trace file.
    for plan in encode=corrupt save=short-write save=enospc; do
        echo "   -- $plan (trace --save)"
        if ! ./target/release/omislice trace "$dir/faulty.omi" --input 5,2 \
            --save "$dir/faulted.omitrace" --fault-plan "$plan" \
            >/dev/null 2>"$dir/faulted.err"; then
            echo "fault smoke FAILED: $plan did not recover:" >&2
            cat "$dir/faulted.err" >&2
            exit 1
        fi
        if ! grep -q "pipeline recovered" "$dir/faulted.err"; then
            echo "fault smoke FAILED: $plan recovery left no trail" >&2
            exit 1
        fi
        if ! cmp -s "$dir/clean.omitrace" "$dir/faulted.omitrace"; then
            echo "fault smoke FAILED: $plan corrupted the saved trace" >&2
            exit 1
        fi
    done

    # Load sites go through `locate --trace-in`: the recovered report
    # must be byte-identical to the clean one, and the journal must
    # carry a schema-valid recovery record.
    for plan in decode=corrupt mmap=fail; do
        echo "   -- $plan (locate)"
        local extra=(--fault-plan "$plan" --obs-out "$dir/faulted.jsonl"
                     --trace-in "$dir/clean.omitrace")
        if ! "${locate[@]}" "${extra[@]}" \
            > "$dir/faulted.out" 2> "$dir/faulted.err"; then
            echo "fault smoke FAILED: $plan did not recover:" >&2
            cat "$dir/faulted.err" >&2
            exit 1
        fi
        if ! cmp -s "$dir/clean.out" "$dir/faulted.out"; then
            echo "fault smoke FAILED: $plan changed the report" >&2
            diff "$dir/clean.out" "$dir/faulted.out" >&2 || true
            exit 1
        fi
        if ! grep -q "pipeline recovered" "$dir/faulted.err"; then
            echo "fault smoke FAILED: $plan recovery left no trail" >&2
            exit 1
        fi
        if ! grep -q '"type":"recovery"' "$dir/faulted.jsonl"; then
            echo "fault smoke FAILED: $plan journal has no recovery record" >&2
            exit 1
        fi
        ./target/release/validate_journal "$dir/faulted.jsonl"
    done

    echo "   -- deadline:1=expire (exit 3, partial report)"
    local code=0
    "${locate[@]}" --fault-plan deadline:1=expire \
        > "$dir/partial.out" 2>/dev/null || code=$?
    if [ "$code" -ne 3 ]; then
        echo "fault smoke FAILED: deadline expiry exited $code, want 3" >&2
        exit 1
    fi
    if ! grep -q "omislice fault localization report" "$dir/partial.out"; then
        echo "fault smoke FAILED: no partial report after deadline expiry" >&2
        exit 1
    fi

    echo "   -- diffcheck --chaos (invariant 7 over a seed window)"
    RUST_BACKTRACE=1 ./target/release/diffcheck --seeds 25 --quick --chaos
    rm -rf "$dir"
    echo "fault smoke OK"
}

# Verification-scheduler smoke: the checkpoint-forest scheduler must
# actually pay off, not just pass its unit tests. Three probes: (1) a
# 2-iteration corpus locate must answer some switched runs from the
# cross-iteration memo (memo_hits == 0 means the persistent memo went
# dead), and trace exactly its re-executions plus the failing run (the
# reference and profile runs keep values only, and each switched run
# executes once); (2) gzip V2-F3, whose one iteration asks the user for
# dozens of benign judgements, must record exactly one
# `confidence-prune` span per PruneSlicing round (iterations + 1) — a
# count, so no timing — or the locator went back to a full pruning pass
# per judgement; (3) a sed ×250 sweep's resumed verification pass must
# beat the from-scratch pass by at least 2× (the published sed ×1000
# ratio is ~0.09; the 0.5 gate leaves headroom for noisy CI hosts while
# still catching a disabled or regressed resume path). Run standalone
# with `./ci.sh verify-smoke`.
verify_smoke() {
    echo "==> verify smoke (checkpoint-forest scheduler gate)"
    cargo build "${OFFLINE[@]}" --release -p omislice-cli -p omislice-bench
    local metrics=/tmp/omislice-verify-smoke.metrics
    RUST_BACKTRACE=1 ./target/release/omislice corpus locate sed V3-F2 \
        --metrics text >"$metrics"
    local iters hits
    iters=$(awk '$1 == "omislice_locate_iterations" {print int($2)}' "$metrics")
    hits=$(awk '$1 == "omislice_verify_memo_hits" {print int($2)}' "$metrics")
    if [ "${iters:-0}" -lt 2 ]; then
        echo "verify smoke FAILED: locate took ${iters:-0} iterations, want >= 2 (memo reuse untestable)" >&2
        exit 1
    fi
    if [ "${hits:-0}" -lt 1 ]; then
        echo "verify smoke FAILED: cross-iteration memo never hit over $iters iterations" >&2
        exit 1
    fi
    echo "   locate: iterations=$iters memo_hits=$hits"
    # Only the failing run and the switched runs are traced: the oracle's
    # reference run and the profile runs are value runs, so the tracer
    # runs once per re-execution plus once for the failing trace.
    local traced reexecs
    traced=$(awk '$1 == "omislice_counter_tracer_runs" {print int($2)}' "$metrics")
    reexecs=$(awk '$1 == "omislice_verify_reexecutions" {print int($2)}' "$metrics")
    if [ -z "$traced" ] || [ -z "$reexecs" ] || [ "$traced" -ne $((reexecs + 1)) ]; then
        echo "verify smoke FAILED: sed V3-F2 traced ${traced:-?} runs for ${reexecs:-?} re-executions, want re-executions + 1 (a value-only run was traced, or a switched run executed twice)" >&2
        exit 1
    fi
    echo "   traced: tracer_runs=$traced = reexecutions $reexecs + the failing run"
    # A wrong output printed before a long loop: every switched run
    # stops recording at that output's counterpart and must hand the loop
    # to the tail sink, and the oracle's reference run must keep no more
    # values than the failing trace through that output has instances. A
    # silent fall-back to full-sink tails, or a reference kept whole,
    # fails here.
    local dir
    dir=$(mktemp -d)
    local body='flags = 1; if save == 1 { flags = 2; } print(flags);
            let i = 0; let s = 0;
            while i < 5000 { s = s + i % 7; i = i + 1; }
            print(s); }'
    printf 'global flags = 0;\nfn main() { let save = input() - 1; %s\n' "$body" > "$dir/faulty.omi"
    printf 'global flags = 0;\nfn main() { let save = input(); %s\n' "$body" > "$dir/fixed.omi"
    if ! RUST_BACKTRACE=1 ./target/release/omislice locate --faulty "$dir/faulty.omi" \
        --fixed "$dir/fixed.omi" --input 1 --metrics text >"$metrics" 2>"$dir/err"; then
        echo "verify smoke FAILED: locate on the early-failure program:" >&2
        cat "$dir/err" >&2
        exit 1
    fi
    rm -rf "$dir"
    local handoffs kept view
    reexecs=$(awk '$1 == "omislice_verify_reexecutions" {print int($2)}' "$metrics")
    handoffs=$(awk '$1 == "omislice_verify_tail_handoffs" {print int($2)}' "$metrics")
    kept=$(awk '$1 == "omislice_reference_kept_values" {print int($2)}' "$metrics")
    view=$(awk '$1 == "omislice_trace_view_instances" {print int($2)}' "$metrics")
    if [ "${reexecs:-0}" -lt 1 ] || [ "${handoffs:-x}" != "$reexecs" ]; then
        echo "verify smoke FAILED: ${handoffs:-?} tail hand-offs for ${reexecs:-?} re-executions, want one per re-execution" >&2
        exit 1
    fi
    if [ -z "$kept" ] || [ -z "$view" ] || [ "$kept" -gt "$view" ]; then
        echo "verify smoke FAILED: the oracle keeps ${kept:-?} reference values for a ${view:-?}-instance trace through the wrong output" >&2
        exit 1
    fi
    echo "   tail: hand-offs=$handoffs = reexecutions $reexecs; reference kept $kept values <= $view view instances"
    RUST_BACKTRACE=1 ./target/release/omislice corpus locate gzip V2-F3 \
        --metrics text >"$metrics"
    local prunings rounds
    iters=$(awk '$1 == "omislice_locate_iterations" {print int($2)}' "$metrics")
    prunings=$(awk '$1 == "omislice_locate_user_prunings" {print int($2)}' "$metrics")
    rounds=$(awk '$1 == "omislice_span_confidence_prune_count" {print int($2)}' "$metrics")
    if [ "${rounds:-0}" -ne $((${iters:-0} + 1)) ]; then
        echo "verify smoke FAILED: gzip V2-F3 recorded ${rounds:-0} confidence-prune spans over $iters iterations, want $((${iters:-0} + 1)) (one per PruneSlicing round)" >&2
        exit 1
    fi
    if [ "${prunings:-0}" -lt 2 ]; then
        echo "verify smoke FAILED: gzip V2-F3 asked for ${prunings:-0} benign judgements, want >= 2 (round count untestable)" >&2
        exit 1
    fi
    echo "   prune: iterations=$iters user_prunings=$prunings confidence_prune_spans=$rounds"
    local out=/tmp/omislice-verify-smoke.json
    ./target/release/sweep --scales 250 --out "$out" >/dev/null
    local ratio
    ratio=$(grep '"benchmark":"sed"' "$out" \
        | sed -n 's/.*"scratch_us":\([0-9.]*\),"resumed_us":\([0-9.]*\).*/\1 \2/p' \
        | awk '{printf "%.3f", $2 / $1}')
    if [ -z "$ratio" ]; then
        echo "verify smoke FAILED: sweep JSON lost the scratch/resumed verify columns" >&2
        exit 1
    fi
    if ! awk "BEGIN{exit !($ratio < 0.5)}"; then
        echo "verify smoke FAILED: sed x250 resumed/scratch verify ratio $ratio, want < 0.5" >&2
        exit 1
    fi
    echo "verify smoke OK (resumed/scratch ratio $ratio)"
}

# Recorder smoke: one parallel corpus locate writes all three outputs of
# one recording. The `--profile-out` Chrome-trace JSON must parse, name
# every worker track, carry the memo/checkpoint-bytes counter tracks,
# and report a utilization sum no larger than the worker count, with a
# non-empty collapsed-stack flamegraph next to it; the `--obs-out`
# journal must validate; and the `--metrics json` object must report no
# dropped events. A second locate, grep V4-F2 at `--jobs 2`, fans its
# candidates out over two workers: each must be claimed exactly once end
# to end, so its profile must hold one `verify.candidate` slice per
# re-execution. The overhead guard then holds the enabled recorder to
# the <=5% contract. Run standalone with `./ci.sh profile-smoke`.
profile_smoke() {
    echo "==> profile smoke (corpus locate --profile-out --obs-out --metrics json)"
    cargo build "${OFFLINE[@]}" --release \
        -p omislice-cli -p omislice-obs -p omislice-bench
    local prof=/tmp/omislice-profile-smoke.json
    local journal=/tmp/omislice-profile-smoke.jsonl
    local metrics=/tmp/omislice-profile-smoke.metrics.json
    RUST_BACKTRACE=1 ./target/release/omislice corpus locate sed V3-F2 \
        --jobs 4 --profile-out "$prof" --obs-out "$journal" --metrics json \
        >"$metrics" 2>/dev/null
    ./target/release/validate_profile "$prof" --jobs 4
    ./target/release/validate_journal "$journal"
    if [ ! -s "$prof.folded" ]; then
        echo "profile smoke FAILED: empty flamegraph at $prof.folded" >&2
        exit 1
    fi
    if ! grep -q '"counter_profile_drops":0[,}]' "$metrics"; then
        echo "profile smoke FAILED: the recorder dropped events (see counter_profile_drops in $metrics)" >&2
        exit 1
    fi
    RUST_BACKTRACE=1 ./target/release/omislice corpus locate grep V4-F2 \
        --jobs 2 --profile-out "$prof" --metrics json >"$metrics" 2>/dev/null
    ./target/release/validate_profile "$prof" --jobs 2
    local slices reexecs
    slices=$({ grep -o '"name":"verify.candidate"' "$prof" || true; } | wc -l)
    reexecs=$(sed -n 's/.*"verify_reexecutions":\([0-9]*\).*/\1/p' "$metrics")
    if [ -z "$reexecs" ] || [ "$reexecs" -eq 0 ] || [ "$slices" -ne "$reexecs" ]; then
        echo "profile smoke FAILED: grep V4-F2 --jobs 2 recorded $slices verify.candidate slices for ${reexecs:-?} re-executions, want one per re-execution" >&2
        exit 1
    fi
    echo "   claims: $slices verify.candidate slices = $reexecs re-executions"
    echo "==> recorder overhead guard"
    ./target/release/overhead_guard
    echo "profile smoke OK"
}

# Serve smoke: a resident `omislice serve` instance must come up on an
# ephemeral port, answer every endpoint (liveness, slice, cold locate,
# warm cache-hit locate with a byte-identical report, structured 400/404
# errors, metrics), isolate an injected handler panic as a structured
# 500 while concurrent clean requests stay byte-identical, and feed the
# sweep's `--via` client mode so published rows carry served-latency
# columns next to the cold CLI baseline. Run standalone with
# `./ci.sh serve-smoke`.
serve_smoke() {
    echo "==> serve smoke (omislice serve + serveprobe + sweep --via)"
    cargo build "${OFFLINE[@]}" --release -p omislice-cli -p omislice-bench
    local log=/tmp/omislice-serve-smoke.log
    ./target/release/omislice serve --addr 127.0.0.1:0 --workers 4 >"$log" 2>&1 &
    SERVE_PID=$!
    trap 'kill "${SERVE_PID:-0}" 2>/dev/null || true' EXIT
    # The server prints `omislice serve listening on <addr> (N workers)`
    # once bound; poll for it to learn the ephemeral port.
    local addr="" i
    for i in $(seq 1 50); do
        addr=$(sed -n 's/^omislice serve listening on \([^ ]*\).*/\1/p' "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "serve smoke FAILED: server never reported its bound address" >&2
        cat "$log" >&2
        exit 1
    fi
    RUST_BACKTRACE=1 ./target/release/serveprobe --addr "$addr" --chaos-check
    local out=/tmp/omislice-serve-smoke.json
    ./target/release/sweep --scales 10 --reps 1 --via "$addr" --out "$out" >/dev/null
    if ! grep -q '"serve":{"fault":' "$out"; then
        echo "serve smoke FAILED: sweep --via published no serve columns" >&2
        exit 1
    fi
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    echo "serve smoke OK ($addr)"
}

# Differential-harness smoke: the 200-seed quick sweep of `diffcheck`
# (fixed seed set, so deterministic and bounded) must hold every
# cross-pipeline invariant — DS ⊆ RS, pruned ⊆ DS, indexed alignment ==
# naive oracle, verifier determinism across jobs × resume × fault plans,
# locate finds the planted root, journals byte-identical. Run standalone
# with `./ci.sh fuzz-smoke`.
fuzz_smoke() {
    echo "==> fuzz smoke (diffcheck --seeds 200 --quick)"
    cargo build "${OFFLINE[@]}" --release -p omislice-bench
    RUST_BACKTRACE=1 ./target/release/diffcheck --seeds 200 --quick
    echo "fuzz smoke OK"
}

# Benchmark-package check: omibench (a standalone package with its own
# lock file) compiles against the workspace crates' public API, so a
# change that removes or reshapes an item it uses must fail here, not
# in the benchmark run. Runs the package's own tests in the shared
# release target. Run standalone with `./ci.sh omibench-check`.
omibench_check() {
    echo "==> omibench check (benchmark package tests)"
    CARGO_TARGET_DIR=target cargo test "${OFFLINE[@]}" --release -q \
        --manifest-path omibench/Cargo.toml
    echo "omibench check OK"
}

if [ "${1:-}" = "fault-smoke" ]; then
    fault_smoke
    exit 0
fi
if [ "${1:-}" = "fuzz-smoke" ]; then
    fuzz_smoke
    exit 0
fi
if [ "${1:-}" = "bench-smoke" ]; then
    bench_smoke
    exit 0
fi
if [ "${1:-}" = "obs-smoke" ]; then
    obs_smoke
    exit 0
fi
if [ "${1:-}" = "trace-smoke" ]; then
    trace_smoke
    exit 0
fi
if [ "${1:-}" = "verify-smoke" ]; then
    verify_smoke
    exit 0
fi
if [ "${1:-}" = "profile-smoke" ]; then
    profile_smoke
    exit 0
fi
if [ "${1:-}" = "serve-smoke" ]; then
    serve_smoke
    exit 0
fi
if [ "${1:-}" = "omibench-check" ]; then
    omibench_check
    exit 0
fi

echo "==> cargo build --release"
cargo build "${OFFLINE[@]}" --release --workspace

# The shipped binary links no test harness: `omislice-bench` (diffcheck,
# the serve client, the naive oracles it drives) may reach the CLI only
# through dev-dependencies.
echo "==> release dependency gate (omislice-cli links no omislice-bench)"
cli_deps=$(cargo tree "${OFFLINE[@]}" -e normal -p omislice-cli)
if grep -q 'omislice-bench' <<<"$cli_deps"; then
    echo "release dependency gate FAILED: omislice-cli depends on omislice-bench:" >&2
    grep 'omislice-bench' <<<"$cli_deps" >&2
    exit 1
fi

echo "==> cargo test"
cargo test "${OFFLINE[@]}" -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy "${OFFLINE[@]}" --workspace --all-targets -- -D warnings

# Rustdoc gate: a removal must not leave a dangling intra-doc link.
# `--lib` keeps the `omislice` binary's docs from colliding with the
# `omislice` library's.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc "${OFFLINE[@]}" --no-deps --workspace --lib

omibench_check

fault_smoke

fuzz_smoke

bench_smoke

obs_smoke

trace_smoke

verify_smoke

profile_smoke

serve_smoke

echo "CI OK"
