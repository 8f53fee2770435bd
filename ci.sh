#!/usr/bin/env bash
# CI gate for the Helios workspace: formatting, lints (including an
# unwrap/expect deny gate for the typed-error crates fl, net, obs,
# scenario, helios, nn, device and data), first-party line
# counts, a public-surface report whose uncalled pub fns must be on a
# kept list, a docs-name-only-what-exists gate, a no-shared-statics
# gate, a single-thread-scope gate, a one-mask-type gate, a
# derived-serde-schemas gate, a dev-profile checks gate, docs, release
# build, tests, the kernel parity suites, the goldens and the wire-v2
# top-k pins again under release codegen, the goldens once more with glibc's FMA/AVX2 libm
# variants off and once from an x86-64 baseline build, the
# thread-scoped-state test binaries and the packed-parity suite at one
# and eight test threads, and the repository benchmark package
# (benchmark/) built, tested and smoke-run. Takes no arguments.
set -euo pipefail
cd "$(dirname "$0")"
[ $# -eq 0 ] || { echo "usage: ./ci.sh (takes no arguments)" >&2; exit 2; }

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "clippy unwrap/expect deny gate (crates/fl, crates/net, crates/obs, crates/scenario, crates/helios, crates/nn, crates/device, crates/data)"
# These crates carry `#![cfg_attr(not(test), deny(clippy::unwrap_used,
# clippy::expect_used))]`, locking in the PR 3 typed-error migration for
# non-test code (nn and device never had such a call); this step compiles
# them standalone so a violation fails CI even if the workspace pass
# above is ever narrowed.
cargo clippy -p helios-fl -p helios-net -p helios-obs -p helios-scenario -p helios-core \
    -p helios-nn -p helios-device -p helios-data --all-targets

step "first-party non-test line counts per crate"
# Lines before the first `#[cfg(test)]` of every file under
# crates/*/src, summed per crate and then over all crates: the size
# trajectory appended to results/BENCH_history.jsonl with each PR.
total=0
for crate in crates/*/; do
    count=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk -v crate="$(basename "$crate")" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { lines++ }
            END { printf "%-10s %6d\n", crate, lines }')
    echo "$count"
    total=$((total + ${count##* }))
done
printf '%-10s %6d\n' total "$total"

step "public surface per crate, and no pub fn / pub const without a non-test caller"
# Non-test `pub fn|struct|enum|const|type|trait` declarations per crate
# (anything a caller outside the crate does not use is `pub(crate)`),
# then every `pub fn` / `pub const` name that no non-test code mentions
# outside its definition and `use` lines, searching crates/*/src (the
# paper bins included), examples and benchmark/src. A name on that list
# must be in `kept` below with the caller it stays for; a new one is an
# orphan to delete or narrow, and a kept name that gained a caller comes
# off the list.
kept=(
    # analysis.rs's Prop 2 algebra, pinned by its unit tests; the ROADMAP
    # item on Fig 6 and Prop 2 decides whether a run uses it.
    variance_constraint_holds topv_selection_probabilities
    optimal_selection_probabilities expected_active_count active_count_bound
    admit_device          # paper_properties.rs: the §VI.C dynamic-join claim
    content_digest        # trace_determinism.rs: the pinned trace digest
    naive_matmul          # gemm_parity.rs: oracle of the blocked GEMM
    transpose             # gemm_parity.rs, tensor proptests: matmul_tn/_nt oracle
    eye                   # tensor proptests: matmul identity oracle
    reset_workspace_stats # gemm_parity.rs: the workspace realloc count it pins
    neuron_param_indices  # proptests.rs: param-mask expansion oracle
    with_jitter           # trace_determinism.rs, network_sim.rs: the jittered link
)
for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk -v crate="$(basename "$crate")" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests && /^[ \t]*pub (fn|struct|enum|const|type|trait) / { n++ }
            END { printf "%-10s %6d\n", crate, n }'
done
echo "pub fn / pub const names with no non-test caller:"
find crates/*/src examples benchmark/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk -v kept="${kept[*]}" '
        BEGIN { split(kept, k, " "); for (i in k) allowed[k[i]] = 1 }
        FNR == 1 { in_tests = 0; in_use = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { gsub(/"([^"\\]|\\.)*"/, "\"\""); sub(/\/\/.*/, "") }
        /^[ \t]*(pub )?use / { in_use = 1 }
        in_use { if (/;/) in_use = 0; next }
        FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match($0, /^[ \t]*pub (const )?(fn|const) [A-Za-z_0-9]+/) {
            n = split(substr($0, RSTART, RLENGTH), w, /[ \t]+/)
            defs[w[n]]++; where[w[n]] = FILENAME ":" FNR
        }
        {
            gsub(/[^A-Za-z_0-9]+/, " ")
            n = split($0, t, " ")
            for (i = 1; i <= n; i++) seen[t[i]]++
        }
        END {
            for (name in defs) if (seen[name] == defs[name]) {
                printf "  %-32s %s%s\n", name, where[name], (name in allowed) ? "" : "  <- new orphan"
                bad = bad || !(name in allowed)
                orphan[name] = 1
            }
            for (name in allowed) if (!(name in orphan)) {
                printf "  %-32s has a non-test caller (or is gone): drop it from kept\n", name
                bad = 1
            }
            exit bad
        }' | sort

step "docs name only what exists (DESIGN.md, README.md, EXPERIMENTS.md, results/README.md)"
# Every backticked identifier in these docs that looks like code (a `::`
# path, or a name with an `_` or a capital inside it) must occur in the
# tree's Rust code (comments stripped), in results/*.jsonl, or as the stem
# of a .rs file (a bin or a test file). Each segment of a path counts; a
# call's arguments, a file path's directories and its `.rs` are dropped
# first. These docs cite ROADMAP items by title, never by number.
# benchmark/README.md is left out: it still names the deleted
# `set_packed_execution` and `HostMetricsScope`, and it is edited only
# together with the benchmark itself.
history=(
    # DESIGN.md §4h: the whole-fleet functions the suffixed ones outlived.
    train_all cycle_comm_bytes resource_based_env resource_based_combined
    # DESIGN.md §2: a lock crate the deterministic engine does not need.
    parking_lot
)
docs=(DESIGN.md README.md EXPERIMENTS.md results/README.md)
{
    find . \( -path ./target -o -path ./benchmark/target -o -path ./.bench_build \) -prune \
        -o -name '*.rs' -print
    find results -maxdepth 1 -name '*.jsonl'
    printf '%s\n' "${docs[@]}"
} | sort | tr '\n' '\0' | xargs -0 awk -v history="${history[*]}" '
    BEGIN { split(history, h, " "); for (i in h) allowed[h[i]] = 1 }
    FILENAME ~ /\.md$/ {
        if (/[Ii]tems? #?[0-9]/) {
            printf "%s:%d: cites a ROADMAP item by number\n", FILENAME, FNR
            bad = 1
        }
        line = $0
        while (match(line, /`[^`]+`/)) {
            span = substr(line, RSTART + 1, RLENGTH - 2)
            line = substr(line, RSTART + RLENGTH)
            name = span
            sub(/\(.*\)$/, "", name)
            if (name ~ /^([A-Za-z0-9_.-]+\/)*[A-Za-z0-9_]+\.rs(::|$)/) {
                sub(/^([A-Za-z0-9_.-]+\/)+/, "", name)
                sub(/\.rs/, "", name)
            }
            gsub(/r#/, "", name)
            if (name !~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*$/) continue
            if (name !~ /::|_|[a-z0-9][A-Z]/ || name in allowed) continue
            names[++n] = name; at[n] = FILENAME ":" FNR
        }
        next
    }
    FNR == 1 {
        stem = FILENAME; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem); known[stem] = 1
    }
    FILENAME ~ /\.rs$/ { sub(/\/\/.*/, "") }
    {
        gsub(/[^A-Za-z0-9_]+/, " ")
        m = split($0, t, " ")
        for (i = 1; i <= m; i++) known[t[i]] = 1
    }
    END {
        for (i = 1; i <= n; i++) {
            k = split(names[i], seg, "::")
            for (j = 1; j <= k; j++) if (!(seg[j] in known)) {
                printf "%s: `%s` names nothing in the code\n", at[i], names[i]
                bad = 1
                break
            }
        }
        printf "%d backticked names checked\n", n
        exit bad
    }'

step "no shared mutable statics (non-test code of crates/*/src, all of tests/)"
# State belongs to the thread that drives the run: bus, counters and
# thread budget are `thread_local!` Cells, so no test needs a lock and
# no run sees another's trace or counts. The only statics left are those
# `thread_local!` bodies and the const `CRC_TABLES`; a new process-wide
# atomic, lock or lazy cell fails here.
find crates/*/src tests -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ && FILENAME !~ /^tests\// { in_tests = 1 }
        !in_tests && /(^|[^a-z_\047])static( mut)? +[A-Za-z_0-9]+ *:.*(Atomic[A-Z]|Mutex|RwLock|OnceLock|LazyLock)/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        END { exit bad }'

step "one thread::scope (non-test code of crates/*/src: tensor/src/parallel.rs only)"
# Every fan-out rides on the private `fan_out` core, whose join folds
# worker counters into the caller; a second scope would spawn threads
# whose counts never reach the thread that drives the run.
scopes=$(find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /thread::scope\(/ { printf "%s:%d\n", FILENAME, FNR }')
echo "$scopes"
if [ "$(echo "$scopes" | grep -c .)" -ne 1 ] || [[ "$scopes" != crates/tensor/src/parallel.rs:* ]]; then
    echo "expected exactly one thread::scope, in crates/tensor/src/parallel.rs" >&2
    exit 1
fi

step "one mask type (non-test code of crates/*/src: no Vec<bool> or [bool])"
# Unit and parameter masks are `UnitMask` bit-words from soft-training
# selection to aggregation, stored the way the wire stores them; so are
# the ReLU and residual activation-sign caches.
find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /(Vec<bool>|\[bool\])/ {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        END { exit bad }'

step "derived serde schemas (non-test code of crates/*/src: no hand-written Serialize/Deserialize)"
# Every type that crosses JSON, the trace schema included, derives its
# impls through the vendored serde_derive, so each schema is written once,
# by its declaration. A hand-written impl would be a second copy to keep
# in step; teach the derive the shape instead.
find crates/*/src -name '*.rs' -print0 | sort -z |
    xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /impl(<[^>]*>)? +(::)?(serde::)?(Serialize|Deserialize) +for / {
            printf "%s:%d: %s\n", FILENAME, FNR, $0
            bad = 1
        }
        END { exit bad }'

step "dev profile keeps debug assertions and overflow checks (Cargo.toml)"
# Tier-1 tests build the dev profile at opt-level 1 for speed; the
# checks that caught real bugs there (debug_assert!, integer overflow)
# must stay on. Both are pinned to true under [profile.dev], and no
# profile may turn either off.
awk '
    /^\[/ { dev = ($0 == "[profile.dev]") }
    dev && /^(debug-assertions|overflow-checks) *= *true *$/ { on[$1]++ }
    /^(debug-assertions|overflow-checks) *= *false/ { printf "Cargo.toml:%d: %s\n", FNR, $0; bad = 1 }
    END {
        if (!on["debug-assertions"] || !on["overflow-checks"]) {
            print "[profile.dev] must set debug-assertions = true and overflow-checks = true"
            bad = 1
        }
        exit bad
    }' Cargo.toml

step "cargo doc (warnings are errors)"
# Scoped to first-party crates: the vendored deps are workspace members
# but their docs are upstream's, not ours to lint.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
    -p helios-tensor -p helios-nn -p helios-data -p helios-device \
    -p helios-net -p helios-fl -p helios-core -p helios-bench \
    -p helios-obs -p helios-scenario -p helios-examples -p helios-integration

step "cargo build --release"
cargo build --release --workspace

step "cargo test -q"
cargo test -q --workspace

step "kernel parity and goldens under release codegen (helios-tensor, helios-nn, helios-fl and helios-net unit tests, gemm_parity, parallel_parity, golden_metrics, end_to_end, network_sim, fleet_scale, fanout_parity, wire_v2)"
# The test profile builds at opt-level 1, where the microkernels may not
# vectorize; the benchmark times opt-level 3. These suites pin the
# kernels, packed execution and inference bitwise against their
# oracles, and the goldens pin whole runs, so they run again on the
# code the benchmark runs. The aggregation fold vectorizes only under
# optimization too, so its streaming-vs-collect-then-average oracle
# (helios-fl's unit tests) and the routed-fleet suites run here as
# well. The transport builds and CRC-checks a corrupted attempt's
# damaged copy only in a `debug_assert!`, which fires in the dev-profile
# `cargo test` above alone, so helios-net's transport and round tests
# run here too, on the release path that skips the copy. `fleet_topk`
# times release-built top-k encoding, so wire_v2's bitwise pin (top-k
# at ratio 1.0) and its tolerance harness run here as well. Named
# targets only: helios-integration's lib tests check debug assertions,
# which release turns off.
cargo test -q --release -p helios-tensor --lib
cargo test -q --release -p helios-nn --lib
cargo test -q --release -p helios-fl --lib
cargo test -q --release -p helios-net --lib
cargo test -q --release -p helios-integration --test gemm_parity --test parallel_parity \
    --test golden_metrics --test end_to_end --test network_sim --test fleet_scale \
    --test fanout_parity --test wire_v2

step "libm and vector-width tripwire: goldens with glibc's FMA/AVX2 libm off, and from an x86-64 baseline build"
# glibc picks `expf`, `logf`, `cos` and `cosf` by CPU feature at load
# time, and .cargo/config.toml builds for the host CPU. The bitwise
# goldens must depend on neither, so they run once with those libm
# variants switched off and once from a build for the x86-64 baseline
# (RUSTFLAGS replaces the config's flags; its own target directory
# keeps the host build intact). Either fails the moment a result moves.
goldens=(--test golden_metrics --test trace_determinism --test end_to_end --test paper_properties
    --test scenario_engine)
GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA,-AVX2 \
    cargo test -q --release -p helios-integration "${goldens[@]}"
RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64-baseline \
    cargo test -q --release -p helios-integration "${goldens[@]}"

step "thread-scoped state: tracing and counting tests at one test thread and eight"
# Every test in these installs trace sinks or reads counter deltas with
# no lock around it: two integration binaries and the packed-parity
# suite (the `packed_parity` module of helios-nn's unit tests, which
# compares kernel-flop deltas). One test thread runs them all in
# sequence on the same thread-locals (nothing may leak from test to
# test); eight interleaves them (nothing may leak across threads).
for n in 1 8; do
    cargo test -q -p helios-integration --test trace_determinism \
        --test scenario_engine -- --test-threads="$n"
    cargo test -q -p helios-nn --lib packed_parity -- --test-threads="$n"
done

step "repository benchmark builds and smoke-runs (benchmark/)"
# benchmark/ is a cargo package of its own, so none of the workspace
# commands above compile it: a changed signature on the public surface
# it drives (listed in benchmark/README.md) would otherwise surface only
# when the benchmark driver fails to produce numbers.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --quick

step "CI green"
