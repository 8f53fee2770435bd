#!/usr/bin/env bash
# CI gate for the Helios workspace: formatting, lints (including an
# unwrap/expect deny gate for the typed-error crates), first-party line
# counts, a public-surface report (never fails), a no-shared-statics
# gate, a single-thread-scope gate, a one-mask-type gate, a
# derived-serde-schemas gate, a dev-profile checks gate, docs, release
# build, tests, the kernel parity suites and the goldens again under
# release codegen, the goldens once more with glibc's FMA/AVX2 libm
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

step "clippy unwrap/expect deny gate (crates/fl, crates/net, crates/obs, crates/scenario, crates/helios)"
# These crates carry `#![cfg_attr(not(test), deny(clippy::unwrap_used,
# clippy::expect_used))]`, locking in the PR 3 typed-error migration for
# non-test code; this step compiles them standalone so a violation fails
# CI even if the workspace pass above is ever narrowed.
cargo clippy -p helios-fl -p helios-net -p helios-obs -p helios-scenario -p helios-core \
    --all-targets

step "first-party non-test line counts per crate"
# Lines before the first `#[cfg(test)]` of every file under
# crates/*/src, summed per crate: the size trajectory appended to
# results/BENCH_history.jsonl with each PR.
for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk -v crate="$(basename "$crate")" '
            FNR == 1 { in_tests = 0 }
            /#\[cfg\(test\)\]/ { in_tests = 1 }
            !in_tests { lines++ }
            END { printf "%-10s %6d\n", crate, lines }'
done

step "public surface per crate (report only, never fails)"
# Non-test `pub fn|struct|enum|const|type|trait` declarations per crate
# (anything a caller outside the crate does not use is `pub(crate)`),
# then every `pub fn` / `pub const` name that no non-test code mentions
# outside its definition and `use` lines, searching crates/*/src (the
# paper bins included), examples and benchmark/src. Each name listed
# is kept for an integration-test or documented caller; a new one is
# an orphan to delete or narrow.
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
    xargs -0 awk '
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
        END { for (name in defs) if (seen[name] == defs[name]) printf "  %-32s %s\n", name, where[name] }' |
    sort || true

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

step "kernel parity and goldens under release codegen (helios-tensor and helios-nn unit tests, gemm_parity, parallel_parity, golden_metrics, end_to_end)"
# The test profile builds at opt-level 1, where the microkernels may not
# vectorize; the benchmark times opt-level 3. These suites pin the
# kernels, packed execution and inference bitwise against their
# oracles, and the goldens pin whole runs, so they run again on the
# code the benchmark runs. Named targets only: helios-integration's lib
# tests check debug assertions, which release turns off.
cargo test -q --release -p helios-tensor --lib
cargo test -q --release -p helios-nn --lib
cargo test -q --release -p helios-integration --test gemm_parity --test parallel_parity \
    --test golden_metrics --test end_to_end

step "libm and vector-width tripwire: goldens with glibc's FMA/AVX2 libm off, and from an x86-64 baseline build"
# glibc picks `expf`, `logf`, `cos` and `cosf` by CPU feature at load
# time, and .cargo/config.toml builds for the host CPU. The bitwise
# goldens must depend on neither, so they run once with those libm
# variants switched off and once from a build for the x86-64 baseline
# (RUSTFLAGS replaces the config's flags; its own target directory
# keeps the host build intact). Either fails the moment a result moves.
goldens=(--test golden_metrics --test trace_determinism --test end_to_end --test paper_properties)
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
