#!/usr/bin/env bash
# Guard against the per-concern variant explosion returning.
#
# Cross-cutting behavior (metrics, tracing, fault injection, retries,
# scheduling, tuning) rides in an `ExecContext` handed to the one generic
# entry point per layer (`Engine::solve_with`, `task_queue::run`,
# `cell_sim::machine::simulate`) — it must NOT come back as new
# `_metered` / `_traced` / `_faulted` / `_instrumented` function names.
# The one name below is a genuine fault-injection primitive, not a variant;
# adding a new suffixed function fails CI: extend `ExecContext` instead.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist() {
    cat <<'EOF'
write_faulted
EOF
}
# write_faulted: the mailbox's fault-injection primitive — a modelled
#   lossy write, not an instrumented variant of a clean one.

found=$(grep -rhoE 'fn [a-zA-Z0-9_]+_(metered|traced|faulted|instrumented)\s*[(<]' \
            crates/*/src --include='*.rs' \
        | sed -E 's/^fn ([a-zA-Z0-9_]+).*/\1/' | sort -u)

new=$(comm -23 <(printf '%s\n' "$found") <(allowlist | sort -u))
if [ -n "$new" ]; then
    echo "ERROR: new per-concern API variant(s) introduced:" >&2
    printf '  %s\n' $new >&2
    echo "Thread the concern through ExecContext / the generic entry point" >&2
    echo "instead of adding a suffixed variant (see docs/EXEC_CONTEXT.md)." >&2
    exit 1
fi
echo "API variant guard: no new _metered/_traced/_faulted/_instrumented names."

# The migration to `ExecContext` is finished: no deprecated item, and no
# carve-out that would let a caller keep using one, anywhere in the tree.
deprecated=$(grep -rnE '#\[deprecated|allow\(deprecated\)' crates tests examples \
                 --include='*.rs' || true)
if [ -n "$deprecated" ]; then
    echo "ERROR: deprecated items or allow(deprecated) carve-outs:" >&2
    printf '  %s\n' "$deprecated" >&2
    echo "Delete the old spelling and migrate its callers instead." >&2
    exit 1
fi
echo "Deprecation guard: no #[deprecated] items or allow(deprecated) carve-outs."

# Host-native kernels dispatch at run time behind one public function per
# element type and step (`minplus_rank_update_f32`, `_f64`, `_i32`, `_i64`,
# the rule-lane steps `gather_lanes`, `lanewise_rank_update_i32x8` and
# `fold_lanes`, and the rule-lane same-tile edge `edge_lanes`); an ISA- or
# speed-suffixed public twin would let callers
# bypass the dispatch and its fallback.
isa=$(grep -rnoE 'pub(\([a-z]+\))? (unsafe )?fn [a-zA-Z0-9_]+_(avx2|avx512[a-z]*|sse[0-9]*|neon|fast|portable)\s*[(<]' \
          crates/*/src --include='*.rs' || true)
if [ -n "$isa" ]; then
    echo "ERROR: public per-ISA / fast-path kernel variant(s):" >&2
    printf '  %s\n' "$isa" >&2
    echo "Dispatch inside the one public entry point instead." >&2
    exit 1
fi

# Every unsafe block in simd-kernel carries a SAFETY comment; the crate
# denies clippy::undocumented_unsafe_blocks and unsafe_op_in_unsafe_fn, and
# this keeps those attributes from being dropped.
for lint in 'unsafe_op_in_unsafe_fn' 'clippy::undocumented_unsafe_blocks'; do
    if ! grep -q "^#!\[deny(${lint})\]" crates/simd-kernel/src/lib.rs; then
        echo "ERROR: crates/simd-kernel/src/lib.rs must #![deny(${lint})]" >&2
        exit 1
    fi
done
echo "Kernel guard: one dispatching entry point per type; unsafe documented."

# ISA-specific code lives in the two kernel modules of simd-kernel, behind
# their safe dispatching entry points: intrinsics, `#[target_feature]`
# functions and run-time feature detection appear nowhere else, so a new
# tier cannot grow outside the tests that pin it to the portable sweep.
arch=$(grep -rnE 'std::arch|#\[target_feature|is_x86_feature_detected!' \
           crates tests examples compat --include='*.rs' \
       | grep -vE '^crates/simd-kernel/src/(rank|lane)\.rs:' || true)
if [ -n "$arch" ]; then
    echo "ERROR: ISA-specific code outside crates/simd-kernel/src/{rank,lane}.rs:" >&2
    printf '  %s\n' "$arch" >&2
    echo "Add the kernel to simd-kernel's rank or lane module instead." >&2
    exit 1
fi
echo "ISA guard: std::arch and feature dispatch only in simd-kernel's rank/lane modules."

# `SharedBlocked` (engine/shared.rs) is the only unsafe code in npdp-core:
# raw-pointer block views behind a per-block atomic state machine. Kernels
# that need `std::arch` live in simd-kernel, behind a safe dispatching entry
# point; the token may not appear anywhere else in npdp-core's sources.
core_unsafe=$(grep -rnw 'unsafe' crates/npdp-core/src --include='*.rs' \
                  | grep -v '^crates/npdp-core/src/engine/shared\.rs:' || true)
if [ -n "$core_unsafe" ]; then
    echo "ERROR: unsafe outside crates/npdp-core/src/engine/shared.rs:" >&2
    printf '  %s\n' "$core_unsafe" >&2
    echo "Put the unsafe kernel in simd-kernel behind a safe entry point." >&2
    exit 1
fi
echo "Core guard: npdp-core's only unsafe code is engine/shared.rs."
