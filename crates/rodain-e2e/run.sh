#!/bin/bash
# Build the end-to-end benchmark from source, then run it.
#
#   crates/rodain-e2e/run.sh [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
#   crates/rodain-e2e/run.sh compare A.json B.json
#   crates/rodain-e2e/run.sh --test          # the crate's tests
#
# Run from anywhere; it works from the repository root. Build outputs,
# logs, spools and span files go under ${CARGO_TARGET_DIR:-target}.
#
# Build modes (recorded in every report; `compare` refuses to mix them):
#   cargo       cargo build --release --offline -p rodain-e2e
#   rustc-stub  no registry reachable: plain rustc against the stand-in
#               rlibs for the external crates (serde, rand, bytes,
#               parking_lot, crossbeam) kept in .claude/skills/verify/stubs,
#               with the dependency edges of its build.sh.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(cd "$HERE/../.." && pwd)
cd "$ROOT"
TARGET=${CARGO_TARGET_DIR:-target}
STUBS=.claude/skills/verify/stubs
OUT=$TARGET/e2e-stub
# Workspace crates the benchmark links, in dependency order.
NEEDED="rodain_obs rodain_store rodain_occ rodain_sched rodain_log rodain_net rodain_node rodain_workload rodain_db rodain_shard rodain_server"

externs() {
  local e
  for e in "$@"; do
    if [ "$e" = serde_derive ]; then
      printf ' --extern serde_derive=%s/libserde_derive.so' "$OUT"
    else
      printf ' --extern %s=%s/lib%s.rlib' "$e" "$OUT" "$e"
    fi
  done
}

# rustc <crate-name> <source> <externs...> -- <extra rustc args...>
compile() {
  local name=$1 src=$2
  shift 2
  local deps=()
  while [ $# -gt 0 ] && [ "$1" != -- ]; do
    deps+=("$1")
    shift
  done
  shift || true
  # shellcheck disable=SC2046
  rustc --edition 2021 -O -A warnings -L "$OUT" --crate-name "$name" "$src" $(externs "${deps[@]}") "$@"
}

build_stub() {
  [ -f "$STUBS/build.sh" ] && [ -f crates/rodain-db/src/lib.rs ] || {
    echo "run.sh: nothing to build from: the workspace crates or $STUBS are not here" >&2
    return 1
  }
  mkdir -p "$OUT"
  compile serde_derive "$STUBS/src/serde_derive.rs" -- --crate-type proc-macro --out-dir "$OUT"
  compile serde "$STUBS/src/serde.rs" serde_derive -- --crate-type rlib -o "$OUT/libserde.rlib"
  local stub name row dir deps
  for stub in rand bytes parking_lot crossbeam; do
    compile "$stub" "$STUBS/src/$stub.rs" -- --crate-type rlib -o "$OUT/lib$stub.rlib"
  done
  for name in $NEEDED; do
    # The frozen dependency edges: the `"name|dir|externs"` rows of build.sh.
    row=$(sed -n "s/^ *\"\($name|[^\"]*\)\".*/\1/p" "$STUBS/build.sh")
    [ -n "$row" ] || { echo "run.sh: $name is not in $STUBS/build.sh" >&2; return 1; }
    IFS='|' read -r _ dir deps <<<"$row"
    # shellcheck disable=SC2086
    compile "$name" "crates/$dir/src/lib.rs" $deps -- --crate-type rlib -o "$OUT/lib$name.rlib"
  done
  # shellcheck disable=SC2086
  compile rodain_e2e crates/rodain-e2e/src/lib.rs $NEEDED bytes -- --crate-type rlib -o "$OUT/librodain_e2e.rlib"
  compile e2e crates/rodain-e2e/src/main.rs rodain_e2e -- -o "$OUT/e2e"
}

stale() { # <artifact>: missing, or older than any source it is built from
  [ -x "$1" ] || return 0
  [ -n "$(find crates -path '*/src/*' -name '*.rs' -newer "$1" -print -quit)" ] && return 0
  [ -d "$STUBS" ] && [ -n "$(find "$STUBS" -newer "$1" -type f -print -quit)" ] && return 0
  return 1
}

build() {
  if cargo build --release --offline -p rodain-e2e >"$TARGET/e2e-cargo.log" 2>&1; then
    BIN=$TARGET/release/e2e
    MODE=cargo
    return
  fi
  BIN=$OUT/e2e
  MODE=rustc-stub
  if stale "$BIN"; then
    echo "run.sh: cargo cannot build offline (see $TARGET/e2e-cargo.log); building with rustc against stub rlibs" >&2
    build_stub >&2
  fi
}

run_tests() {
  build
  if [ "$MODE" = cargo ]; then
    cargo test --release --offline -p rodain-e2e
    return
  fi
  # shellcheck disable=SC2086
  compile rodain_e2e crates/rodain-e2e/src/lib.rs $NEEDED bytes -- --test -o "$OUT/e2e-unit-tests"
  # shellcheck disable=SC2086
  compile smoke crates/rodain-e2e/tests/smoke.rs rodain_e2e -- --test -o "$OUT/e2e-smoke-tests"
  "$OUT/e2e-unit-tests" -q
  "$OUT/e2e-smoke-tests" -q
}

mkdir -p "$TARGET"
export E2E_BENCHMARK_JSON=$ROOT/BENCHMARK.json
export E2E_WORK_DIR=$TARGET/e2e-work
if [ "${1:-}" = --test ]; then
  run_tests
  exit
fi
build
export E2E_BUILD_MODE=$MODE
E2E_GIT_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export E2E_GIT_COMMIT
exec "$BIN" "$@"
