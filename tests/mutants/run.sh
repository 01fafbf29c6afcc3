#!/usr/bin/env bash
# Mutation census for the table-maintenance and arrival-routing code.
# Applies every one-hunk mutant in tests/mutants/*.patch, one at a time, to
# a scratch git worktree of HEAD, runs
# `cargo test --workspace --release --offline --no-fail-fast` there and
# writes the kill matrix — which tests fail under which mutant — to
# tests/mutants/MATRIX.md.
#
#   tests/mutants/run.sh            # every mutant
#   tests/mutants/run.sh 04 10      # the mutants whose file names start so
#
# The worktree, the one CARGO_TARGET_DIR every mutant shares and the
# per-mutant test logs live under $MUTANTS_SCRATCH (default: a fresh mktemp
# directory). Not part of CI: every mutant rebuilds and reruns the whole
# release suite (30–60 s each on a 2-vCPU machine).
set -euo pipefail

root=$(git rev-parse --show-toplevel)
here="$root/tests/mutants"
scratch=${MUTANTS_SCRATCH:-$(mktemp -d "${TMPDIR:-/tmp}/bdps-mutants.XXXXXX")}
mkdir -p "$scratch"
export CARGO_TARGET_DIR="$scratch/target"
tree="$scratch/tree"

git -C "$root" worktree add --detach --force "$tree" HEAD >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

patches=()
if [ $# -eq 0 ]; then
    patches=("$here"/*.patch)
else
    for prefix in "$@"; do
        patches+=("$here/$prefix"*.patch)
    done
fi

# `Running <target> (target/release/deps/<binary>-<hash>)` names the test
# binary the following results belong to; `test <name> ... FAILED` is one
# failing test. Prints `<binary>::<test>` per failure.
failing_tests() {
    awk '
        /^ *Running / { bin = $NF; sub(/^.*\//, "", bin); sub(/-[0-9a-f]+\)$/, "", bin) }
        /^ *Doc-tests / { bin = "doctests " $2 }
        /^test .* \.\.\. FAILED$/ { print bin "::" $2 }
    ' "$1" | sort -u
}

rows=()
killed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    what=$(head -n 1 "$patch" | sed 's/^Mutant: //')
    log="$scratch/$name.log"
    git -C "$tree" reset --hard --quiet HEAD
    if ! git -C "$tree" apply "$patch"; then
        rows+=("| \`$name\` | $what | — | does not apply: regenerate the patch |")
        continue
    fi
    echo "== $name" >&2
    start=$SECONDS
    (cd "$tree" && cargo test --workspace --release --offline --no-fail-fast) >"$log" 2>&1 || true
    secs=$((SECONDS - start))
    failures=$(failing_tests "$log")
    if [ -n "$failures" ]; then
        killed=$((killed + 1))
        count=$(printf '%s\n' "$failures" | wc -l | tr -d ' ')
        list=$(printf '%s\n' "$failures" | sed 's/.*/`&`/' | paste -sd ',' - | sed 's/,/, /g')
        rows+=("| \`$name\` | $what | $count | $list |")
    elif grep -q '^error: could not compile' "$log"; then
        killed=$((killed + 1))
        rows+=("| \`$name\` | $what | — | the compiler (see $name.log) |")
    else
        rows+=("| \`$name\` | $what | 0 | **survived** |")
    fi
    echo "   ${secs}s" >&2
done

{
    echo "# Mutation census"
    echo
    echo "Written by \`tests/mutants/run.sh\`: each mutant applied alone to a clean"
    echo "checkout of the commit that holds it, then"
    echo "\`cargo test --workspace --release --offline --no-fail-fast\`. A mutant is"
    echo "killed when at least one test fails. Tests are named"
    echo "\`<test binary>::<test>\`; a crate name is that crate's unit tests."
    echo
    echo "**$killed of ${#patches[@]} mutants killed.**"
    echo
    echo "| mutant | what it breaks | failing tests | killed by |"
    echo "|---|---|---|---|"
    printf '%s\n' "${rows[@]}"
} >"$here/MATRIX.md"
echo "wrote $here/MATRIX.md ($killed of ${#patches[@]} killed)" >&2
