#!/usr/bin/env bash
# Mutation census of the library: one-hunk mutants of its table
# maintenance, arrival routing, event order, link models, sharded executor,
# objective bookkeeping and the copy-conservation and delivery laws.
# Applies every mutant in tests/mutants/*.patch, one at a time, to
# a scratch git worktree of HEAD, runs
# `cargo test --workspace --release --offline --no-fail-fast` there and
# writes the kill matrix — which tests fail under which mutant — to
# tests/mutants/MATRIX.md.
#
#   tests/mutants/run.sh            # every mutant
#   tests/mutants/run.sh 04 10      # the mutants whose file names start so
#
# A subset run replaces only its own rows of MATRIX.md (rows of deleted
# patches are dropped) and recounts the total over every row. The script
# exits 1 when a mutant it ran survived or did not apply, and 2 when a
# prefix names no mutant.
#
# The worktree, the one CARGO_TARGET_DIR every mutant shares and the
# per-mutant test logs live under $MUTANTS_SCRATCH (default: a fresh mktemp
# directory). The census is not part of CI: every mutant rebuilds and reruns
# the whole release suite (30–60 s each on a 2-vCPU machine). CI runs five
# of its patches against one target each instead: 38 must fail `bdps-mc`'s
# `--test exhaustive` with a duplicate-delivery counterexample and 39
# `--test regressions` with a conservation one (the `mc` job), 40 must
# fail `--test rebuild_equivalence` with the stepper's "registry disagrees"
# message, 41 `--test properties` with the phase property's "do not tile
# the delay record" and 42 `--test properties` with "queue balance
# violated" (the release-test job).
set -euo pipefail

root=$(git rev-parse --show-toplevel)
here="$root/tests/mutants"
scratch=${MUTANTS_SCRATCH:-$(mktemp -d "${TMPDIR:-/tmp}/bdps-mutants.XXXXXX")}
mkdir -p "$scratch"
export CARGO_TARGET_DIR="$scratch/target"
tree="$scratch/tree"

patches=()
if [ $# -eq 0 ]; then
    patches=("$here"/*.patch)
else
    for prefix in "$@"; do
        matched=("$here/$prefix"*.patch)
        if [ ! -e "${matched[0]}" ]; then
            echo "no mutant in $here starts with \`$prefix\`" >&2
            exit 2
        fi
        patches+=("${matched[@]}")
    done
fi

git -C "$root" worktree add --detach --force "$tree" HEAD >/dev/null
trap 'git -C "$root" worktree remove --force "$tree"' EXIT

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

# The matrix row of every mutant, by name: the committed rows first, then
# this run's rows over them.
declare -A row_of
if [ -f "$here/MATRIX.md" ]; then
    while IFS= read -r line; do
        name=${line#'| `'}
        row_of[${name%%'`'*}]=$line
    done < <(grep '^| `' "$here/MATRIX.md")
fi

failed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    what=$(head -n 1 "$patch" | sed 's/^Mutant: //')
    log="$scratch/$name.log"
    git -C "$tree" reset --hard --quiet HEAD
    if ! git -C "$tree" apply "$patch"; then
        row_of[$name]="| \`$name\` | $what | — | does not apply: regenerate the patch |"
        failed=1
        continue
    fi
    echo "== $name" >&2
    start=$SECONDS
    (cd "$tree" && cargo test --workspace --release --offline --no-fail-fast) >"$log" 2>&1 || true
    secs=$((SECONDS - start))
    failures=$(failing_tests "$log")
    if [ -n "$failures" ]; then
        count=$(printf '%s\n' "$failures" | wc -l | tr -d ' ')
        list=$(printf '%s\n' "$failures" | sed 's/.*/`&`/' | paste -sd ',' - | sed 's/,/, /g')
        row_of[$name]="| \`$name\` | $what | $count | $list |"
    elif grep -q '^error: could not compile' "$log"; then
        row_of[$name]="| \`$name\` | $what | — | the compiler (see $name.log) |"
    else
        row_of[$name]="| \`$name\` | $what | 0 | **survived** |"
        failed=1
    fi
    echo "   ${secs}s" >&2
done

# One row per patch in the directory; a patch no run has reached yet
# counts as not killed.
rows=()
killed=0
total=0
for patch in "$here"/*.patch; do
    name=$(basename "$patch" .patch)
    what=$(head -n 1 "$patch" | sed 's/^Mutant: //')
    row=${row_of[$name]:-"| \`$name\` | $what | — | not run yet |"}
    rows+=("$row")
    total=$((total + 1))
    case $row in
        *'**survived** |' | *'does not apply: regenerate the patch |' | *'not run yet |') ;;
        *) killed=$((killed + 1)) ;;
    esac
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
    echo "**$killed of $total mutants killed.**"
    echo
    echo "| mutant | what it breaks | failing tests | killed by |"
    echo "|---|---|---|---|"
    printf '%s\n' "${rows[@]}"
} >"$here/MATRIX.md"
echo "wrote $here/MATRIX.md ($killed of $total killed)" >&2
exit "$failed"
