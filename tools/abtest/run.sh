#!/usr/bin/env bash
# In-process A/B timing of the simulator: clp-sim as it was at a git
# revision against clp-sim in the working tree, in one binary.
#
#   tools/abtest/run.sh REV SIZES REPS     e.g. tools/abtest/run.sh HEAD~1 16,32 5
#
# Writes crates/sim at REV out as the package `clp-sim-base` in
# tools/abtest/target/base (git-ignored, and under target/ so that a walk
# over the repository's sources never meets the old copy), builds
# tools/abtest against it and the working tree's clp-sim, and runs every
# suite kernel at each size in SIZES, REPS times, both sides per cell in
# alternating order. Each cell's cycles must be equal on the two sides.
# Prints the sum of per-cell minima and the median of the per-rep
# ratios; see src/main.rs. Both sides link the working tree's other
# crates, so a difference outside crates/sim is measured on neither
# side: the script warns about one.
#
# Supported revisions: those whose crates/sim/Cargo.toml lists under
# [dependencies] only `clp-X.workspace = true` lines (every revision since
# crates/sim stopped depending on serde). The script refuses any other.
set -euo pipefail
cd "$(dirname "$0")/../.."

if [ $# -ne 3 ]; then
  echo "usage: tools/abtest/run.sh REV SIZES REPS" >&2
  echo "  REV's crates/sim may depend only on workspace clp-* crates" >&2
  exit 2
fi
rev=$1 sizes=$2 reps=$3
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "abtest: \`$rev\` names no commit" >&2
  exit 2
}

outside=$(git diff --name-only "$rev" -- crates ':(exclude)crates/sim')
if [ -n "$outside" ]; then
  echo "abtest: warning: $rev differs from the working tree outside crates/sim;" \
    "both sides link the working tree's version of:" >&2
  echo "$outside" | sed 's/^/  /' >&2
fi

# REV's [dependencies] lines; each must be a workspace clp-* crate, which
# maps to a path into this tree's crates/.
deps=$(git show "$rev:crates/sim/Cargo.toml" |
  sed -n '/^\[dependencies\]/,/^\[/{/^\[/d;/^[[:space:]]*#/d;/^[[:space:]]*$/d;p}')
unmapped=$(echo "$deps" | grep -v '^clp-[a-z]*\.workspace = true$' || true)
if [ -n "$unmapped" ]; then
  echo "abtest: $rev's crates/sim/Cargo.toml has [dependencies] lines that are" \
    "not a workspace clp-* crate, which this script cannot map:" >&2
  echo "$unmapped" | sed 's/^/  /' >&2
  exit 2
fi

base=tools/abtest/target/base
rm -rf "$base"
mkdir -p "$base"
git archive "$rev" crates/sim/src | tar -x -C "$base" --strip-components=2
{
  printf '[package]\nname = "clp-sim-base"\nversion = "0.1.0"\nedition = "2021"\npublish = false\n\n'
  printf '[lib]\npath = "src/lib.rs"\n\n[dependencies]\n'
  echo "$deps" | sed 's|^clp-\([a-z]*\)\.workspace = true$|clp-\1 = { path = "../../../../crates/\1" }|'
} > "$base/Cargo.toml"

# From the repository root, so that .cargo/config.toml's release profile
# (one codegen unit per crate) applies as it does to every other build.
cargo build --release --offline --quiet --manifest-path tools/abtest/Cargo.toml
exec tools/abtest/target/release/abtest "$sizes" "$reps"
