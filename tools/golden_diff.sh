#!/usr/bin/env bash
# Byte-identity check for a change that must not move any output: build a
# base revision and the working tree, run tools/golden_outputs.sh on both,
# and diff the two output directories.
#
#   tools/golden_diff.sh <base-rev> [<build-dir>]
#
# <base-rev> is exported with `git archive` into a temporary directory (under
# $TMPDIR, as mktemp does) and built there in Release. The working tree is
# built into <build-dir>, by default build/ at the repository root. Both
# builds run the working tree's golden_outputs.sh, so the same runs are
# compared. The script prints `diff -r` of the two output directories and
# exits 1 on any difference, keeping the temporary directory for
# inspection; it exits 0, and removes it, when every file is identical.
set -euo pipefail

if [ "$#" -lt 1 ] || [ "$#" -gt 2 ]; then
  echo "usage: $0 <base-rev> [<build-dir>]" >&2
  exit 2
fi
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
current=${2:-$root/build}
jobs=$(nproc)
work=$(mktemp -d)

# build <source-dir> <build-dir> <log> [cmake args...]
build() {
  local src=$1 dir=$2 log=$3
  shift 3
  if ! { cmake -S "$src" -B "$dir" "$@" && cmake --build "$dir" -j"$jobs"; } \
    >"$log" 2>&1; then
    echo "golden_diff: build of $src failed; see $log" >&2
    exit 2
  fi
}

mkdir "$work/base-src"
git -C "$root" archive "$base" | tar -x -C "$work/base-src"
build "$work/base-src" "$work/base-build" "$work/base-build.log" \
  -DCMAKE_BUILD_TYPE=Release
build "$root" "$current" "$work/current-build.log"

# A failing self-gate leaves an "exit status" line in its output, so it is
# part of what gets compared; note it here too.
for side in base current; do
  dir=$work/base-build
  [ "$side" = current ] && dir=$current
  if ! "$root/tools/golden_outputs.sh" "$dir" "$work/golden-$side" \
    >/dev/null; then
    echo "golden_diff: some $side runs exited non-zero" >&2
  fi
done

if diff -r "$work/golden-base" "$work/golden-current"; then
  count=$(find "$work/golden-current" -type f | wc -l)
  echo "golden_diff: $count files identical to $1"
  rm -rf "$work"
  exit 0
fi
echo "golden_diff: outputs differ from $1; kept in $work" >&2
exit 1
