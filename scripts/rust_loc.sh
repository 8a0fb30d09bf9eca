#!/usr/bin/env bash
# Lines of non-test Rust under crates/ added and removed between two
# revisions, per file and in total:
#
#   scripts/rust_loc.sh BASE [HEAD]
#
# HEAD defaults to the working tree (tracked and staged files; `git add`
# new files first). Each .rs file counts up to its `#[cfg(test)]` +
# `mod tests` pair; crate tests/, examples/ and benches/ directories are
# left out. Lines are compared with `git diff --numstat`.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

base=${1:?usage: scripts/rust_loc.sh BASE [HEAD]}
head=${2:-}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Prints the file's lines before its `#[cfg(test)]` + `mod tests` pair
# (reading to the end, so the writer never sees a closed pipe).
strip_tests() {
    awk '
        done { next }
        held { held = 0; if ($0 ~ /^mod tests( |\{|$)/) { done = 1; next } print "#[cfg(test)]" }
        /^#\[cfg\(test\)\]$/ { held = 1; next }
        { print }
        END { if (held) print "#[cfg(test)]" }
    '
}

# The file at a revision (the working tree when the revision is empty),
# or nothing if it does not exist there.
content() {
    local rev=$1 path=$2
    if [[ -z $rev ]]; then
        [[ -f $path ]] && cat "$path"
    else
        git show "$rev:$path" 2>/dev/null || true
    fi
    return 0
}

added=0 removed=0 files=0
while IFS= read -r path; do
    [[ $path =~ /(tests|examples|benches)/ ]] && continue
    content "$base" "$path" | strip_tests > "$tmp/base"
    content "$head" "$path" | strip_tests > "$tmp/head"
    read -r a r _ < <(git diff --no-index --numstat "$tmp/base" "$tmp/head" || true) || continue
    printf '%6s %6s  %s\n' "+$a" "-$r" "$path"
    added=$((added + a)) removed=$((removed + r)) files=$((files + 1))
done < <(git diff --no-renames --name-only "$base" ${head:+"$head"} -- 'crates/*.rs')

printf 'non-test Rust under crates/, %s..%s: +%d -%d, net %+d (%d files)\n' \
    "$base" "${head:-working tree}" "$added" "$removed" "$((added - removed))" "$files"
