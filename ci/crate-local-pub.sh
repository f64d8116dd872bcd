#!/usr/bin/env bash
# Lists `pub` items of the library crates that nothing outside their crate
# names, and fails on any that the allowlist below does not excuse.
#
# rustc's `dead_code` lint never fires on a `pub` item, and the root crate
# re-exports every library crate, so an item that is `pub` but only used
# inside its own crate is invisible to the compiler. Narrowed to
# `pub(crate)`, it is checked like any private item: `cargo clippy
# --all-targets -- -D warnings` then rejects it once nothing calls it.
#
# An item is a `pub` fn, struct, enum, union, const, static, type or trait
# declared in `crates/<name>/src` above the file's first top-level
# `#[cfg(test)]` (`src/bin` excluded). It is "named outside" when its
# identifier appears as a word in any `.rs` file outside that directory:
# the other crates (their `src`, `tests`, `benches`), the crate's own
# `tests`, `benches` and `src/bin`, the root package's `src`, `tests` and
# `examples`, and `benchmark/`. The root crate `verdict` is the product API
# and is not checked.
#
# A type is also reachable, so it counts as named, when a `pub` type or free
# `pub fn` of its crate shows it: in a `pub fn` signature, a `pub` field, a
# `pub type` or `pub const`, or the variants of a `pub enum`. Narrowing such
# a type trips rustc's `private_interfaces` lint instead.
#
# The match is by name only, so this is a floor, not a proof: an item whose
# name is common (`new`, `len`) or only appears in another crate's comment
# passes unexamined.
#
# Run from the repository root: `ci/crate-local-pub.sh`.
set -euo pipefail

# One entry per line: `<crate dir> <item name> <one-line reason>`.
allowlist=$(cat <<'ALLOW'
ALLOW
)

# Every identifier-like word on stdin, one per line, sorted.
words() {
    grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}

# Scans a crate's non-test source. Prints `item <file>:<line>:<kind> <name>`
# for each pub item, `shows <owner> <text>` for each stretch of a pub
# interface (`<owner>` is the enclosing type or impl, `-` at top level),
# and `narrow <name>` for each type declared less than `pub`.
scan() {
    local src=$1
    find "$src" -name '*.rs' -not -path "$src/bin/*" | sort | while read -r f; do
        awk -v f="$f" '
            /^#\[cfg\(test\)\]/ { exit }
            /^[^ \t}]/ { owner = ""; body = 0 }
            /^(pub(\([a-z]+\))? )?(struct|enum|union|trait) / {
                s = $0; sub(/^pub(\([a-z]+\))? /, "", s); split(s, w, /[^A-Za-z0-9_]+/)
                owner = w[2]; body = ($0 ~ /^pub (enum|trait) /)
                if ($0 !~ /^pub /) print "narrow " owner
            }
            /^impl/ {
                s = $0; sub(/[ \t]*(where|\{).*$/, "", s)
                n = split(s, w, /[^A-Za-z0-9_]+/)
                owner = ""
                for (i = 1; i <= n; i++) if (w[i] == "for") owner = w[i + 1]
                if (owner == "") {
                    sub(/^impl/, "", s); depth = 0
                    for (i = 1; i <= length(s); i++) {
                        c = substr(s, i, 1)
                        if (c == "<") depth++
                        else if (c == ">") depth--
                        else if (depth == 0 && c ~ /[A-Za-z_]/) break
                    }
                    split(substr(s, i), w, /[^A-Za-z0-9_]+/); owner = w[1]
                }
            }
            match($0, /^[ \t]*pub[ \t]+((const|unsafe|async|extern "C")[ \t]+)*(fn|struct|enum|union|const|static|type|trait)[ \t]+(mut[ \t]+)?[A-Za-z_][A-Za-z0-9_]*/) {
                decl = substr($0, RSTART, RLENGTH)
                n = split(decl, w, /[ \t]+/)
                print "item " f ":" NR ":" w[n - 1] " " w[n]
            }
            /^[ \t]*pub[ \t]+((const|unsafe|async|extern "C")[ \t]+)*fn / { sig = 1 }
            sig { print "shows " (owner == "" ? "-" : owner) " " $0; if ($0 ~ /[{;][ \t]*$/) sig = 0; next }
            /^[ \t]*pub [A-Za-z_][A-Za-z0-9_]*[ \t]*:/ || /^[ \t]*pub (type|const|static) / ||
                (body && /^[ \t]/ && !/^[ \t]*\/\//) { print "shows " (owner == "" ? "-" : owner) " " $0 }
        ' "$f"
    done
}

status=0
for dir in crates/*/; do
    crate=${dir%/}
    src=$crate/src
    [ -d "$src" ] || continue
    named=$(
        {
            find crates src tests examples benchmark -path benchmark/target -prune -o -name '*.rs' -print \
                | grep -v "^$src/" || true
            [ ! -d "$src/bin" ] || find "$src/bin" -name '*.rs'
        } | xargs cat | words
    )
    scanned=$(scan "$src")
    # Interface text of pub owners, minus each type's mentions of itself.
    shown() {
        awk -v t="$1" '
            $1 == "narrow" { narrow[$2] = 1 }
            $1 == "shows" && $2 != t { owner[++n] = $2; sub(/^shows [^ ]* /, ""); text[n] = $0 }
            END { for (i = 1; i <= n; i++) if (!(owner[i] in narrow)) print text[i] }
        ' <<<"$scanned" | words
    }
    while IFS= read -r item; do
        [ -n "$item" ] || continue
        name=${item##* }
        kind=${item% *}
        kind=${kind##*:}
        if grep -qxF "$name" <<<"$named"; then
            continue
        fi
        if [[ $kind =~ ^(struct|enum|union|type|trait)$ ]] && shown "$name" | grep -qxF "$name"; then
            continue
        fi
        if grep -qE "^${crate#crates/} ${name} " <<<"$allowlist"; then
            continue
        fi
        echo "$item is pub but not named outside $src (narrow it to pub(crate))"
        status=1
    done < <(sed -n 's/^item //p' <<<"$scanned")
done
exit $status
