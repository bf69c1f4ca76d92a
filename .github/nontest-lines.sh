#!/bin/sh
# Non-test Rust lines per workspace crate: every `.rs` file under
# `crates/<crate>/src` (the vendored stand-ins under `crates/vendor` and the
# benchmark package under `mopt_benchmark/` excluded), counted up to its first
# `#[cfg(test)]`; a file another declares as `#[cfg(test)] mod <name>;` is a
# test and counts nothing.
cd "$(dirname "$0")/.." || exit 1
for crate in crates/*/; do
  [ "$crate" = crates/vendor/ ] && continue
  test_only=$(grep -rhA1 --include='*.rs' '^ *#\[cfg(test)\]' "$crate/src" |
    sed -n 's/^ *mod \([a-z_0-9]*\);.*/\1.rs/p' | sort -u | tr '\n' ' ')
  find "$crate/src" -name '*.rs' -not -path '*/mopt_benchmark/*' | sort |
    while read -r file; do
      case " $test_only" in *" $(basename "$file") "*) continue ;; esac
      awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk -v crate="$(basename "$crate")" '{ n += $1 } END { printf "%-10s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-10s %6d\n", "total", total }'
