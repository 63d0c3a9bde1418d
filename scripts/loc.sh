#!/bin/sh
# The three sizes every CHANGES.md entry quotes, computed one way.
#   workspace  every tracked line under crates/ src/ tests/ examples/
#   non-test   the .rs files under crates/ src/ examples/ outside tests/ and
#              benches/ directories, each counted up to its test module (a
#              `#[cfg(test)]` line followed by `mod <name> {`); a
#              `#[cfg(test)]` on any other item counts as production
#   README     bytes
set -eu
cd "$(git rev-parse --show-toplevel)"
workspace=$(git ls-files crates src tests examples | xargs cat | wc -l)
non_test=$(git ls-files crates src examples | grep '\.rs$' | grep -v '/tests/\|/benches/' |
    xargs awk '
        FNR == 1 { n += held; held = 0; test = 0 }
        held && /^[[:space:]]*(pub[^ ]* )?mod [A-Za-z0-9_]+ *\{/ { test = 1 }
        held && !test { n++ }
        { held = 0 }
        !test && /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { held = 1; next }
        !test { n++ }
        END { print n + held }')
echo "workspace $workspace  non-test $non_test  README $(wc -c <README.md) bytes"
