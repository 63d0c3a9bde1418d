#!/bin/sh
# The three sizes every CHANGES.md entry quotes, computed one way.
#   workspace  every tracked line under crates/ src/ tests/ examples/
#   non-test   the .rs files under crates/ src/ examples/ outside tests/ and
#              benches/ directories, each counted up to its first #[cfg(test)]
#   README     bytes
set -eu
cd "$(git rev-parse --show-toplevel)"
workspace=$(git ls-files crates src tests examples | xargs cat | wc -l)
non_test=$(git ls-files crates src examples | grep '\.rs$' | grep -v '/tests/\|/benches/' |
    xargs awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ } END { print n }')
echo "workspace $workspace  non-test $non_test  README $(wc -c <README.md) bytes"
