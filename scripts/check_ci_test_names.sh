#!/usr/bin/env bash
# Checks that every name in the CI workflow's `go test -run` patterns matches
# at least one test, benchmark, fuzz target or example in the packages that
# line tests. A -run pattern that matches nothing passes silently, so a
# renamed or moved test would drop out of its CI job unnoticed. Each
# alternative of a pattern ('A|B|C') is checked on its own with `go test
# -list`. Usage:
#
#   scripts/check_ci_test_names.sh [.github/workflows/ci.yml]
set -euo pipefail
cd "$(dirname "$0")/.."
WORKFLOW="${1:-.github/workflows/ci.yml}"

status=0
checked=0
while IFS= read -r line; do
    pattern=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
    [[ "$pattern" == '^$' ]] && continue # fuzz lines run no tests
    read -ra pkgs <<<"$(sed -E "s/.*-run '[^']*'//" <<<"$line" | grep -oE '\./[^ ]*' | tr '\n' ' ')"
    if [[ ${#pkgs[@]} -eq 0 ]]; then
        echo "check_ci_test_names: no package after -run '$pattern'" >&2
        status=1
        continue
    fi
    names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
        checked=$((checked + 1))
        if ! grep -qE -- "$alt" <<<"$names"; then
            echo "check_ci_test_names: -run '$alt' matches no test in ${pkgs[*]}" >&2
            status=1
        fi
    done
done < <(grep -oE "go test .*-run '[^']*'.*" "$WORKFLOW")

if [[ $status -eq 0 ]]; then
    echo "check_ci_test_names: all $checked -run names in $WORKFLOW match a test"
fi
exit $status
