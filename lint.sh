#!/usr/bin/env sh
# lint.sh — the one lint entry point, shared by CI and contributors.
#
#   ./lint.sh        (or: make lint)
#
# Runs, in order: gofmt (failing with the offending diff), go vet (on the root
# module and the nested odperf module), staticcheck (skipped with a notice
# when not installed; CI installs it), and the project's own analyzer suite,
# cmd/odlint. odlint findings are also written to odlint-findings.txt so CI
# can publish them as a job summary.
set -eu
cd "$(dirname "$0")"

fail=0

echo "==> gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	gofmt -d $unformatted >&2
	fail=1
fi

echo "==> go vet"
go vet ./... || fail=1
# odperf is a nested module, so the root's ./... stops at its go.mod.
(cd odperf && go vet ./...) || fail=1

echo "==> staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./... || fail=1
else
	echo "staticcheck not installed; skipping (CI installs it; go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

echo "==> odlint"
if go run ./cmd/odlint >odlint-findings.txt 2>&1; then
	:
else
	fail=1
fi
if [ -s odlint-findings.txt ]; then
	cat odlint-findings.txt
fi

exit "$fail"
