#!/usr/bin/env bash
# Usage: scripts/require-pass.sh 'TestA TestB/subtest' go test -v -run ... ./pkg
#
# Runs a `go test -v` command, echoing its output, and fails unless the
# command succeeded AND reported "--- PASS: <name>" for every listed
# test. `go test -run` exits 0 when its pattern matches nothing, so a
# lane that selects tests by name would otherwise stay green after the
# tests it names were renamed, moved or deleted.
set -u -o pipefail
if [ $# -lt 2 ]; then
	echo "usage: $0 'TestName[/subtest] ...' go test -v ..." >&2
	exit 2
fi
names=$1
shift
log=$(mktemp) || exit 2
trap 'rm -f "$log"' EXIT
"$@" 2>&1 | tee "$log"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
	exit "$status"
fi
for name in $names; do
	if ! grep -qF -- "--- PASS: $name (" "$log"; then
		echo "require-pass: $name did not report PASS (renamed, moved or not selected?)" >&2
		status=1
	fi
done
exit "$status"
