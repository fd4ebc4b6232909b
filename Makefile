GO ?= go

.PHONY: all build test vet fmt lint race bench fuzz torture torture-shard check clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails (and lists the offenders) if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Repo-specific determinism, PII-hygiene and concurrency-safety
# analyzers (internal/analysis, DESIGN.md §8, §13): closecheck, ctxflow,
# detrand, goroleak, lockdiscipline, maporder, obskey, piilog. Runs the
# parallel DAG driver with the content-keyed cache, so a warm `make
# lint` only re-analyzes packages whose source (or whose dependencies'
# facts) changed. Zero findings or the gate fails with file:line
# diagnostics.
lint:
	$(GO) run ./cmd/piilint -workers 8 -cache .lintcache ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Runs every Go micro-benchmark once. The end-to-end study benchmark
# (wall time, CPU, allocations and live heap per site, plus per-layer
# traces) is `python3 perfbench/run.py`; see perfbench/README.md.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# Short fuzz smoke for the dataset decoder hardening, the sharded
# runtime's plan/result readers, the PSL walk (invariants, and the
# differential check against the Split/Join oracle), and the soundness
# of the authority key the host memos use.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzReadJSON -fuzztime 10s ./internal/crawler/
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzParseResult -fuzztime 10s ./internal/shard/
	$(GO) test -run '^$$' -fuzz FuzzPublicSuffix -fuzztime 10s ./internal/psl/
	$(GO) test -run '^$$' -fuzz FuzzWalkMatchesOracle -fuzztime 10s ./internal/psl/
	$(GO) test -run '^$$' -fuzz FuzzAuthorityKeySound -fuzztime 10s ./internal/httpmodel/

# Lanes that select tests by name run through require-pass.sh: `go test
# -run` passes on an empty match, so the wrapper also fails unless every
# named test reported PASS.
REQUIRE_PASS = bash scripts/require-pass.sh

# Crash-consistency torture: re-execs a checkpointing crawl subprocess,
# kills it at seeded random points (including mid-record), resumes, and
# asserts the final dataset, leaks and Tables 1/2/4 are byte-identical
# to an uninterrupted run. -short trims the kill rounds for CI.
torture:
	$(REQUIRE_PASS) TestTortureCrashConsistency \
		$(GO) test -short -timeout 300s -count=1 -run '^TestTortureCrashConsistency$$' -v .

# Sharded torture: same kill machinery, but each victim is a re-execed
# shard worker of a K-way split. Shards are killed mid-checkpoint-append,
# resumed until they complete, then the digest-verified merge must be
# byte-identical to an uninterrupted unsharded run (DESIGN.md §11).
torture-shard:
	$(REQUIRE_PASS) TestTortureShardedCrashConsistency \
		$(GO) test -short -timeout 300s -count=1 -run '^TestTortureShardedCrashConsistency$$' -v .

# The gate every change must pass.
check: fmt vet lint build race
