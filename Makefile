GO      ?= go
FUZZTIME ?= 10s

.PHONY: build test race lint fuzz check fmt bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mclint ./...

# fuzz runs every fuzz target (the list lives in scripts/fuzz.sh).
fuzz:
	scripts/fuzz.sh $(FUZZTIME)

fmt:
	gofmt -w .

# bench runs the partitioning fast-path benchmarks with fixed flags and
# writes a JSON report, with speedups against the pre-fast-path
# baseline, to a temporary file whose path it prints.
bench:
	scripts/bench.sh


# check is the full tier-2 gate: fmt/vet/mclint/race tests/short fuzz.
check:
	scripts/check.sh $(FUZZTIME)
