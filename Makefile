# Developer entry points. CI runs the same targets, so a green `make check`
# locally means the required jobs pass.

.PHONY: build test examples lint check

build:
	go build ./...

# odperf is a nested module, so `go test ./...` never builds it; its
# self-test runs as a second step, as in CI's test job.
test: examples
	go test ./...
	cd odperf && go test

# Runs every example program; a non-zero exit fails the target. Reading the
# wrong Report payload compiles but panics at run time, which only running
# catches.
examples:
	@set -e; for dir in examples/*/; do echo "go run ./$$dir"; go run "./$$dir" >/dev/null; done

# gofmt (with diff), go vet, staticcheck (if installed) and the project's
# analyzer suite (cmd/odlint). See lint.sh.
lint:
	./lint.sh

check: lint build test
