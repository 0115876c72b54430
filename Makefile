# Developer entry points. CI runs the same targets, so a green `make check`
# locally means the required jobs pass.

.PHONY: build test lint check

build:
	go build ./...

# odperf is a nested module, so `go test ./...` never builds it; its
# self-test runs as a second step, as in CI's test job.
test:
	go test ./...
	cd odperf && go test

# gofmt (with diff), go vet, staticcheck (if installed) and the project's
# analyzer suite (cmd/odlint). See lint.sh.
lint:
	./lint.sh

check: lint build test
