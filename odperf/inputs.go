package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"

	fastod "repro"
	"repro/internal/relation"
)

// subSeed derives the seed of one input stream from the run's seed, so each
// generated input is fixed by the seed yet independent of the others.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// csvOf renders a generated relation as the CSV bytes the program ingests.
func csvOf(rel *relation.Relation) ([]byte, error) {
	var b bytes.Buffer
	if err := relation.WriteCSV(rel, &b); err != nil {
		return nil, fmt.Errorf("rendering %s as CSV: %w", rel.Name, err)
	}
	return b.Bytes(), nil
}

// digest accumulates a SHA-256 over byte strings, each length-prefixed so
// that distinct sequences never collide by concatenation.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...[]byte) {
	for _, p := range parts {
		fmt.Fprintf(d.h, "%d:", len(p))
		d.h.Write(p)
	}
}

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// renderODs prints a FASTOD result the way the fastod command does: one
// canonical OD per line over the column names.
func renderODs(res *fastod.Result) string {
	var b strings.Builder
	for _, od := range res.ODs {
		b.WriteString("  ")
		b.WriteString(od.NamesString(res.ColumnNames))
		b.WriteByte('\n')
	}
	return b.String()
}

// answer identifies a discovery result: how many dependencies and a digest
// of their sorted, rendered list.
type answer struct {
	count  int
	digest string
}

func answerOf(count int, rendered string) answer {
	d := newDigest()
	d.add([]byte(rendered))
	return answer{count, d.hex()}
}
