package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"radiocast/internal/gst"
)

// instances is how many set-ups a run makes, each from its own seed
// derived from the workload seed. Broadcasts cycle over all of them, so
// on udg-decay and gnp-erasure one run averages over several graphs
// instead of resting on one. The fixed graphs of gst-grid and
// thm11-cluster make their instances identical.
const instances = 16

// expectedPath is the file --record reads and rewrites, relative to the
// checkout root.
const expectedPath = "perfbench/expected.json"

//go:embed expected.json
var expectedJSON []byte

// record is what a correct program produces for one workload seed: a
// fingerprint of the set-up and a digest of the first cycle of
// broadcasts.
type record struct {
	Setup  string `json:"setup"`
	Digest string `json:"digest"`
}

// expectations maps workload name → decimal workload seed → record.
type expectations struct {
	Workloads map[string]map[string]record `json:"workloads"`
}

// parseExpectations reads expected.json's contents: the copy embedded
// at build time for a run, the file on disk when recording.
func parseExpectations(blob []byte) (*expectations, error) {
	var e expectations
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, fmt.Errorf("parse %s: %w", expectedPath, err)
	}
	if e.Workloads == nil {
		e.Workloads = map[string]map[string]record{}
	}
	return &e, nil
}

// lookup returns the record for a workload seed, if one was recorded.
func (e *expectations) lookup(workload string, seed uint64) (record, bool) {
	r, ok := e.Workloads[workload][strconv.FormatUint(seed, 10)]
	return r, ok
}

func (e *expectations) save() error {
	blob, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(blob, '\n'), 0o644)
}

// hash is FNV-1a taken a 64-bit word at a time rather than a byte.
type hash uint64

func newHash() hash { return 14695981039346656037 }

func (h *hash) add(x int64) { *h = (*h ^ hash(x)) * 1099511628211 }

func (h hash) String() string { return fmt.Sprintf("%016x", uint64(h)) }

// setupFacts are the exact properties of one set-up: its fingerprint
// plus the structure counts the traced run reports.
type setupFacts struct {
	fingerprint hash
	edges       int64 // undirected edges
	csrBytes    int64 // computed: 4 bytes per offset and per adjacency entry
	levels      int64 // GST levels; 0 without a tree
}

// facts fingerprints a set-up: node and edge counts plus a hash of the
// CSR, and for a GST the level count plus a hash of the virtual
// distances.
func facts(s *structure) setupFacts {
	off, edges := s.g.CSR()
	h := newHash()
	h.add(int64(s.g.N()))
	h.add(int64(s.g.M()))
	for _, o := range off {
		h.add(int64(o))
	}
	for _, v := range edges {
		h.add(int64(v))
	}
	f := setupFacts{edges: int64(s.g.M()), csrBytes: 4 * int64(len(off)+len(edges))}
	if s.flat != nil {
		f.levels = gstLevels(s.flat)
		h.add(f.levels)
		for _, d := range s.flat.Vdist {
			h.add(int64(d))
		}
	}
	f.fingerprint = h
	return f
}

func gstLevels(f *gst.Flat) int64 {
	var top int32 = -1
	for _, l := range f.Level {
		if l > top {
			top = l
		}
	}
	return int64(top) + 1
}

// digest hashes the simulated outcomes of the first broadcast cycle.
func digest(cycle []triple) string {
	h := newHash()
	for _, t := range cycle {
		h.add(t.rounds)
		h.add(t.transmissions)
		h.add(t.deliveries)
	}
	return h.String()
}

// recordSeeds makes one untimed run of the first broadcast cycle for
// each workload seed in [0, n) and stores its set-up fingerprint and
// digest in expected.json. A seed on which any broadcast fails is an
// error: the workloads are chosen so that none fails.
func recordSeeds(ws []*workload, n int) error {
	blob, err := os.ReadFile(expectedPath)
	if err != nil {
		return err
	}
	e, err := parseExpectations(blob)
	if err != nil {
		return err
	}
	for _, w := range ws {
		if e.Workloads[w.name] == nil {
			e.Workloads[w.name] = map[string]record{}
		}
		for seed := uint64(0); seed < uint64(n); seed++ {
			rep := measure(w, seed, 0, nil, &expectations{})
			if rep.failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d broadcasts failed %v", w.name, seed, rep.failed, rep.attempted, rep.why)
			}
			e.Workloads[w.name][strconv.FormatUint(seed, 10)] = record{rep.setup.fingerprint, rep.digest}
			if err := e.save(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "recorded %s seed %d\n", w.name, seed)
		}
	}
	return nil
}
