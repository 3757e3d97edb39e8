package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"radiocast/internal/graph"
	"radiocast/internal/radio"
)

// span is one timed call into a layer, kept in memory and written out
// when the run ends. Spans of one set-up or one broadcast share Trace;
// Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	Trace  string           `json:"trace"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// spanLog collects spans; a nil *spanLog records nothing.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(trace string, parent int, name string, start, end time.Time, attrs map[string]int64) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{trace, id, parent, name,
		int64(start.Sub(l.epoch)), int64(end.Sub(l.epoch)), attrs})
	return id
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerClock times the layer calls of one set-up under a root "setup"
// span. A nil *layerClock just makes the calls, so the untraced set-up
// carries no probes.
type layerClock struct {
	log   *spanLog
	trace string
	root  int
	ns    map[string]int64  // per layer, summed over the calls
	alloc map[string]uint64 // heap bytes allocated per layer
}

func newLayerClock(log *spanLog, trace string) *layerClock {
	now := time.Now()
	return &layerClock{log: log, trace: trace, root: log.add(trace, 0, "setup", now, now, nil),
		ns: map[string]int64{}, alloc: map[string]uint64{}}
}

func (lc *layerClock) do(name string, f func()) {
	if lc == nil {
		f()
		return
	}
	a0 := heapAllocs()
	t0 := time.Now()
	f()
	t1 := time.Now()
	a := heapAllocs() - a0
	lc.ns[name] += int64(t1.Sub(t0))
	lc.alloc[name] += a
	lc.log.add(lc.trace, lc.root, name, t0, t1, map[string]int64{"alloc_bytes": int64(a)})
}

// close ends the root span.
func (lc *layerClock) close() {
	if lc == nil {
		return
	}
	lc.log.spans[lc.root-1].End = int64(time.Since(lc.log.epoch))
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// callCounts is what the shims see during one traced broadcast.
type callCounts struct {
	callbackNs int64 // ListenWords + AppendTransmitters + EndRound
	stepNs     int64 // Dense.Step, callbacks included
	deliver    int64
	packet     int64
	dropLink   int64
	observe    int64
}

// protoShim wraps a dense protocol. Per-round callbacks are timed;
// per-delivery callbacks are only counted, since timing them would
// cost more than the calls themselves.
type protoShim struct {
	p radio.DenseProtocol
	c *callCounts
}

func (s *protoShim) ListenWords(r int64) []uint64 {
	t := time.Now()
	w := s.p.ListenWords(r)
	s.c.callbackNs += int64(time.Since(t))
	return w
}

func (s *protoShim) AppendTransmitters(r int64, lo, hi graph.NodeID, dst []graph.NodeID) []graph.NodeID {
	t := time.Now()
	dst = s.p.AppendTransmitters(r, lo, hi, dst)
	s.c.callbackNs += int64(time.Since(t))
	return dst
}

func (s *protoShim) Packet(r int64, v graph.NodeID) radio.Packet {
	s.c.packet++
	return s.p.Packet(r, v)
}

func (s *protoShim) Deliver(r int64, v graph.NodeID, out radio.Outcome) {
	s.c.deliver++
	s.p.Deliver(r, v, out)
}

func (s *protoShim) EndRound(r int64) {
	t := time.Now()
	s.p.EndRound(r)
	s.c.callbackNs += int64(time.Since(t))
}

// channelShim counts the per-link and per-listener channel hooks.
type channelShim struct {
	ch radio.Channel
	c  *callCounts
}

func (s *channelShim) RoundStart(r int64, tx []graph.NodeID) { s.ch.RoundStart(r, tx) }

func (s *channelShim) SuppressTransmit(r int64, v graph.NodeID) bool {
	return s.ch.SuppressTransmit(r, v)
}

func (s *channelShim) DropLink(r int64, from, to graph.NodeID) bool {
	s.c.dropLink++
	return s.ch.DropLink(r, from, to)
}

func (s *channelShim) Observe(r int64, to graph.NodeID, count int, out radio.Outcome, ok bool) (radio.Outcome, bool) {
	s.c.observe++
	return s.ch.Observe(r, to, count, out, ok)
}

// traceFile names the span file of one traced run, relative to the
// checkout root.
func traceFile(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
